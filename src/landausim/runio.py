"""Run directory persistence: manifest, snapshots, diagnostics stream.

Layout of a saved run:

    manifest.json        config, seed, versions, file list, status, timing
    diagnostics.jsonl    one JSON object per recorded snapshot
    snap_000000.csv      per-snapshot velocities (or .bin, chosen by format)

CSV snapshots carry a header line '# step=<s> t=<t> n=<N>' followed by N rows
'vx,vy,vz' printed with repr-exact precision.  Binary snapshots are raw
little-endian float64 streams [step, t, v_1x, v_1y, v_1z, ...].  Identical
config and seed reproduce byte-identical files.
"""

from __future__ import annotations

import json
import platform
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import SimConfig, ParticleState, Trajectory
from .errors import ConfigError

__all__ = ["save_trajectory", "load_trajectory", "load_config"]


def _write_snapshot_csv(path: Path, state: ParticleState):
    with open(path, "w") as fh:
        fh.write(f"# step={state.step_index} t={float(state.t)!r} n={state.n}\n")
        fh.write("".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in state.v.tolist()))


def _read_snapshot_csv(path: Path) -> ParticleState:
    with open(path) as fh:
        header = fh.readline().strip()
        fields = dict(part.split("=") for part in header.lstrip("# ").split())
        v = np.loadtxt(fh, delimiter=",", ndmin=2)
    return ParticleState(v, t=float(fields["t"]), step_index=int(fields["step"]))


def _write_snapshot_bin(path: Path, state: ParticleState):
    flat = np.concatenate([[float(state.step_index), state.t], state.v.ravel()])
    flat.astype("<f8").tofile(path)


def _read_snapshot_bin(path: Path) -> ParticleState:
    flat = np.fromfile(path, dtype="<f8")
    step_index, t = int(flat[0]), float(flat[1])
    return ParticleState(flat[2:].reshape(-1, 3), t=t, step_index=step_index)


# snapshot format -> (writer, reader); the format name is the file extension
SNAPSHOT_FORMATS = {
    "csv": (_write_snapshot_csv, _read_snapshot_csv),
    "bin": (_write_snapshot_bin, _read_snapshot_bin),
}


def _snapshot_io(fmt: str):
    """(writer, reader) of a snapshot format; an unknown one is a ConfigError."""
    try:
        return SNAPSHOT_FORMATS[fmt]
    except KeyError:
        raise ConfigError(f"unknown snapshot format {fmt!r}; "
                          f"choose from {list(SNAPSHOT_FORMATS)}") from None


def save_trajectory(traj: Trajectory, out_dir, fmt: str = "csv"):
    """Write manifest + per-snapshot files + diagnostics.jsonl under out_dir."""
    writer, _ = _snapshot_io(fmt)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for idx, state in enumerate(traj.snapshots):
        name = f"snap_{idx:06d}.{fmt}"
        writer(out / name, state)
        files.append(name)
    with open(out / "diagnostics.jsonl", "w") as fh:
        for row in traj.diagnostics:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    manifest = {
        "package": "landausim",
        "version": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": traj.config.to_dict(),
        "eta_effective": traj.config.eta_effective,
        "format": fmt,
        "snapshots": files,
        "status": "ok" if traj.error is None else json.dumps(traj.error),
        "runtime_s": traj.runtime_s,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def _parse_json(text: str, path, line: int = 0):
    """json.loads(text) of line `line` of the file path (0: all of it); invalid
    JSON is a ConfigError naming the file, line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {line or exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc


def _read_json(path, what: str):
    """The JSON value in the file path; an unreadable file is a ConfigError."""
    try:
        return _parse_json(Path(path).read_text(), path)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc


def load_config(path) -> SimConfig:
    """Parse a JSON config file; parse errors surface line and column."""
    raw = _read_json(path, "config")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return SimConfig.from_dict(raw)


def load_trajectory(run_dir) -> Trajectory:
    """Rebuild a Trajectory (snapshots + diagnostics) from a saved run.  An
    unreadable file, invalid JSON or a manifest without a key it needs is a
    ConfigError that names the file (and the line of a JSON error)."""
    run = Path(run_dir)
    path = run / "manifest.json"
    manifest = _read_json(path, f"saved run {run}")
    missing = [key for key in ("config", "format", "snapshots", "status")
               if not isinstance(manifest, dict) or key not in manifest]
    if missing:
        raise ConfigError(f"{path}: a run manifest without the keys {missing}")
    traj = Trajectory(config=SimConfig.from_dict(manifest["config"]))
    _, reader = _snapshot_io(manifest["format"])
    try:
        traj.snapshots = [reader(run / name) for name in manifest["snapshots"]]
    except OSError as exc:
        raise ConfigError(f"cannot read saved run {run}: {exc}") from exc
    diag_path = run / "diagnostics.jsonl"
    if diag_path.exists():
        lines = enumerate(diag_path.read_text().splitlines(), 1)
        traj.diagnostics = [_parse_json(text, diag_path, k) for k, text in lines if text.strip()]
    if manifest["status"] != "ok":
        traj.error = _parse_json(manifest["status"], f"{path} status")
    return traj
