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


def load_config(path) -> SimConfig:
    """Parse a JSON config file; parse errors surface line and column."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return SimConfig.from_dict(raw)


def load_trajectory(run_dir) -> Trajectory:
    """Rebuild a Trajectory (snapshots + diagnostics) from a saved run."""
    run = Path(run_dir)
    try:
        with open(run / "manifest.json") as fh:
            manifest = json.load(fh)
        config = SimConfig.from_dict(manifest["config"])
        _, reader = _snapshot_io(manifest["format"])
        traj = Trajectory(config=config)
        for name in manifest["snapshots"]:
            traj.snapshots.append(reader(run / name))
    except OSError as exc:
        raise ConfigError(f"cannot read saved run {run}: {exc}") from exc
    diag_path = run / "diagnostics.jsonl"
    if diag_path.exists():
        with open(diag_path) as fh:
            traj.diagnostics = [json.loads(line) for line in fh if line.strip()]
    if manifest["status"] != "ok":
        traj.error = json.loads(manifest["status"])
    return traj
