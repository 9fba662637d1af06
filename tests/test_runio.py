import json

import numpy as np
import pytest

from landausim.cli import main as cli_main
from landausim.dynamics import SimConfig, run
from landausim.errors import ConfigError
from landausim.runio import load_config, load_trajectory, save_trajectory


def _small_cfg(**kw):
    base = dict(n_particles=12, gamma=-2.0, dt=1e-3, t_end=0.005, seed=4,
                eta=0.2, snapshot_stride=2)
    base.update(kw)
    return SimConfig(**base)


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_save_load_roundtrip_is_exact(tmp_path, fmt):
    traj = run(_small_cfg())
    out = tmp_path / "run"
    save_trajectory(traj, out, fmt)
    back = load_trajectory(out)
    assert back.config == traj.config
    assert len(back.snapshots) == len(traj.snapshots)
    for a, b in zip(traj.snapshots, back.snapshots):
        np.testing.assert_array_equal(a.v, b.v)  # bit-exact velocities
        assert a.t == b.t and a.step_index == b.step_index
    assert back.diagnostics == json.loads(
        json.dumps(traj.diagnostics))  # identical after JSON round trip
    assert back.error is None


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_saved_files_are_byte_stable(tmp_path, fmt):
    # identical config and seed reproduce byte-identical snapshot files
    a, b = tmp_path / "a", tmp_path / "b"
    save_trajectory(run(_small_cfg()), a, fmt)
    save_trajectory(run(_small_cfg()), b, fmt)
    for name in sorted(p.name for p in a.iterdir()):
        if name == "manifest.json":
            continue  # carries a creation timestamp
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_manifest_contents(tmp_path):
    traj = run(_small_cfg())
    out = save_trajectory(traj, tmp_path / "run", "csv")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["package"] == "landausim"
    assert manifest["status"] == "ok"
    assert manifest["format"] == "csv"
    assert manifest["config"]["n_particles"] == 12
    assert manifest["eta_effective"] == 0.2
    assert manifest["snapshots"] == [f"snap_{i:06d}.csv" for i in
                                     range(len(traj.snapshots))]
    assert manifest["runtime_s"] > 0.0
    for key in ("version", "numpy", "python", "created_utc"):
        assert key in manifest


def test_save_rejects_unknown_format(tmp_path):
    with pytest.raises(ConfigError):
        save_trajectory(run(_small_cfg()), tmp_path / "x", "hdf5")


def test_load_rejects_unknown_format(tmp_path):
    out = save_trajectory(run(_small_cfg()), tmp_path / "run", "csv")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["format"] = "hdf5"
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match="'hdf5'"):
        load_trajectory(out)


def _break_manifest_json(out):
    (out / "manifest.json").write_text('{"format": "csv",,}')


def _drop_manifest_format(out):
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["format"]
    (out / "manifest.json").write_text(json.dumps(manifest))


def _set_manifest(key, value):
    def damage(out):
        manifest = json.loads((out / "manifest.json").read_text())
        manifest[key] = value
        (out / "manifest.json").write_text(json.dumps(manifest))
    return damage


def _set_diagnostics_line(text):
    def damage(out):
        lines = (out / "diagnostics.jsonl").read_text().splitlines()
        lines[2] = text
        (out / "diagnostics.jsonl").write_text("\n".join(lines) + "\n")
    return damage


def _break_diagnostics_line(out):
    lines = (out / "diagnostics.jsonl").read_text().splitlines()
    lines[2] = lines[2][:-1]  # the third row loses its closing brace
    (out / "diagnostics.jsonl").write_text("\n".join(lines) + "\n")


def _drop_snapshot_time(out):
    lines = (out / "snap_000001.csv").read_text().splitlines()
    lines[0] = "# step=2 n=12"
    (out / "snap_000001.csv").write_text("\n".join(lines) + "\n")


def _break_snapshot_row(out):
    lines = (out / "snap_000001.csv").read_text().splitlines()
    lines[3] = "0.5,abc,0.25"
    (out / "snap_000001.csv").write_text("\n".join(lines) + "\n")


def _drop_snapshot_row(out):
    lines = (out / "snap_000001.csv").read_text().splitlines()
    (out / "snap_000001.csv").write_text("\n".join(lines[:-1]) + "\n")


@pytest.mark.parametrize("damage, match", [
    (_break_manifest_json, r"manifest\.json: invalid JSON at line 1, column 18"),
    (_drop_manifest_format, r"manifest\.json: .*\['format'\]"),
    (_set_manifest("config", 3), r"manifest\.json: config must be a JSON object"),
    (_break_diagnostics_line, r"diagnostics\.jsonl: invalid JSON at line 3"),
    (_set_manifest("format", []), r"manifest\.json: format and status must be strings"),
    (_set_manifest("snapshots", 5), r"manifest\.json: .* snapshots a list of file names"),
    (_set_manifest("snapshots", [5]), r"manifest\.json: .* snapshots a list of file names"),
    (_set_manifest("status", 5), r"manifest\.json: format and status must be strings"),
    (_set_diagnostics_line("5"), r"diagnostics\.jsonl: line 3 is not a JSON object"),
    (_set_diagnostics_line("[1,2]"), r"diagnostics\.jsonl: line 3 is not a JSON object"),
    (_drop_snapshot_time, r"snap_000001\.csv: a snapshot header without t="),
    (_break_snapshot_row, r"snap_000001\.csv: a damaged snapshot: .*'abc'"),
    (_drop_snapshot_row, r"snap_000001\.csv: velocities of shape \(11, 3\), "
                         r"where the run has \(12, 3\)"),
], ids=["manifest_json", "manifest_key", "manifest_config", "diagnostics_line",
        "manifest_format_type", "manifest_snapshots_type", "manifest_snapshot_name_type",
        "manifest_status_type", "diagnostics_number", "diagnostics_list",
        "snapshot_header", "snapshot_row", "snapshot_rows"])
def test_load_rejects_a_damaged_run_naming_the_file(tmp_path, capsys, damage, match):
    out = save_trajectory(run(_small_cfg()), tmp_path / "run", "csv")
    damage(out)
    with pytest.raises(ConfigError, match=match):
        load_trajectory(out)
    assert cli_main(["plotdata", "--run", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_load_rejects_a_truncated_binary_snapshot(tmp_path, capsys):
    # a binary snapshot of N particles holds 8 (2 + 3N) bytes: step, t, v
    out = save_trajectory(run(_small_cfg()), tmp_path / "run", "bin")
    snap = out / "snap_000001.bin"
    assert snap.stat().st_size == 8 * (2 + 3 * 12)
    with open(snap, "r+b") as fh:
        fh.truncate(20)
    with pytest.raises(ConfigError, match=r"snap_000001\.bin: 20 bytes, where a "
                                          r"snapshot of 12 particles has 304"):
        load_trajectory(out)
    assert cli_main(["plotdata", "--run", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_csv_header_carries_time_and_step(tmp_path):
    out = save_trajectory(run(_small_cfg()), tmp_path / "run", "csv")
    first = (out / "snap_000000.csv").read_text().splitlines()[0]
    assert first.startswith("# step=0 t=0.0 n=12")


def test_diagnostics_jsonl_rows(tmp_path):
    out = save_trajectory(run(_small_cfg()), tmp_path / "run", "csv")
    rows = [json.loads(line) for line in
            (out / "diagnostics.jsonl").read_text().splitlines()]
    assert [r["step"] for r in rows] == [0, 2, 4, 5]
    assert all({"t", "momentum", "energy"} <= set(r) for r in rows)


# ---------------------------------------------------------------------------
# Config files

def test_load_config_ok(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(n_particles=8, gamma=-2.0, dt=1e-3,
                                 t_end=0.1)))
    cfg = load_config(p)
    assert cfg.n_particles == 8
    assert cfg.g0 == "maxwellian(1)"


def test_load_config_reports_line_and_column(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{\n  "n_particles": 8,\n  "gamma": -2.0,,\n}\n')
    with pytest.raises(ConfigError, match=r"line 3, column 17"):
        load_config(p)


def test_load_config_rejects_non_object(tmp_path):
    p = tmp_path / "arr.json"
    p.write_text("[1, 2, 3]\n")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(p)


def test_load_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(n_particles=8, gamma=-2.0, dt=1e-3,
                                 t_end=0.1, dt_max=1.0)))
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(p)
