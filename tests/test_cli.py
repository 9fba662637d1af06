import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from landausim import cli as cli_module
from landausim.cli import _pair_observer, main
from landausim.dynamics import ParticleState
from landausim.reference import maxwellian_entropy


def cli(*argv):
    """Invoke the CLI in-process, normalizing argparse SystemExit."""
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:
        return int(exc.code or 0)


def write_config(path: Path, **overrides) -> Path:
    cfg = {"n_particles": 16, "gamma": -2.0, "dt": 1e-3, "t_end": 0.01,
           "seed": 5, "eta": 0.2, "snapshot_stride": 5}
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def run_files(run_dir: Path) -> dict:
    """Relative path -> bytes for every run file except the manifest."""
    return {p.relative_to(run_dir): p.read_bytes()
            for p in sorted(run_dir.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


# ---------------------------------------------------------------------------
# simulate

def test_simulate_writes_run_and_summary(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "run"
    assert cli("simulate", "--config", cfg, "--out", out) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["steps"] == 10
    assert summary["snapshots"] == 3  # steps 0, 5, 10
    assert np.isfinite(summary["final_energy"])
    assert (out / "manifest.json").is_file()
    assert (out / "diagnostics.jsonl").is_file()


def test_simulate_reruns_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli("simulate", "--config", cfg, "--out", a) == 0
    assert cli("simulate", "--config", cfg, "--out", b) == 0
    capsys.readouterr()
    fa, fb = run_files(a), run_files(b)
    assert set(fa) == set(fb) and len(fa) > 0
    for rel in fa:
        assert fa[rel] == fb[rel], f"{rel} differs between identical runs"


def test_simulate_entropy_flag_adds_column(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", n_particles=32)
    out = tmp_path / "run"
    assert cli("simulate", "--config", cfg, "--out", out, "--entropy") == 0
    capsys.readouterr()
    rows = [json.loads(line) for line in
            (out / "diagnostics.jsonl").read_text().splitlines()]
    assert all("knn_entropy" in r and "pair_inv_sq" in r for r in rows)


def test_simulate_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "n_particles": 16,\n  "dt": 0.001,,\n}\n')
    assert cli("simulate", "--config", bad, "--out", tmp_path / "r") == 2
    err = capsys.readouterr().err
    assert "error:" in err and "line 3" in err


def test_simulate_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "n_partycles": 8}))
    assert cli("simulate", "--config", cfg, "--out", tmp_path / "r") == 2
    assert "n_partycles" in capsys.readouterr().err


def test_pair_observer_nan_only_for_degenerate_cloud(monkeypatch):
    row = _pair_observer(ParticleState(np.ones((6, 3))))  # every pair coincident
    assert list(row) == ["pair_inv_sq"] and np.isnan(row["pair_inv_sq"])
    assert _pair_observer(ParticleState(np.eye(3)))["pair_inv_sq"] == 0.5

    def broken(mu):
        raise ValueError("not a degenerate cloud")

    monkeypatch.setattr(cli_module, "pair_inverse_square", broken)
    with pytest.raises(ValueError):
        _pair_observer(ParticleState(np.eye(3)))


# ---------------------------------------------------------------------------
# functionals

def test_functionals_closed_forms(capsys):
    assert cli("functionals", "--preset", "maxwellian(1)", "--which", "H,I") == 0
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    by_name = {r["functional"]: r for r in recs}
    assert by_name["H"]["value"] == pytest.approx(maxwellian_entropy(1.0), rel=1e-6)
    assert by_name["I"]["value"] == pytest.approx(3.0, rel=1e-6)
    assert all(r["method"] == "grid" for r in recs)


def test_functionals_equilibrium_null(capsys):
    # unit-temperature pair: every dissipation-type functional is exactly zero
    assert cli("functionals", "--preset", "maxwellian(1)", "--which", "D,K",
               "--beta", "0,1", "--gamma", "-2", "--eta", "0.1",
               "--samples", "20000") == 0
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(recs) == 3  # D plus two K_beta rows
    for r in recs:
        assert r["value"] == 0.0
        assert r["abs_error"] == 0.0
        assert r["method"] == "mc" and r["gamma"] == -2.0
    betas = sorted(r["beta"] for r in recs if r["functional"] == "K_beta")
    assert betas == [0.0, 1.0]


def test_functionals_requires_gamma_for_pair(capsys):
    assert cli("functionals", "--preset", "maxwellian(1)", "--which", "D") == 2
    assert "gamma" in capsys.readouterr().err


def test_functionals_rejects_unknown_name(capsys):
    assert cli("functionals", "--preset", "maxwellian(1)", "--which", "H,Q") == 2
    assert "Q" in capsys.readouterr().err


def test_functionals_rejects_bad_preset(capsys):
    assert cli("functionals", "--preset", "maxwellian(-1)", "--which", "H") == 2


# ---------------------------------------------------------------------------
# plotdata

@pytest.fixture()
def run_dir(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "run"
    assert cli("simulate", "--config", cfg, "--out", out) == 0
    return out


def test_plotdata_flattens_vectors(run_dir, tmp_path, capsys):
    capsys.readouterr()
    assert cli("plotdata", "--run", run_dir) == 0
    reader = csv.DictReader(capsys.readouterr().out.splitlines())
    rows = list(reader)
    assert len(rows) == 3
    for col in ("t", "energy", "momentum_0", "momentum_1", "momentum_2",
                "pair_inv_sq"):
        assert col in reader.fieldnames
    assert [float(r["t"]) for r in rows] == pytest.approx([0.0, 0.005, 0.01])


def test_plotdata_key_selection_and_out_file(run_dir, tmp_path, capsys):
    capsys.readouterr()
    dest = tmp_path / "tidy.csv"
    assert cli("plotdata", "--run", run_dir, "--keys", "t,energy",
               "--out", dest) == 0
    reader = csv.DictReader(dest.read_text().splitlines())
    assert reader.fieldnames == ["t", "energy"]
    assert len(list(reader)) == 3


def test_plotdata_unknown_key_exits_2(run_dir, capsys):
    capsys.readouterr()
    assert cli("plotdata", "--run", run_dir, "--keys", "nope") == 2
    err = capsys.readouterr().err
    assert "nope" in err and "energy" in err  # lists available keys


# ---------------------------------------------------------------------------
# sweep

def test_sweep_grid_and_summaries(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", n_particles=8, t_end=0.005,
                       snapshot_stride=1, seed=3)
    out = tmp_path / "sweep"
    assert cli("sweep", "--config", cfg, "--axis", "n_particles",
               "--values", "8,12", "--seeds", "2", "--out", out,
               "--format", "csv") == 0
    assert json.loads(capsys.readouterr().out) == {
        "out": str(out), "runs": 4, "failed": 0}
    for cell in ("n_particles=8/seed=3", "n_particles=8/seed=4",
                 "n_particles=12/seed=3", "n_particles=12/seed=4"):
        assert (out / cell / "manifest.json").is_file()
    rows = list(csv.DictReader((out / "summary.csv").read_text().splitlines()))
    assert len(rows) == 4
    assert all(r["status"] == "ok" for r in rows)
    assert all(float(r["momentum_drift"]) < 1e-12 for r in rows)
    meds = list(csv.DictReader((out / "summary_median.csv").read_text().splitlines()))
    assert [m["value"] for m in meds] == ["8", "12"]
    assert all(m["n_ok"] == "2" for m in meds)
    assert all(np.isfinite(float(m["median_abs_weak_residual"])) for m in meds)


def test_sweep_rejects_unknown_axis(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    assert cli("sweep", "--config", cfg, "--axis", "seed", "--values", "1",
               "--out", tmp_path / "s") == 2


def test_sweep_rejects_bad_values(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    assert cli("sweep", "--config", cfg, "--axis", "dt", "--values", "0.1,zz",
               "--out", tmp_path / "s") == 2
    assert "values" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify and entry points

def test_verify_all_checks_pass(capsys):
    assert cli("verify") == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "FAIL" not in out
    assert "5/5 checks passed" in out


def test_module_entry_point_reports_version():
    proc = subprocess.run([sys.executable, "-m", "landausim", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("landausim ")
