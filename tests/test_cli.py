import concurrent.futures
import csv
import json
import math
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from landausim import cli as cli_module
from landausim import dynamics
from landausim.cli import main
from landausim.diagnostics import GaussianBumpFn, weak_form_residual
from landausim.dynamics import ParticleState
from landausim.errors import BlowupError, CoverageError
from landausim.estimators import EmpiricalMeasure, PairStats, pair_inverse_square
from landausim.reference import maxwellian_entropy
from landausim.runio import load_trajectory

from _child import avx512_dispatch_targets, run_child


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


def blowup_at(monkeypatch, k: int, n: int | None = None):
    """Make dynamics.step raise BlowupError(k) on the step that would reach
    step k (only for n-particle states when n is given)."""
    real_step = dynamics.step

    def step(state, *args, **kwargs):
        if state.step_index + 1 == k and n in (None, state.n):
            raise BlowupError(k)
        return real_step(state, *args, **kwargs)

    monkeypatch.setattr(dynamics, "step", step)


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


@pytest.mark.parametrize("key,value", [
    ("gamma", "x"), ("dt", "1e-3"), ("t_end", None), ("eta", "0.1"), ("eta_c", [1.0]),
    ("eta_kappa", True), ("theta", "0.99"), ("seed", True), ("n_particles", 16.0),
    ("snapshot_stride", False), ("snapshot_stride", "5"),
    *(pytest.param(key, 10 ** 400, id=f"{key}-10**400") for key in ("t_end", "dt", "eta"))])
def test_simulate_non_numeric_config_value_exits_2(tmp_path, capsys, key, value):
    # a string, list, null or bool where a number belongs, or an int no float
    # can hold, is bad input, not a crash
    cfg = write_config(tmp_path / "c.json", **{key: value})
    out = tmp_path / "r"
    assert cli("simulate", "--config", cfg, "--out", out) == 2
    assert f"error: {key} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("g0", [3, "nosuch(1)"])
def test_bad_g0_exits_2_before_any_output(tmp_path, capsys, g0):
    cfg = write_config(tmp_path / "c.json", g0=g0)
    for argv, out in ((["simulate", "--config", cfg], tmp_path / "r"),
                      (["sweep", "--config", cfg, "--axis", "n_particles",
                        "--values", "8,12"], tmp_path / "s")):
        assert cli(*argv, "--out", out) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


def test_a_step_count_that_is_not_finite_exits_2_before_any_output(tmp_path, capsys):
    # t_end / dt overflows: n_steps raised OverflowError after --out was made
    bad = write_config(tmp_path / "bad.json", n_particles=4, gamma=0.0, dt=1e-300,
                       t_end=1e300)
    base = write_config(tmp_path / "base.json", n_particles=4, gamma=0.0, t_end=1e300)
    for argv, out in ((["simulate", "--config", bad], tmp_path / "r"),
                      (["sweep", "--config", base, "--axis", "dt",
                        "--values", "1e-300"], tmp_path / "s")):
        assert cli(*argv, "--out", out) == 2
        assert "t_end / dt" in capsys.readouterr().err
        assert not out.exists()


def test_a_cloud_that_cannot_be_allocated_exits_2_before_any_output(tmp_path, capsys):
    # 10**15 particles are 24 PB, beyond the address space, so nothing is mapped
    big = write_config(tmp_path / "big.json", n_particles=10**15)
    base = write_config(tmp_path / "base.json")
    for argv, out in ((["simulate", "--config", big], tmp_path / "r"),
                      (["sweep", "--config", base, "--axis", "n_particles",
                        "--values", f"8,{10**15}"], tmp_path / "s")):
        assert cli(*argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n_particles") and "Traceback" not in err
        assert not out.exists()


def test_missing_input_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nowhere.json"
    for argv in (["simulate", "--config", missing, "--out", tmp_path / "r"],
                 ["sweep", "--config", missing, "--axis", "n_particles",
                  "--values", "8", "--out", tmp_path / "s"],
                 ["plotdata", "--run", tmp_path / "no_run"]):
        assert cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "No such file" in err
    assert not (tmp_path / "r").exists() and not (tmp_path / "s").exists()


def no_step(monkeypatch):
    """Make dynamics.step fail the test: nothing may run."""
    def step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(dynamics, "step", step)


def test_simulate_out_that_cannot_be_created_exits_2_before_any_step(
        tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path / "c.json")
    (tmp_path / "file").write_text("")
    no_step(monkeypatch)
    for out in (tmp_path / "file", tmp_path / "file" / "run"):
        assert cli("simulate", "--config", cfg, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot create --out {out}:")


def test_sweep_out_that_cannot_be_created_exits_2_before_any_step(
        tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path / "c.json", n_particles=8, t_end=0.002)
    (tmp_path / "file").write_text("")
    no_step(monkeypatch)
    out = tmp_path / "file" / "sweep"
    assert cli("sweep", "--config", cfg, "--axis", "n_particles", "--values", "8,12",
               "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot create --out {out}:")


def test_simulate_blowup_saves_partial_run_and_exits_1(tmp_path, monkeypatch, capsys):
    blowup_at(monkeypatch, 7)
    cfg = write_config(tmp_path / "c.json")  # records steps 0, 5, 10
    out = tmp_path / "run"
    assert cli("simulate", "--config", cfg, "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"blowup at step 7; partial run saved to {out}" in captured.err
    manifest = json.loads((out / "manifest.json").read_text())
    assert json.loads(manifest["status"]) == {"type": "blowup", "step": 7}
    assert manifest["snapshots"] == ["snap_000000.csv", "snap_000001.csv"]
    back = load_trajectory(out)
    assert back.error == {"type": "blowup", "step": 7}
    assert [s.step_index for s in back.snapshots] == [0, 5]


def test_pair_observer_nan_only_for_degenerate_cloud(tmp_path, monkeypatch, capsys):
    # the pair columns of a simulate run come from the step's own pair pass
    def rows_from(v):
        v = np.asarray(v, dtype=float)
        monkeypatch.setattr(dynamics, "init_iid", lambda config: ParticleState(v.copy()))
        cfg = write_config(tmp_path / "c.json", n_particles=len(v))
        out = tmp_path / f"run{len(v)}"
        assert cli("simulate", "--config", cfg, "--out", out) == 0
        return [json.loads(line) for line in
                (out / "diagnostics.jsonl").read_text().splitlines()]

    rows = rows_from(np.ones((6, 3)))  # every pair coincident, for every step
    assert len(rows) == 3
    for row in rows:
        assert np.isnan(row["pair_inv_sq"])
        assert row["min_pair_dist"] == 0.0 and row["n_pairs_below_eta"] == 15
    first = rows_from(np.eye(3))[0]
    assert first["pair_inv_sq"] == 0.5
    assert first["min_pair_dist"] == math.sqrt(2.0) and first["n_pairs_below_eta"] == 0

    def broken(self, iu, ju, z, r2, spare):
        raise ValueError("not a degenerate cloud")

    monkeypatch.setattr(PairStats, "add", broken)
    with pytest.raises(ValueError):
        rows_from(np.eye(3))
    capsys.readouterr()


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


@pytest.mark.parametrize("preset", ["maxwellian(nan)", "maxwellian(inf)",
                                    "aniso_gauss(1,nan,1)", "bimodal(nan)",
                                    "bimodal(-inf)"])
@pytest.mark.parametrize("command", ["functionals", "simulate"])
def test_non_finite_preset_arguments_exit_2(tmp_path, capsys, command, preset):
    if command == "functionals":
        argv = ["functionals", "--preset", preset]
    else:
        argv = ["simulate", "--config", write_config(tmp_path / "c.json", g0=preset),
                "--out", tmp_path / "run"]
    assert cli(*argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "finite" in out.err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("which", [",", "", " , "])
def test_functionals_rejects_empty_which(capsys, which):
    assert cli("functionals", "--preset", "maxwellian(1)", "--which", which) == 2
    out = capsys.readouterr()
    assert out.out == "" and "--which" in out.err


@pytest.mark.parametrize("beta", [",", "", " , "])
def test_functionals_rejects_empty_beta_before_sampling(monkeypatch, capsys, beta):
    # without K the betas are not read, so an empty list is no error
    assert cli("functionals", "--preset", "maxwellian(1)", "--which", "D",
               "--beta", beta, "--gamma", "-2", "--samples", "100") == 0
    capsys.readouterr()

    def no_sampling(*args):
        raise AssertionError("sampled for an empty --beta")

    monkeypatch.setattr(cli_module, "k_family", no_sampling)
    assert cli("functionals", "--preset", "maxwellian(1)", "--which", "H,K",
               "--beta", beta, "--gamma", "-2", "--samples", "100") == 2
    out = capsys.readouterr()
    assert out.out == "" and "--beta is empty" in out.err


@pytest.mark.parametrize("beta", ["0.5,0.5", "0,1,0.0"])
def test_functionals_rejects_a_repeated_beta_before_any_work(monkeypatch, capsys, beta):
    # a repeated beta would compute its K_beta column twice and print it twice
    def no_work(*args):
        raise AssertionError("worked on a repeated --beta")

    for name in ("k_family", "grid_functionals"):
        monkeypatch.setattr(cli_module, name, no_work)
    assert cli("functionals", "--preset", "maxwellian(1)", "--which", "H,K",
               "--beta", beta, "--gamma", "-2", "--samples", "100") == 2
    out = capsys.readouterr()
    assert out.out == "" and "--beta must not repeat" in out.err


@pytest.mark.parametrize("preset", ["maxwellian(1e-300)", "maxwellian(1e300)"])
def test_functionals_nan_mass_is_a_coverage_failure(capsys, preset):
    # the grid mass is NaN here; it must fail the mass check, not print NaN
    with np.errstate(all="ignore"):
        assert cli("functionals", "--preset", preset, "--which", "I") == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: quadrature mass nan")


_FUNCTIONALS_CHILD = """
import concurrent.futures, sys
from concurrent.futures import Future
from landausim import cli
from landausim.errors import CoverageError

class Inline:  # the grid pass runs where it is submitted: the sequential order
    def __init__(self, workers):
        pass
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        return False
    def submit(self, fn, *args):
        job = Future()
        try:
            job.set_result(fn(*args))
        except BaseException as exc:
            job.set_exception(exc)
        return job

if inline:
    concurrent.futures.ThreadPoolExecutor = Inline
if mc_fails:
    def k_family(*args):
        raise CoverageError("the MC pass failed")
    cli.k_family = k_family
sys.exit(cli.main(argv))
"""


@pytest.mark.parametrize("preset, which, samples, mc_fails", [
    ("aniso_gauss(2,0.5,0.5)", "H,I,D,J,K", 100_000, False),
    ("bimodal(3)", "H,I,D,J,K", 20_000, False),
    ("maxwellian(1e-300)", "I,D", 1000, False),
    ("maxwellian(1e-300)", "D,K", 1000, False),
    ("bimodal(3)", "I,H,K", 1000, True),
])
def test_functionals_overlap_prints_what_the_sequential_order_prints(
        preset, which, samples, mc_fails):
    # the grid pass on its worker thread against the same command with the
    # worker run inline: same stdout, stderr (numpy's warnings too) and exit code
    argv = ["functionals", "--preset", preset, "--which", which, "--beta", "0,0.5,1",
            "--gamma", "-2", "--samples", str(samples), "--seed", "3"]
    threaded, inline = (
        run_child(f"argv, inline, mc_fails = {argv!r}, {run_inline}, {mc_fails}\n"
                  + _FUNCTIONALS_CHILD)
        for run_inline in (False, True))
    assert (threaded.returncode, threaded.stdout, threaded.stderr) == (
        inline.returncode, inline.stdout, inline.stderr)
    expect_ok = preset != "maxwellian(1e-300)" and not mc_fails
    assert threaded.returncode == (0 if expect_ok else 1)
    assert "Traceback" not in threaded.stderr


def _functionals_with_k_family(monkeypatch, k_family, preset="maxwellian(1)",
                               which="H,I,D"):
    if k_family is not None:
        monkeypatch.setattr(cli_module, "k_family", k_family)
    return cli("functionals", "--preset", preset, "--which", which, "--gamma", "-2",
               "--samples", "1000")


def test_functionals_grid_error_wins_over_the_mc_pass(monkeypatch, capsys):
    threads = threading.active_count()
    # the grid's NaN mass fails; the MC pass beside it succeeds, or fails too
    with np.errstate(all="ignore"):
        assert _functionals_with_k_family(monkeypatch, None, "maxwellian(1e-300)",
                                          "I,D") == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: quadrature mass nan")
        assert threading.active_count() == threads

        def mc_fails(*args):
            raise CoverageError("the MC pass failed")

        assert _functionals_with_k_family(monkeypatch, mc_fails, "maxwellian(1e-300)",
                                          "I,D") == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: quadrature mass nan")
        assert threading.active_count() == threads
    # the worker runs under the caller's numpy errstate, as the grid pass did
    # on the calling thread
    with np.errstate(all="raise"):
        for which in ("I", "I,D"):
            with pytest.raises(FloatingPointError):
                _functionals_with_k_family(monkeypatch, None, "maxwellian(1e-300)", which)
            assert capsys.readouterr().out == ""
    assert threading.active_count() == threads


@pytest.mark.parametrize("error", [CoverageError("the MC pass failed"),
                                   RuntimeError("the MC pass broke")])
def test_functionals_mc_error_follows_the_grid_records(monkeypatch, capsys, error):
    threads = threading.active_count()

    def mc_fails(*args):
        raise error

    if isinstance(error, CoverageError):
        assert _functionals_with_k_family(monkeypatch, mc_fails) == 1
    else:
        with pytest.raises(RuntimeError, match="the MC pass broke"):
            _functionals_with_k_family(monkeypatch, mc_fails)
    out = capsys.readouterr()
    assert [json.loads(line)["functional"] for line in out.out.splitlines()] == ["H", "I"]
    assert out.err == ("error: the MC pass failed\n"
                       if isinstance(error, CoverageError) else "")
    assert threading.active_count() == threads


@pytest.mark.parametrize("which, started", [("H,I", 1), ("D,J,K", 0), ("I", 1),
                                            ("H,D", 1), ("K,I,J", 1)])
def test_functionals_starts_a_thread_only_for_the_grid(monkeypatch, capsys,
                                                       which, started):
    threads = threading.active_count()
    starts = []
    start = threading.Thread.start

    def counted_start(self):
        starts.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    assert cli("functionals", "--preset", "maxwellian(1)", "--which", which,
               "--beta", "0.5", "--gamma", "-2", "--samples", "1000") == 0
    assert len(starts) == started
    assert threading.active_count() == threads
    names = {json.loads(line)["functional"] for line in capsys.readouterr().out.splitlines()}
    assert names == {"K_beta" if w == "K" else w for w in which.split(",")}


@pytest.mark.parametrize("samples", ["0", "-5", "1"])
def test_functionals_rejects_bad_sample_count(capsys, samples):
    assert cli("functionals", "--preset", "maxwellian(1)", "--which", "D",
               "--gamma", "-2", "--samples", samples) == 2
    assert "error:" in capsys.readouterr().err


def test_functionals_rejects_beta_out_of_range(capsys):
    assert cli("functionals", "--preset", "maxwellian(1)", "--which", "K",
               "--beta", "2", "--gamma", "-2", "--samples", "100") == 2
    assert "error:" in capsys.readouterr().err
    assert cli("functionals", "--preset", "maxwellian(1)", "--which", "K",
               "--beta", "abc", "--gamma", "-2", "--samples", "100") == 2
    assert "error:" in capsys.readouterr().err
    # checked before any work: no H row is printed
    assert cli("functionals", "--preset", "maxwellian(1)", "--which", "H,K",
               "--beta", "2", "--gamma", "-2", "--samples", "100") == 2
    out = capsys.readouterr()
    assert out.out == "" and "error:" in out.err


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


def test_plotdata_out_that_cannot_be_created_exits_2(run_dir, tmp_path, capsys):
    capsys.readouterr()
    for dest in (tmp_path / "missing" / "tidy.csv", run_dir):
        assert cli("plotdata", "--run", run_dir, "--out", dest) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot create --out {dest}:")


def test_plotdata_unknown_key_exits_2(run_dir, capsys):
    capsys.readouterr()
    assert cli("plotdata", "--run", run_dir, "--keys", "nope") == 2
    err = capsys.readouterr().err
    assert "nope" in err and "energy" in err  # lists available keys


@pytest.mark.parametrize("keys", ["", ",", " , "])
def test_plotdata_empty_keys_exit_2(run_dir, capsys, keys):
    capsys.readouterr()
    assert cli("plotdata", "--run", run_dir, "--keys", keys) == 2
    out = capsys.readouterr()
    assert out.out == "" and "--keys is empty" in out.err


def test_plotdata_on_a_run_without_rows_exits_2(run_dir, capsys):
    (run_dir / "diagnostics.jsonl").write_text("")
    capsys.readouterr()
    assert cli("plotdata", "--run", run_dir) == 2
    assert "no diagnostics rows" in capsys.readouterr().err


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


def test_sweep_blowup_cell_is_recorded_and_exits_1(tmp_path, monkeypatch, capsys):
    blowup_at(monkeypatch, 3, n=12)
    cfg = write_config(tmp_path / "c.json", n_particles=8, t_end=0.005,
                       snapshot_stride=1, seed=3)
    out = tmp_path / "sweep"
    assert cli("sweep", "--config", cfg, "--axis", "n_particles",
               "--values", "8,12", "--out", out, "--format", "csv") == 1
    assert json.loads(capsys.readouterr().out) == {
        "out": str(out), "runs": 2, "failed": 1}
    rows = {r["value"]: r for r in
            csv.DictReader((out / "summary.csv").read_text().splitlines())}
    assert rows["8"]["status"] == "ok"
    assert rows["12"]["status"] == "blowup@3"
    for col in ("runtime_s", "energy_drift", "momentum_drift", "weak_residual",
                "bl_to_matched"):
        assert math.isfinite(float(rows["8"][col]))
        assert math.isnan(float(rows["12"][col]))
    manifest = json.loads((out / "n_particles=12" / "seed=3" / "manifest.json").read_text())
    assert json.loads(manifest["status"]) == {"type": "blowup", "step": 3}
    meds = {m["value"]: m for m in
            csv.DictReader((out / "summary_median.csv").read_text().splitlines())}
    assert meds["8"]["n_ok"] == "1" and meds["12"]["n_ok"] == "0"
    assert math.isnan(float(meds["12"]["median_abs_weak_residual"]))


def test_sweep_checks_every_cell_before_any_run(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "sweep"
    # the second value is a bad config: nothing may run or be written first
    assert cli("sweep", "--config", cfg, "--axis", "n_particles",
               "--values", "16,1", "--seeds", "2", "--out", out) == 2
    assert "n_particles" in capsys.readouterr().err
    assert not out.exists()
    for flag, bad in (("--seeds", "0"), ("--seeds", "-1"),
                      ("--workers", "0"), ("--workers", "-3")):
        assert cli("sweep", "--config", cfg, "--axis", "n_particles",
                   "--values", "16", flag, bad, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and flag in captured.err
        assert not out.exists()
    # values that share a cell directory name would overwrite each other's run
    for axis, values in (("n_particles", "16,16"), ("dt", "0.001,0.0010000001")):
        assert cli("sweep", "--config", cfg, "--axis", axis, "--values", values,
                   "--out", out) == 2
        assert "--values" in capsys.readouterr().err
        assert not out.exists()


def test_sweep_pool_has_at_most_one_worker_per_cell(tmp_path, monkeypatch, capsys):
    pools = []

    class Pool:  # records the pool size and runs the cells in this process
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    cfg = write_config(tmp_path / "c.json", n_particles=8, t_end=0.002)
    for values, seeds, workers, expect in (("8", "1", "3", []), ("8", "2", "3", [2]),
                                           ("8,12", "2", "3", [3])):
        pools.clear()
        assert cli("sweep", "--config", cfg, "--axis", "n_particles", "--values", values,
                   "--seeds", seeds, "--workers", workers,
                   "--out", tmp_path / f"s{values}-{seeds}") == 0
        assert pools == expect
    capsys.readouterr()


def test_sweep_weak_residual_from_the_step_pass_matches_post_hoc(tmp_path, capsys):
    # N = 128 and 256 cells, one recorded every step and one every third step
    phi = GaussianBumpFn(np.zeros(3), 1.0, 0.5)
    for stride in (1, 3):
        cfg = write_config(tmp_path / "c.json", n_particles=128, t_end=0.02, seed=3,
                           snapshot_stride=stride)
        out = tmp_path / f"sweep{stride}"
        assert cli("sweep", "--config", cfg, "--axis", "n_particles",
                   "--values", "128,256", "--out", out) == 0
        capsys.readouterr()
        rows = list(csv.DictReader((out / "summary.csv").read_text().splitlines()))
        for row in rows:
            traj = load_trajectory(out / f"n_particles={row['value']}" / "seed=3")
            assert [s.step_index for s in traj.snapshots][-1] == 20
            want = weak_form_residual(traj, phi, traj.times[-1])
            assert float(row["weak_residual"]) == pytest.approx(want, rel=1e-12, abs=0)
            for snap, diag in zip(traj.snapshots, traj.diagnostics):
                assert diag["pair_inv_sq"] == pair_inverse_square(EmpiricalMeasure(snap.v))


def test_sweep_rejects_unknown_axis(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    assert cli("sweep", "--config", cfg, "--axis", "seed", "--values", "1",
               "--out", tmp_path / "s") == 2


def test_sweep_rejects_bad_values(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    assert cli("sweep", "--config", cfg, "--axis", "dt", "--values", "0.1,zz",
               "--out", tmp_path / "s") == 2
    assert "values" in capsys.readouterr().err


def test_sweep_rejects_empty_values_before_writing(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "s"
    assert cli("sweep", "--config", cfg, "--axis", "dt", "--values", ",",
               "--out", out) == 2
    assert "--values is empty" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# verify and entry points

def test_verify_all_checks_pass(capsys):
    assert cli("verify") == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "FAIL" not in out
    assert "5/5 checks passed" in out


def test_verify_reports_a_raising_check_as_a_failure(monkeypatch, capsys):
    def broken(model, which):
        raise RuntimeError("no grid")

    monkeypatch.setattr(cli_module, "grid_functionals", broken)
    assert cli("verify") == 1
    out = capsys.readouterr().out
    assert "FAIL  closed_forms(H, I on standard Gaussian)  [RuntimeError: no grid]" in out
    assert out.count("PASS") == 4 and "4/5 checks passed" in out


def test_simulate_and_sweep_never_import_scipy(tmp_path):
    # scipy is loaded by the nearest-neighbor entropy of simulate --entropy
    # alone; the functionals, grid H and I included, never need it
    cfg = write_config(tmp_path / "c.json", n_particles=8, t_end=0.002,
                       snapshot_stride=1)
    script = f"""
import sys
from landausim import cli
assert "scipy" not in sys.modules, "import landausim.cli"
# the process pool, and with it multiprocessing, is for sweep --workers > 1 only
pool_modules = ("concurrent.futures.process", "multiprocessing")
assert not any(m in sys.modules for m in pool_modules), "import landausim.cli"
assert cli.main(["simulate", "--config", {str(cfg)!r},
                 "--out", {str(tmp_path / "run")!r}]) == 0
assert "scipy" not in sys.modules, "simulate"
assert cli.main(["sweep", "--config", {str(cfg)!r}, "--axis", "n_particles",
                 "--values", "8", "--out", {str(tmp_path / "sweep")!r}]) == 0
assert "scipy" not in sys.modules, "sweep"
assert cli.main(["functionals", "--preset", "maxwellian(1)", "--which", "H,I,D,J,K",
                 "--gamma", "-2", "--samples", "1000"]) == 0
assert "scipy" not in sys.modules, "functionals H,I,D,J,K"
assert not any(m in sys.modules for m in pool_modules), "simulate, sweep, functionals"
assert cli.main(["simulate", "--config", {str(cfg)!r},
                 "--out", {str(tmp_path / "run_entropy")!r}, "--entropy"]) == 0
assert "scipy" in sys.modules, "simulate --entropy"
assert cli.main(["sweep", "--config", {str(cfg)!r}, "--axis", "n_particles",
                 "--values", "8,9", "--workers", "2",
                 "--out", {str(tmp_path / "sweep_pool")!r}]) == 0
assert "concurrent.futures.process" in sys.modules, "sweep --workers 2"
"""
    proc = run_child(script)
    assert proc.returncode == 0, proc.stderr


_GRID_BITS = """
import sys
from landausim import cli, densities
from landausim.reference import resolve_preset
assert cli.main(["functionals", "--preset", "bimodal(3)", "--which", "H,I"]) == 0
assert cli.main(["functionals", "--preset", "aniso_gauss(2,0.5,0.5)", "--which", "D,J,K",
                 "--beta", "0,0.5,1", "--gamma", "-2", "--eta", "0.1",
                 "--samples", "40000", "--seed", "3"]) == 0
m = resolve_preset("bimodal(3)")
lo, hi = m.bounding_box(1e-9)

def rows(X):
    logf = m.log_density(X)
    f = m.density(X)
    return [f, f * logf, f * (m.log_grad(X) ** 2).sum(axis=1)]

sums = []
for chunk in (50, 65 * 65, 2**20):
    densities._GRID_CHUNK = chunk
    sums.append(densities.grid_integrate(rows, lo, hi, 65))
assert sums[0] == sums[1] == sums[2], sums
print(repr(sums[0]))
"""


@pytest.mark.parametrize("dispatch", ["default", "no-avx512"])
def test_grid_outputs_are_the_same_bits_at_one_and_two_blas_threads(dispatch):
    # H, I and their errors are slab sums in a fixed order, so the printed
    # bytes and grid_integrate at any chunk do not depend on the BLAS thread
    # count; neither do D, J and K_beta, whose BLAS products of three terms
    # feed column-wise fields (three sample blocks here); with AVX-512
    # dispatch off numpy's exp and log give other bits, so that run is
    # compared only with itself
    env = {}
    if dispatch == "no-avx512":
        targets = avx512_dispatch_targets()
        if not targets:
            pytest.skip("no AVX-512 dispatch to switch off on this CPU")
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(targets)
    out = []
    for threads in ("1", "2"):
        proc = run_child(_GRID_BITS, OPENBLAS_NUM_THREADS=threads, **env)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out[0] == out[1]
    assert [json.loads(line)["functional"] for line in out[0].splitlines()[:7]] == [
        "H", "I", "D", "J", "K_beta", "K_beta", "K_beta"]


def test_module_entry_point_reports_version():
    proc = subprocess.run([sys.executable, "-m", "landausim", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("landausim ")
