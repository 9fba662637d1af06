#!/usr/bin/env python3
"""Benchmark of the landausim command-line tool.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, untraced then traced

Each operation is one ``landausim`` CLI invocation in a fresh child process
(``perfbench/child.py``) with BLAS/OpenMP pinned to one thread and, for the
sweep, ``--workers 1``.  The program is used straight from ``src/``.  The
seed goes into the config ``seed`` or the ``--seed`` flag, so one seed
always gives the same inputs.  A run repeats the invocation until
``--seconds`` would be exceeded (at least once) and reports medians.

Workloads and why each was chosen:

* ``sim-coulomb-n1024``: ``simulate --format bin``, N=1024, gamma=-3, default
  eta, energy rescale, 60 steps, stride 20.  The O(N^2) pair step does almost
  all the work; observers and IO do almost none.
* ``sweep-diag-n256``: ``sweep`` over N in {128, 256} x 2 seeds, gamma=-2,
  eta=0.2, 200 steps, stride 1, CSV.  Every step is recorded and each cell
  runs ``weak_form_residual`` over every snapshot and ``bl_distance``, so
  diagnostics, observers and CSV IO dominate and the step is small.
* ``functionals-aniso-1e6``: ``functionals`` H, I, D, J, K on
  ``aniso_gauss(2,0.5,0.5)`` with 10^6 samples.  No dynamics: MC pair
  batches plus the H and I grids, where ``grid_integrate`` runs on large
  grids (the sweep runs it on many small ones).

End-to-end metrics (``--trace 0``), medians over the run's invocations:

* ``wall_s``: child start to exit.
* ``setup_s``: child start until ``landausim.cli`` is imported and the
  arguments and config are parsed; median over set-up-only probes and every
  invocation.
* ``peak_rss_mb``: the child's ``ru_maxrss``.
* ``ok_ratio``: invocations that exited 0 and passed the output check, over
  those attempted; one minus the fail ratio, which is printed in the report.
* ``pair_updates_per_s``: pair-kernel evaluations over the time after
  set-up; N(N-1)/2 per step, and one per MC sample (a sample is a pair).
* ``samples_per_s``: density samples produced over the time after set-up;
  MC samples drawn, or velocities recorded (N per snapshot).

Per-layer metrics (``--trace 1``) come from one traced invocation; see
``tracer.py`` for how spans are taken.  The run also makes untraced
invocations, so ``trace_overhead_s`` is the traced wall time minus their
median.  ``cli.self_s`` is the traced wall time minus the time covered by
top-level spans, so it and the self times of all spans add up to the
traced wall time.  All spans go to ``.perfbench/trace-<workload>-seed<n>.json``.

The last line of standard output is the result object; the line before it
is a report with machine facts, every invocation, counters and a sha256
digest of the outputs (informational, it does not gate).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib.metadata import version
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
PROBES = 7          # set-up-only children per untraced run, after one warm-up
BUDGET_S = 170.0    # a run, children included, ends within this
_SC_LEVEL3_CACHE_SIZE = 194   # glibc's sysconf name, absent from os.sysconf_names

SIM_CONFIG = {"n_particles": 1024, "gamma": -3.0, "dt": 1e-3, "t_end": 0.06,
              "energy_mode": "rescale", "snapshot_stride": 20}
SIM_STEPS, SIM_SNAPSHOTS = 60, 4
SWEEP_CONFIG = {"n_particles": 128, "gamma": -2.0, "eta": 0.2, "dt": 1e-3,
                "t_end": 0.2, "snapshot_stride": 1}
SWEEP_NS, SWEEP_SEEDS, SWEEP_STEPS = (128, 256), 2, 200
FN_SAMPLES = 1_000_000
FN_BETAS = (0.0, 1.0 / 3.0, 1.0)
FN_TEMPS = (2.0, 0.5, 0.5)   # aniso_gauss(2,0.5,0.5): N(0, diag(FN_TEMPS))


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


# ---------------------------------------------------------------------------
# workloads

def _write_config(work: Path, base: dict, seed: int) -> str:
    path = work / "config.json"
    path.write_text(json.dumps(dict(base, seed=seed)))
    return str(path)


def _sim_argv(work: Path, seed: int) -> list:
    return ["simulate", "--config", _write_config(work, SIM_CONFIG, seed),
            "--out", str(work / "out"), "--format", "bin"]


def _sweep_argv(work: Path, seed: int) -> list:
    return ["sweep", "--config", _write_config(work, SWEEP_CONFIG, seed),
            "--axis", "n_particles", "--values", ",".join(map(str, SWEEP_NS)),
            "--seeds", str(SWEEP_SEEDS), "--workers", "1", "--format", "csv",
            "--out", str(work / "out")]


def _fn_argv(work: Path, seed: int) -> list:
    return ["functionals", "--preset", "aniso_gauss(2,0.5,0.5)",
            "--which", "H,I,D,J,K", "--beta", ",".join(map(repr, FN_BETAS)),
            "--gamma", "-2", "--eta", "0.1", "--samples", str(FN_SAMPLES),
            "--seed", str(seed)]


def _check_sim(out: Path, stdout: str) -> list:
    rows = [json.loads(line) for line in
            (out / "diagnostics.jsonl").read_text().splitlines() if line.strip()]
    if len(rows) != SIM_SNAPSHOTS:
        return [f"{len(rows)} diagnostics rows, expected {SIM_SNAPSHOTS}"]
    first, last = rows[0], rows[-1]
    dp = max(abs(a - b) for a, b in zip(last["momentum"], first["momentum"]))
    de = abs(last["energy"] - first["energy"]) / first["energy"]
    problems = []
    if not dp <= 1e-10:
        problems.append(f"|dP| = {dp:.3e} > 1e-10")
    if not de <= 1e-12:
        problems.append(f"|dE|/E = {de:.3e} > 1e-12")
    return problems


def _check_sweep(out: Path, stdout: str) -> list:
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    cells = len(SWEEP_NS) * SWEEP_SEEDS
    if len(rows) != cells:
        return [f"{len(rows)} summary rows, expected {cells}"]
    problems = []
    for row in rows:
        cell = f"{row['value']}/{row['seed']}"
        if row["status"] != "ok":
            problems.append(f"{cell}: status {row['status']}")
        if not float(row["momentum_drift"]) <= 1e-10:
            problems.append(f"{cell}: momentum_drift {row['momentum_drift']}")
        for col in ("weak_residual", "bl_to_matched"):
            if not math.isfinite(float(row[col])):
                problems.append(f"{cell}: {col} {row[col]}")
    return problems


def _json_lines(stdout: str) -> list:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _load_oracle() -> dict:
    spec = importlib.util.spec_from_file_location("_oracles", ROOT / "tests" / "_oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ANISO_GM2


def _check_functionals(out: Path, stdout: str) -> list:
    oracle = _load_oracle()
    got = {(r["functional"], r.get("beta")): r for r in _json_lines(stdout)}
    # Gaussian closed forms: int f log f and int |grad f|^2 / f
    h_exact = -0.5 * sum(math.log(2.0 * math.pi * t) + 1.0 for t in FN_TEMPS)
    i_exact = sum(1.0 / t for t in FN_TEMPS)
    expect = [("H", None, h_exact, 1e-6, 0.0), ("I", None, i_exact, 1e-6, 0.0),
              ("D", None, oracle["D"], oracle["D_tol"], 5.0),
              ("J", None, oracle["J"], oracle["J_tol"], 5.0)]
    expect += [("K_beta", b, oracle["K"][b], oracle["K_tol"], 5.0) for b in FN_BETAS]
    problems = []
    for name, beta, ref, tol, n_se in expect:
        rec = got.get((name, beta))
        label = name if beta is None else f"{name}({beta:.4g})"
        if rec is None:
            problems.append(f"{label} missing")
        elif not abs(rec["value"] - ref) <= n_se * rec["abs_error"] + tol:
            problems.append(f"{label} = {rec['value']!r}, reference {ref!r}")
    return problems


def _digest_files(out: Path, stdout: str) -> str:
    h = hashlib.sha256()
    for path in _output_files(out):
        h.update(str(path.relative_to(out)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _digest_values(out: Path, stdout: str) -> str:
    values = sorted(f"{r['functional']} {r.get('beta')!r} {r['value']!r}"
                    for r in _json_lines(stdout))
    return hashlib.sha256("\n".join(values).encode()).hexdigest()


def _output_files(out: Path) -> list:
    """Snapshot files and diagnostics streams under a run or sweep root."""
    return sorted(p for p in out.rglob("*") if p.is_file()
                  and (p.name.startswith("snap_") or p.name == "diagnostics.jsonl"))


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[Path, int], list]      # (work dir, seed) -> CLI arguments
    pair_updates: int                      # per invocation
    samples: int                           # per invocation
    check: Callable[[Path, str], list]     # (output dir, stdout) -> problems
    digest: Callable[[Path, str], str]


WORKLOADS = {w.name: w for w in (
    Workload("sim-coulomb-n1024",
             _sim_argv, _pairs(1024) * SIM_STEPS, 1024 * SIM_SNAPSHOTS,
             _check_sim, _digest_files),
    Workload("sweep-diag-n256",
             _sweep_argv, sum(map(_pairs, SWEEP_NS)) * SWEEP_SEEDS * SWEEP_STEPS,
             sum(SWEEP_NS) * SWEEP_SEEDS * (SWEEP_STEPS + 1), _check_sweep, _digest_files),
    Workload("functionals-aniso-1e6",
             _fn_argv, FN_SAMPLES, FN_SAMPLES, _check_functionals, _digest_values),
)}


# ---------------------------------------------------------------------------
# child invocations

def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def invoke(wl: Workload, work: Path, seed: int, mode: str, deadline: float) -> dict:
    """Run one child; returns timings, exit code, output problems and digest."""
    out = work / "out"
    if out.exists():
        shutil.rmtree(out)
    argv = wl.argv(work, seed)
    report = work / "report.json"
    report.unlink(missing_ok=True)
    with open(work / "stdout", "w") as so, open(work / "stderr", "w") as se:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(report), mode, "--", *argv],
            cwd=work, env=_child_env(), stdout=so, stderr=se)
        watchdog = threading.Timer(max(1.0, deadline - t0), proc.kill)
        watchdog.start()
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.monotonic()
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {"mode": mode, "rc": proc.returncode, "wall_s": t1 - t0,
           "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss / 1024.0, "problems": []}
    try:
        child = json.loads(report.read_text())
    except (OSError, ValueError):
        child = {}
    if "t_setup" in child:
        rec["setup_s"] = child["t_setup"] - t0
    if "trace" in child:
        rec["trace"] = child["trace"]
    stdout = (work / "stdout").read_text()
    if proc.returncode != 0:
        tail = (work / "stderr").read_text().strip().splitlines()[-3:]
        rec["problems"].append(f"exit {proc.returncode}: {' | '.join(tail)}")
    elif mode != "probe":
        try:
            rec["problems"] += wl.check(out, stdout)
            rec["digest"] = wl.digest(out, stdout)
            rec["snapshot_bytes"] = sum(p.stat().st_size for p in _output_files(out)
                                        if p.name.startswith("snap_"))
            mc = [r for r in _json_lines(stdout) if r.get("method") == "mc"]
            kept = sum(r["n"] for r in mc)
            rec["mc_kept_ratio"] = kept / (kept + sum(r["n_rejected"] for r in mc)) if mc else 0.0
        except (OSError, ValueError, KeyError, TypeError) as exc:
            rec["problems"].append(f"output check: {type(exc).__name__}: {exc}")
    return rec


# ---------------------------------------------------------------------------
# metrics

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ok_ratio": "ratio",
              "pair_updates_per_s": "1/s", "samples_per_s": "1/s"}

# per-layer metric -> (unit, source); sources: ("total"|"self"|"counter"|"value"|"run", key)
PER_LAYER = {
    "dynamics.step.self_s": ("s", "self", "dynamics.step"),
    "dynamics.pair_noise.s": ("s", "total", "dynamics.pair_noise"),
    "potentials.alpha_reg.s": ("s", "total", "potentials.alpha_reg"),
    "dynamics.step.alloc_b_per_pair": ("B/pair", "value", "dynamics.step.alloc_b_per_pair"),
    "estimators.pair_inverse_square.s": ("s", "total", "estimators.pair_inverse_square"),
    "dynamics.conserved_quantities.s": ("s", "total", "dynamics.conserved_quantities"),
    "dynamics.run.self_s": ("s", "self", "dynamics.run"),
    "runio.save_trajectory.s": ("s", "total", "runio.save_trajectory"),
    "diagnostics.weak_form_residual.s": ("s", "total", "diagnostics.weak_form_residual"),
    "diagnostics.bl_distance.s": ("s", "total", "diagnostics.bl_distance"),
    "densities.grid_integrate.s": ("s", "total", "densities.grid_integrate"),
    "densities.sample.s": ("s", "total", "densities.sample"),
    "densities.log_grad.s": ("s", "total", "densities.log_grad"),
    "densities.log_hess_quadform.s": ("s", "total", "densities.log_hess_quadform"),
    "functionals.entropy_production_D.self_s": ("s", "self", "functionals.entropy_production_D"),
    "functionals.J_functional.self_s": ("s", "self", "functionals.J_functional"),
    "functionals.k_family.self_s": ("s", "self", "functionals.k_family"),
    "cli.self_s": ("s", "run", "cli.self_s"),
    "traced_wall_s": ("s", "run", "traced_wall_s"),
    "trace_overhead_s": ("s", "run", "trace_overhead_s"),
    "pair_updates": ("count", "counter", "pair_updates"),
    "mc_sample_batches": ("count", "counter", "mc_sample_batches"),
    "grid_points": ("count", "counter", "grid_points"),
    "weak_form_snapshots": ("count", "counter", "weak_form_snapshots"),
    "snapshot_bytes": ("B", "run", "snapshot_bytes"),
    "mc_kept_ratio": ("ratio", "run", "mc_kept_ratio"),
}


def _end_to_end(wl: Workload, runs: list, probes: list) -> dict:
    done = [r for r in runs if r["rc"] == 0 and "setup_s" in r]
    if not done:
        raise SystemExit(f"{wl.name}: no invocation completed: {runs[0]['problems']}")
    post = [r["wall_s"] - r["setup_s"] for r in done]
    setups = [r["setup_s"] for r in probes + done if "setup_s" in r]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in done),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
        "ok_ratio": sum(not r["problems"] for r in runs) / len(runs),
        "pair_updates_per_s": statistics.median(wl.pair_updates / p for p in post),
        "samples_per_s": statistics.median(wl.samples / p for p in post),
    }


def _per_layer(traced: dict, untraced: list) -> dict:
    trace = traced.get("trace")
    if trace is None:
        raise SystemExit(f"traced invocation left no trace: {traced['problems']}")
    run = {"cli.self_s": traced["wall_s"] - trace["covered_s"],
           "traced_wall_s": traced["wall_s"],
           "trace_overhead_s": traced["wall_s"] - statistics.median(r["wall_s"] for r in untraced),
           "snapshot_bytes": traced.get("snapshot_bytes", 0),
           "mc_kept_ratio": traced.get("mc_kept_ratio", 0.0)}
    out = {}
    for metric, (_, source, key) in PER_LAYER.items():
        if source in ("total", "self"):
            out[metric] = trace["stats"].get(key, {}).get(f"{source}_s", 0.0)
        elif source == "counter":
            out[metric] = trace["counters"].get(key, 0)
        elif source == "value":
            out[metric] = trace["values"].get(key, 0.0)
        else:
            out[metric] = run[key]
    return out


def _machine() -> dict:
    try:
        llc = os.sysconf(_SC_LEVEL3_CACHE_SIZE)
    except (ValueError, OSError):
        llc = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "llc_bytes": llc,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "threads": {v: "1" for v in THREAD_VARS}}


def run_workload(wl: Workload, seed: int, seconds: int, trace: bool) -> tuple:
    """One benchmark run; returns (result object, report object)."""
    started = time.monotonic()
    deadline = started + BUDGET_S
    load_before = os.getloadavg()
    work = ROOT / ".perfbench" / f"{wl.name}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        probes = [] if trace else \
            [invoke(wl, work, seed, "probe", deadline) for _ in range(PROBES + 1)][1:]
        t0 = time.monotonic()
        traced = invoke(wl, work, seed, "trace", deadline) if trace else None
        runs = []
        while True:
            runs.append(invoke(wl, work, seed, "run", deadline))
            typical = statistics.median(r["wall_s"] for r in runs)
            if time.monotonic() - t0 + typical > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ops = runs + ([traced] if traced else [])
    failed = sum(bool(r["problems"]) for r in ops)
    if trace:
        metrics = _per_layer(traced, runs)
        units = {k: v[0] for k, v in PER_LAYER.items()}
    else:
        metrics = _end_to_end(wl, runs, probes)
        units = END_TO_END
    digests = {r["digest"] for r in ops if "digest" in r}
    report = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": _machine(), "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(), "run_s": time.monotonic() - started,
        "fail_ratio": failed / len(ops),
        "digest": sorted(digests)[0] if len(digests) == 1 else sorted(digests),
        "work": {"pair_updates": wl.pair_updates, "samples": wl.samples},
        "setup_probes_s": [r.get("setup_s") for r in probes],
        "invocations": [{k: v for k, v in r.items() if k != "trace"} for r in ops],
    }
    if trace:
        t = traced["trace"]
        report["trace_summary"] = {"stats": t["stats"], "counters": t["counters"],
                                   "values": t["values"], "missing": t["missing"]}
        # self times of all spans plus cli.self_s reproduce the traced wall time
        report["span_accounting_error_s"] = (
            sum(s["self_s"] for s in t["stats"].values()) + metrics["cli.self_s"]
            - traced["wall_s"])
        dump = ROOT / ".perfbench" / f"trace-{wl.name}-seed{seed}.json"
        dump.write_text(json.dumps({"workload": wl.name, "seed": seed,
                                    "wall_s": traced["wall_s"], **t}))
        report["trace_file"] = str(dump.relative_to(ROOT))
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result, report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="one workload (default: all, untraced and traced, as a table)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "landausim" / "cli.py").is_file():
        print(f"error: no landausim sources under {ROOT / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    if args.workload:
        result, report = run_workload(WORKLOADS[args.workload], args.seed,
                                      args.seconds, bool(args.trace))
        print(json.dumps({"report": report}))
        print(json.dumps(result))
        return 0
    attempted = failed = 0
    for wl in WORKLOADS.values():
        for trace in (False, True):
            result, report = run_workload(wl, args.seed, args.seconds, trace)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                print(f"{wl.name:22s} {name:42s} {m['value']:>16.6g} {m['unit']}")
            for rec in report["invocations"]:
                for problem in rec["problems"]:
                    print(f"{wl.name:22s} FAILED {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
