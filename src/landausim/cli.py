"""Command-line interface.

Subcommands:

* ``simulate``    run one particle simulation from a JSON config into a run
                  directory (manifest, snapshots, diagnostics.jsonl);
* ``functionals`` evaluate H, I, D, J, K_beta on a named density preset;
                  asked for H or I and for D, J or K, it runs the H/I
                  quadrature on one worker thread beside the Monte Carlo
                  pass, with the output and error order of running the
                  quadrature first;
* ``sweep``       grid of simulations over one config axis x seeds, with a
                  per-run summary table and per-value medians;
* ``plotdata``    flatten a run's diagnostics.jsonl into tidy CSV;
* ``verify``      fast self-check battery (conservation, exchangeability,
                  closed forms), PASS/FAIL per item.

Exit codes: 0 success, 1 runtime failure (blowup, failed check), 2 bad
configuration or arguments.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .densities import GaussianModel, TensorPower
from .diagnostics import (BumpWeakIntegrand, GaussianBumpFn, bl_distance,
                          recorded_weak_residual)
from .dynamics import SimConfig, run
from .errors import BlowupError, ConfigError, CoverageError
from .estimators import EmpiricalMeasure, PairStats, knn_entropy
from .functionals import (MCSpec, _check_beta, entropy, entropy_production_D,
                          fisher_information, grid_functionals, k_family)
from .potentials import PotentialSpec, default_eta
from .reference import matched_maxwellian, maxwellian_entropy, resolve_preset
from .runio import SNAPSHOT_FORMATS, load_config, load_trajectory, save_trajectory

__all__ = ["main"]


def _entropy_observer(state):
    return {"knn_entropy": knn_entropy(state.v)}


def _run_and_save(config: SimConfig, observers, out, fmt: str, pair_observers=()):
    """Run config and save it under out; after a blowup the partial run is
    saved and returned, with the blowup recorded in its `error`.  Every row
    gets the PairStats columns of its state, from the step's own pair pass."""
    eta = config.eta_effective
    pair_observers = [lambda state: PairStats(eta), *pair_observers]
    try:
        traj = run(config, observers=observers, pair_observers=pair_observers)
    except BlowupError as err:
        traj = err.trajectory
    save_trajectory(traj, out, fmt=fmt)
    return traj


def _create_out(make, path, *args, **kwargs):
    """make(path, *args, **kwargs) for an --out path; an OSError is a ConfigError."""
    try:
        return make(path, *args, **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot create --out {path}: {exc}") from exc


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    _create_out(Path.mkdir, Path(args.out), parents=True, exist_ok=True)
    observers = [_entropy_observer] if args.entropy else []
    traj = _run_and_save(config, observers, args.out, args.format)
    if traj.error:
        print(f"blowup at step {traj.error['step']}; partial run saved to {args.out}",
              file=sys.stderr)
        return 1
    last = traj.diagnostics[-1]
    print(json.dumps({"out": str(args.out), "steps": config.n_steps,
                      "snapshots": len(traj.snapshots),
                      "final_energy": last["energy"],
                      "runtime_s": round(traj.runtime_s, 3)}))
    return 0


def _parse_list(text: str, cast, flag: str) -> list:
    """Comma-separated flag values through cast; a ValueError becomes a ConfigError."""
    try:
        return [cast(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {flag}: {exc}") from exc


def _cmd_functionals(args) -> int:
    model = resolve_preset(args.preset)
    which = [w.strip().upper() for w in args.which.split(",") if w.strip()]
    if not which:
        raise ConfigError("--which is empty; choose from H,I,D,J,K")
    bad = [w for w in which if w not in ("H", "I", "D", "J", "K")]
    if bad:
        raise ConfigError(f"unknown functionals {bad}; choose from H,I,D,J,K")
    betas = _parse_list(args.beta, float, "--beta") if "K" in which else []
    if "K" in which and not betas:
        raise ConfigError("--beta is empty; K needs at least one beta in [0, 1]")
    for b in betas:
        _check_beta(b)
    if len(set(betas)) < len(betas):  # one K_beta record per beta
        raise ConfigError(f"--beta must not repeat a beta, got {betas}")
    needs_pair = any(w in which for w in ("D", "J", "K"))
    if needs_pair:
        if args.gamma is None:
            raise ConfigError("--gamma is required for D/J/K")
        mc = MCSpec(n_samples=args.samples, seed=args.seed)
        eta = args.eta if args.eta is not None else default_eta(args.samples)
        pot = PotentialSpec(gamma=args.gamma, eta=eta)

    def emit(name, est, **extra):
        rec = {"functional": name, "preset": args.preset, "method": est.method,
               "value": est.value, "abs_error": est.abs_error, "n": est.n}
        if needs_pair and est.method == "mc":
            rec.update(gamma=pot.gamma, eta=pot.eta, n_rejected=est.n_rejected)
        rec.update(extra)
        print(json.dumps(rec, sort_keys=True))

    def emit_grid(estimates):
        for name, est in estimates.items():
            emit(name, est)

    # one grid pass serves the mass check, H and I; one sample batch serves
    # D, J and K_beta
    grid = [w for w in ("H", "I") if w in which]
    if grid and needs_pair:  # the grid pass runs on one worker thread meanwhile
        import contextvars
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(1) as pool:
            # the caller's context carries numpy's errstate into the worker
            job = pool.submit(contextvars.copy_context().run,
                              grid_functionals, model, grid)
            try:
                fam = k_family(model, betas, pot, mc)
            finally:  # the grid's records, or its error, come first
                emit_grid(job.result())
    elif grid:
        emit_grid(grid_functionals(model, grid))
    elif needs_pair:
        fam = k_family(model, betas, pot, mc)
    if needs_pair:
        if "D" in which:
            emit("D", fam.D)
        if "J" in which:
            emit("J", fam.J)
        for b in betas:
            emit("K_beta", fam.estimates[b], beta=b)
    return 0


_SWEEP_AXES = ("n_particles", "dt", "eta", "gamma")
_SWEEP_METRICS = ("energy_drift", "momentum_drift", "weak_residual", "bl_to_matched")


def _run_cell(payload) -> dict:
    """One sweep cell: run, save, summarize (top-level for process pools)."""
    config, axis, value, cell_dir, fmt = payload
    phi = GaussianBumpFn(np.zeros(3), 1.0, 0.5)
    # the weak-form integrand of every recorded state rides the step's pair pass
    traj = _run_and_save(config, [], cell_dir, fmt, [
        lambda state: BumpWeakIntegrand(phi, config.gamma, state.v)])
    row = {"axis": axis, "value": value, "seed": config.seed}
    if traj.error:
        row.update(status=f"blowup@{traj.error['step']}", runtime_s=float("nan"),
                   **dict.fromkeys(_SWEEP_METRICS, float("nan")))
        return row
    first, last = traj.diagnostics[0], traj.diagnostics[-1]
    final = traj.snapshots[-1].v
    row.update(
        status="ok",
        runtime_s=round(traj.runtime_s, 3),
        energy_drift=abs(last["energy"] - first["energy"]),
        momentum_drift=float(np.max(np.abs(
            np.asarray(last["momentum"]) - np.asarray(first["momentum"])))),
        weak_residual=recorded_weak_residual(traj, phi),
        bl_to_matched=bl_distance(EmpiricalMeasure(final), matched_maxwellian(final)),
    )
    return row


def _format_value(v) -> str:
    return f"{v:g}" if isinstance(v, float) else str(v)


def _cmd_sweep(args) -> int:
    base = load_config(args.config).to_dict()
    values = _parse_list(args.values, int if args.axis == "n_particles" else float,
                         "--values")
    if not values:
        raise ConfigError("--values is empty")
    names = [_format_value(v) for v in values]
    if len(set(names)) < len(names):  # two cells would write one directory
        raise ConfigError(f"--values must differ as cell names, got {names}")
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    out_root = Path(args.out)
    # every cell's config is built, and so checked, before any cell runs
    jobs = []
    for value, name in zip(values, names):
        for seed in range(base["seed"], base["seed"] + args.seeds):
            config = SimConfig.from_dict({**base, args.axis: value, "seed": seed})
            cell = out_root / f"{args.axis}={name}" / f"seed={seed}"
            jobs.append((config, args.axis, value, cell, args.format))
    _create_out(Path.mkdir, out_root, parents=True, exist_ok=True)
    workers = min(args.workers, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_cell, jobs))
    else:
        rows = [_run_cell(j) for j in jobs]

    cols = ["axis", "value", "seed", "status", "runtime_s", *_SWEEP_METRICS]
    with open(out_root / "summary.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=cols)
        w.writeheader()
        w.writerows(rows)
    with open(out_root / "summary_median.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["axis", "value", "n_ok"] + [f"median_abs_{c}" for c in _SWEEP_METRICS])
        for value, name in zip(values, names):
            ok = [r for r in rows
                  if r["value"] == value and r["status"] == "ok"]
            meds = [float(np.median([abs(r[c]) for r in ok])) if ok else float("nan")
                    for c in _SWEEP_METRICS]
            w.writerow([args.axis, name, len(ok)] + meds)
    n_bad = sum(r["status"] != "ok" for r in rows)
    print(json.dumps({"out": str(out_root), "runs": len(rows), "failed": n_bad}))
    return 1 if n_bad else 0


def _cmd_plotdata(args) -> int:
    traj = load_trajectory(args.run)
    rows = traj.diagnostics
    if not rows:
        raise ConfigError(f"{args.run}: no diagnostics rows")
    if args.keys is not None:
        keys = [k.strip() for k in args.keys.split(",") if k.strip()]
        if not keys:
            raise ConfigError("--keys is empty; name at least one column")
        missing = [k for k in keys if k not in rows[0]]
        if missing:
            raise ConfigError(f"keys not in diagnostics: {missing} "
                              f"(have {sorted(rows[0])})")
    else:
        keys = sorted(rows[0])
    flat_rows, flat_cols = [], []
    for row in rows:
        out = {}
        for k in keys:
            v = row.get(k)
            if isinstance(v, list):
                for i, vi in enumerate(v):
                    out[f"{k}_{i}"] = vi
            else:
                out[k] = v
        flat_rows.append(out)
        for c in out:
            if c not in flat_cols:
                flat_cols.append(c)
    sink = _create_out(open, args.out, "w", newline="") if args.out else sys.stdout
    try:
        w = csv.DictWriter(sink, fieldnames=flat_cols)
        w.writeheader()
        w.writerows(flat_rows)
    finally:
        if args.out:
            sink.close()
    return 0


def _cmd_verify(args) -> int:
    checks = []

    def check(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}  [{detail}]")

    def conservation():
        cfg = SimConfig(n_particles=64, gamma=-2.0, dt=1e-3, t_end=0.05, seed=1,
                        energy_mode="rescale")
        traj = run(cfg)
        d0, d1 = traj.diagnostics[0], traj.diagnostics[-1]
        dp = float(np.max(np.abs(np.asarray(d1["momentum"]) - np.asarray(d0["momentum"]))))
        de = abs(d1["energy"] - d0["energy"]) / d0["energy"]
        return dp < 1e-10 and de < 1e-12, f"dP={dp:.2e} dE/E={de:.2e}"

    def energy_martingale():
        cfg = SimConfig(n_particles=64, gamma=-2.0, dt=1e-3, t_end=0.05, seed=1)
        traj = run(cfg)
        d0, d1 = traj.diagnostics[0], traj.diagnostics[-1]
        de = abs(d1["energy"] - d0["energy"]) / d0["energy"]
        return de < 5e-3, f"raw-scheme dE/E={de:.2e}"

    def determinism():
        cfg = SimConfig(n_particles=32, gamma=-2.5, dt=1e-3, t_end=0.02, seed=3)
        a, b = run(cfg), run(cfg)
        same = all(np.array_equal(x.v, y.v) for x, y in zip(a.snapshots, b.snapshots))
        return same, "bitwise identical replay"

    def closed_forms():
        g = GaussianModel(np.zeros(3), np.eye(3))
        h = entropy(g).value
        i = fisher_information(g).value
        eh = abs(h - maxwellian_entropy(1.0))
        ei = abs(i - 3.0)
        return eh < 1e-6 and ei < 1e-6, f"|dH|={eh:.2e} |dI|={ei:.2e}"

    def maxwellian_zero():
        g2 = TensorPower(GaussianModel(np.zeros(3), np.eye(3)), 2)
        pot = PotentialSpec(gamma=-2.0, eta=0.1)
        est = entropy_production_D(g2, pot, MCSpec(20_000, seed=0))
        return est.value == 0.0, f"D={est.value:.2e}"

    check("conservation(momentum, energy; rescale mode)", conservation)
    check("energy drift(raw scheme, martingale-scale)", energy_martingale)
    check("determinism(seeded replay)", determinism)
    check("closed_forms(H, I on standard Gaussian)", closed_forms)
    check("equilibrium(D = 0 on Maxwellian pair)", maxwellian_zero)
    n_fail = checks.count(False)
    print(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return 1 if n_fail else 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="landausim",
        description="Conservative stochastic particle simulator and "
                    "entropy/dissipation functional toolkit.")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="run one simulation from a JSON config")
    ps.add_argument("--config", required=True, help="JSON config file")
    ps.add_argument("--out", required=True, help="output run directory")
    ps.add_argument("--format", choices=tuple(SNAPSHOT_FORMATS), default="csv")
    ps.add_argument("--entropy", action="store_true",
                    help="also record nearest-neighbor entropy per snapshot")
    ps.set_defaults(fn=_cmd_simulate)

    pf = sub.add_parser("functionals", help="evaluate H/I/D/J/K on a preset density")
    pf.add_argument("--preset", required=True,
                    help='e.g. "maxwellian(1)", "aniso_gauss(2,0.5,0.5)", "bimodal(3)"')
    pf.add_argument("--which", default="H,I", help="comma list from H,I,D,J,K")
    pf.add_argument("--beta", default="0,0.5,1",
                    help="comma list of K_beta betas in [0, 1]; K needs at least one")
    pf.add_argument("--gamma", type=float, default=None, help="potential exponent")
    pf.add_argument("--eta", type=float, default=None,
                    help="regularization length (default: sample-count rule)")
    pf.add_argument("--samples", type=int, default=200_000)
    pf.add_argument("--seed", type=int, default=0)
    pf.set_defaults(fn=_cmd_functionals)

    pw = sub.add_parser("sweep", help="grid of runs over one config axis x seeds")
    pw.add_argument("--config", required=True, help="base JSON config")
    pw.add_argument("--axis", required=True, choices=_SWEEP_AXES)
    pw.add_argument("--values", required=True, help="comma-separated axis values")
    pw.add_argument("--seeds", type=int, default=1, help="number of seeds per value")
    pw.add_argument("--out", required=True, help="sweep output root")
    pw.add_argument("--workers", type=int, default=1)
    pw.add_argument("--format", choices=tuple(SNAPSHOT_FORMATS), default="bin")
    pw.set_defaults(fn=_cmd_sweep)

    pp = sub.add_parser("plotdata", help="flatten run diagnostics to tidy CSV")
    pp.add_argument("--run", required=True, help="run directory")
    pp.add_argument("--keys", default=None, help="comma list of columns (default all)")
    pp.add_argument("--out", default=None, help="CSV path (default stdout)")
    pp.set_defaults(fn=_cmd_plotdata)

    pv = sub.add_parser("verify", help="fast invariant self-checks")
    pv.set_defaults(fn=_cmd_verify)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CoverageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
