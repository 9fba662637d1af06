"""In-memory span tracer that wraps landausim functions from the outside.

Each wrapped function opens a span (name, start, end, parent) while it runs.
A function is wrapped at the name its caller looks up, for example
``landausim.dynamics.pair_noise`` (looked up by ``dynamics.step``) or
``landausim.cli.weak_form_residual`` (looked up by the sweep cell), so the
package itself is not edited.

Per span name the tracer keeps the call count, the total time and the self
time.  A span nested inside a span of the same name (a tensor power calling
its base model's ``log_grad``) adds to the self time and the call count but
not again to the total, so ``total_s`` is wall time covered by that name.
Self time is a span's duration minus the time its child spans cover; the
self times of all spans add up to the time covered by top-level spans.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
import tracemalloc
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []        # [id, parent id or -1, name, start, end]
        self.stats = {}        # name -> [calls, total_s, self_s]
        self.counters = Counter()
        self.values = {}       # one-off measurements, e.g. allocation per pair
        self.missing = []      # names that could not be wrapped
        self._stack = []       # open spans: [id, name, start, child time]
        self._ids = itertools.count()

    def active(self, prefix: str) -> bool:
        return any(frame[1].startswith(prefix) for frame in self._stack)

    def wrap(self, fn, name: str, count=None):
        """Return fn wrapped in a span; count(tracer, args, kwargs) -> counter
        increments, applied on outermost calls of this name only."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = all(frame[1] != name for frame in self._stack)
            parent = self._stack[-1] if self._stack else None
            frame = [next(self._ids), name, time.monotonic(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                self._stack.pop()
                dur = end - frame[2]
                if parent is not None:
                    parent[3] += dur
                st = self.stats.setdefault(name, [0, 0.0, 0.0])
                st[0] += 1
                if outermost:
                    st[1] += dur
                st[2] += dur - frame[3]
                self.spans.append([frame[0], parent[0] if parent else -1, name,
                                   frame[2], end])
            if outermost and count is not None:
                self.counters.update(count(self, args, kwargs))
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, self.wrap(fn, name, count))

    def dump(self) -> dict:
        covered = sum(end - start for _, parent, _, start, end in self.spans
                      if parent == -1)
        return {
            "stats": {k: {"calls": c, "total_s": t, "self_s": s}
                      for k, (c, t, s) in sorted(self.stats.items())},
            "counters": dict(self.counters),
            "values": self.values,
            "missing": self.missing,
            "covered_s": covered,
            "spans": self.spans,
        }


def _pairs_of(state) -> int:
    n = state.v.shape[0]
    return n * (n - 1) // 2


def _count_step(tracer, args, kwargs):
    return {"pair_updates": _pairs_of(args[0])}


def _count_grid(tracer, args, kwargs):
    lo = args[1] if len(args) > 1 else kwargs["lo"]
    n_points = args[3] if len(args) > 3 else kwargs["n_points"]
    if not hasattr(n_points, "__len__"):
        n_points = [n_points] * (len(lo) if hasattr(lo, "__len__") else 1)
    return {"grid_points": math.prod(int(n) for n in n_points)}


def _count_weak(tracer, args, kwargs):
    traj = args[0]
    t = args[2] if len(args) > 2 else kwargs["t"]
    # weak_form_residual evaluates every snapshot up to the one nearest t
    times = [s.t for s in traj.snapshots]
    idx = min(range(len(times)), key=lambda m: abs(times[m] - t))
    return {"weak_form_snapshots": idx + 1}


def _count_sample(tracer, args, kwargs):
    return {"mc_sample_batches": 1} if tracer.active("functionals.") else {}


def _alloc_once(fn, tracer):
    """Run the first call of step under tracemalloc; record peak bytes per pair."""
    done = False

    @functools.wraps(fn)
    def measured(state, *args, **kwargs):
        nonlocal done
        if done:
            return fn(state, *args, **kwargs)
        done = True
        tracemalloc.start()
        try:
            return fn(state, *args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer.values["dynamics.step.alloc_b_per_pair"] = peak / _pairs_of(state)

    return measured


def install() -> Tracer:
    """Wrap the package's layer entry points; returns the live tracer."""
    from landausim import cli, densities, diagnostics, dynamics, functionals

    tr = Tracer()
    if hasattr(dynamics, "step"):
        dynamics.step = _alloc_once(dynamics.step, tr)
    tr.patch(dynamics, "step", "dynamics.step", _count_step)
    tr.patch(dynamics, "pair_noise", "dynamics.pair_noise")
    tr.patch(dynamics, "alpha_reg", "potentials.alpha_reg")
    tr.patch(dynamics, "conserved_quantities", "dynamics.conserved_quantities")
    tr.patch(cli, "run", "dynamics.run")
    tr.patch(cli, "save_trajectory", "runio.save_trajectory")
    tr.patch(cli, "pair_inverse_square", "estimators.pair_inverse_square")
    tr.patch(cli, "weak_form_residual", "diagnostics.weak_form_residual", _count_weak)
    tr.patch(cli, "bl_distance", "diagnostics.bl_distance")
    for attr in ("entropy", "fisher_information", "entropy_production_D",
                 "J_functional", "k_family"):
        tr.patch(cli, attr, f"functionals.{attr}")
    for module in (densities, diagnostics, functionals):
        tr.patch(module, "grid_integrate", "densities.grid_integrate", _count_grid)
    for cls in vars(densities).values():
        if isinstance(cls, type) and issubclass(cls, densities.DensityModel):
            for attr in ("sample", "log_grad", "log_hess_quadform"):
                if attr in vars(cls) and cls is not densities.DensityModel:
                    count = _count_sample if attr == "sample" else None
                    tr.patch(cls, attr, f"densities.{attr}", count)
    return tr
