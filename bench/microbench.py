"""Per-layer microbenchmarks measured from outside on seeded points.

* ``curvature.value`` and ``curvature.grad``: ns per call, per registered
  family, on cone samples.
* ``ImplicitBranch.solve_level``: us per call on each of its paths, on the
  arguments the bowl slope RHS passes, (y, 1) with y inside U+:
  closed form (``mean:n=3``, an exact inverse), verified closed form
  (``hq:k=2,l=0,n=3``, residual-checked) and numeric (``g_plus`` on the
  same family, the bracket-plus-Newton path).

Each figure is the best of a few repeats, the usual estimate of the cost of
a call free of interference from other processes.
"""

from __future__ import annotations

import time

import numpy as np

from translab.curvature import from_key, registry_keys
from translab.implicit import ImplicitBranch

POINTS = 400
REPEATS = 5


def metric_key(key: str) -> str:
    """Registry key as a metric-name component: 'hq:k=2,l=0,n=3' -> 'hq_k2_l0_n3'."""
    return key.replace(":", "_").replace(",", "_").replace("=", "")


def _per_call(fn, args, loops: int) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(loops):
            for a in args:
                fn(*a)
        best = min(best, time.perf_counter() - t0)
    return best / (loops * len(args))


def _level_args(f, rng) -> list:
    """(y, 1) with y strictly inside the left part of U+ at level 1."""
    y_left = f.value(1.0, 1.0) ** (-1.0 / f.alpha_float)
    return [(float(y), 1.0) for y in rng.uniform(y_left * 1.01, 0.99, POINTS)]


def run(seed: int) -> dict:
    rng = np.random.default_rng([seed, 5])
    out = {}
    for key in registry_keys():
        f = from_key(key)
        pts = [f.sample_cone_point(rng) for _ in range(POINTS)]
        name = metric_key(key)
        out[f"curvature.value.ns_per_call.{name}"] = 1e9 * _per_call(f.value, pts, 20)
        out[f"curvature.grad.ns_per_call.{name}"] = 1e9 * _per_call(f.grad, pts, 20)
    mean = ImplicitBranch(from_key("mean:n=3"))
    hq = ImplicitBranch(from_key("hq:k=2,l=0,n=3"))
    out["implicit.solve_level.us_per_call.closed"] = 1e6 * _per_call(
        mean.solve_level, _level_args(mean.source, rng), 5)
    hq_args = _level_args(hq.source, rng)
    out["implicit.solve_level.us_per_call.verified"] = 1e6 * _per_call(hq.solve_level, hq_args, 5)
    out["implicit.solve_level.us_per_call.numeric"] = 1e6 * _per_call(hq.g_plus, hq_args, 1)
    return out
