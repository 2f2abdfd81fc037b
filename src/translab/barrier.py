"""Sub/supersolution barriers and the slope comparison principle.

Barriers for the graphical translator slope equation

    v' = (1 + v^2)^(beta+1) * g_-( v / (r (1+v^2)^beta), -1 )

come in two families: the implicit-cone profile w_m with constant argument
w / (r (1+w^2)^beta) = m (a subsolution for m >= m0_bar), and the power
profile w = -a r^b with b the slope of g_- at the origin (the asymptotic
supersolution).  Margins are reported with the orientation that makes a
supersolution nonnegative:  margin = w' - RHS(w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curvature import CurvatureFunction
from .errors import ConvergenceError, DomainError, ParameterError
from .ode import IntegratorConfig, integrate

# a margin counts as nonnegative (nonpositive) down to -SIGN_TOL (up to SIGN_TOL)
SIGN_TOL = 1e-9


@dataclass
class BarrierSpec:
    kind: str  # "implicit_cone" | "power"
    m_bar: Optional[float] = None  # implicit_cone slope ratio, in [-1, 0)
    a: Optional[float] = None  # power amplitude, > 0
    b: Optional[float] = None  # power exponent, < 0
    valid_range: tuple = (1.0, 1e4)

    def __post_init__(self):
        if self.kind == "implicit_cone":
            if self.m_bar is None or not -1.0 <= self.m_bar < 0.0:
                raise ParameterError(f"implicit_cone needs m_bar in [-1, 0), got {self.m_bar}")
        elif self.kind == "power":
            if self.a is None or self.a <= 0 or self.b is None or self.b >= 0:
                raise ParameterError("power barrier needs a > 0 and b < 0")
        else:
            raise ParameterError(f"unknown barrier kind {self.kind!r}")


@dataclass
class BarrierReport:
    grid: np.ndarray
    margins: np.ndarray
    min_margin: float
    verdict: str  # verified_super | verified_sub | violated
    skipped: int
    # settle radii for each orientation (to SIGN_TOL); None if never settles
    r_star_nonneg: Optional[float]
    r_star_nonpos: Optional[float]


def _pow(x: np.ndarray, e: float) -> np.ndarray:
    """x**e elementwise, rounded as Python's float ``**`` rounds it (np.power
    may round an ulp away); exponents 0 and 1 are exact either way."""
    if e == 0:
        return np.ones_like(x)
    return x if e == 1 else np.array([v**e for v in x.tolist()])


def _invert_scaled(target: np.ndarray, beta: float) -> np.ndarray:
    """The w with w / (1+w^2)^beta = target, elementwise; NaN where the
    bracket passes 1e12 or Newton stalls.

    The map is odd and, for beta < 1/2, strictly increasing, so a safeguarded
    Newton on w >= 0 for |target| converges globally; the sign is mirrored.
    Each element takes the steps and the stopping test of its own scalar
    iteration, on ``_pow``'s powers, whatever elements share the call.
    """
    t = np.abs(target)
    out = np.full(t.shape, math.nan)
    phi = lambda w, t: w / _pow(1 + w * w, beta) - t  # noqa: E731
    hi, act = np.ones(t.shape), np.arange(t.size)
    while act.size:
        act = act[phi(hi[act], t[act]) < 0]
        hi[act] *= 2.0
        act = act[hi[act] <= 1e12]
    act = np.flatnonzero(hi <= 1e12)
    t, lo, hi = t[act], np.zeros(act.size), hi[act]
    w = 0.5 * (lo + hi)
    for _ in range(100):
        if not act.size:
            break
        fw = phi(w, t)
        below = fw < 0
        lo, hi = np.where(below, w, lo), np.where(below, hi, w)
        converged = np.abs(fw) <= 1e-14 * np.maximum(1.0, t)
        dphi = (1 + (1 - 2 * beta) * w * w) / _pow(1 + w * w, beta + 1)
        w_new, mid = w - fw / dphi, 0.5 * (lo + hi)
        w_new = np.where((lo < w_new) & (w_new < hi), w_new, mid)
        # 0 <= lo <= hi: the bracket's largest end is hi
        pinched = ~converged & (hi - lo <= 4 * np.spacing(np.maximum(hi, 1e-30)))
        out[act[converged]], out[act[pinched]] = w[converged], mid[pinched]
        go = ~(converged | pinched)
        act, t, lo, hi, w = act[go], t[go], lo[go], hi[go], w_new[go]
    return np.copysign(out, target)


def evaluate_barrier(spec: BarrierSpec, r, beta: float) -> tuple:
    """Barrier values and derivatives (w, w') at the radii r, as arrays; a
    DomainError unless every radius lies in ``spec.valid_range``, and w is
    NaN where the cone profile has no inverse (``_invert_scaled``)."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if not np.all((spec.valid_range[0] <= r) & (r <= spec.valid_range[1])):
        raise DomainError(f"radii outside barrier range {spec.valid_range}")
    if spec.kind == "power":
        return -spec.a * _pow(r, spec.b), -spec.a * spec.b * _pow(r, spec.b - 1.0)
    m = spec.m_bar
    w = _invert_scaled(m * r, beta)
    return w, m * _pow(1 + w * w, beta + 1.0) / (1 + (1 - 2 * beta) * w * w)


def verify_inequality(spec: BarrierSpec, f: CurvatureFunction, grid: np.ndarray) -> BarrierReport:
    """Margins w' - (1+w^2)^(beta+1) g_-(w/(r(1+w^2)^beta), -1) on the grid,
    as arrays, g_- by one ``f.solve_minus`` call at the arguments in (-1, 0).  A
    radius outside the range, an argument outside (-1, 0) or one without a
    root counts as ``skipped``.  Each margin has the bits of the per-point
    arithmetic on Python floats (``_pow``) at the family's array root.

    The verdict states the uniform sign beyond the first radius r_star where
    it settles; the asymptotic supersolutions of the power family approach
    zero margin from below at O(r^(2b-2)), so the sign test carries a small
    tolerance.
    """
    beta = f.beta
    grid = np.asarray(grid, dtype=float)
    margins = np.full(len(grid), np.nan)
    skipped = len(grid)
    inside = np.flatnonzero((spec.valid_range[0] <= grid) & (grid <= spec.valid_range[1]))
    if f.minus_level is not None and inside.size:
        r = grid[inside]
        w, wp = evaluate_barrier(spec, r, beta)
        one = 1 + w * w
        y = w / (r * _pow(one, beta))
        arg = (-1.0 < y) & (y < 0.0)  # the U- strip; NaN w falls outside it
        with np.errstate(all="ignore"):
            g = f.solve_minus(y[arg])
            margins[inside[arg]] = wp[arg] - _pow(one[arg], beta + 1.0) * g
        skipped -= int(np.count_nonzero(~np.isnan(g)))
    valid = ~np.isnan(margins)
    if not valid.any():
        raise DomainError("barrier argument left the g_- domain at every grid point")
    mv, gv = margins[valid], grid[valid]

    def settle_radius(sign):
        # the start of the trailing run of margins within SIGN_TOL of the sign
        off = np.flatnonzero(sign * mv < -SIGN_TOL)
        idx = off[-1] + 1 if off.size else 0
        return float(gv[idx]) if idx < len(mv) else None

    r_super, r_sub = settle_radius(+1), settle_radius(-1)
    if r_super is not None and (r_sub is None or r_super <= r_sub):
        verdict = "verified_super"
    else:
        verdict = "violated" if r_sub is None else "verified_sub"
    return BarrierReport(gv, mv, float(np.min(mv)), verdict, skipped, r_super, r_sub)


def log_grid(r_lo: float, r_hi: float, per_decade: int = 400) -> np.ndarray:
    decades = math.log10(r_hi / r_lo)
    n = max(8, int(round(per_decade * decades)))
    return np.geomspace(r_lo, r_hi, n)


def compare_orderings(
    f: CurvatureFunction,
    v0_pairs,
    r0: float,
    r_end: float,
    config: Optional[IntegratorConfig] = None,
) -> dict:
    """Integrate ordered slope pairs and report the minimum ordering gap.

    Each pair (v_lo, v_hi) with v_lo <= v_hi is integrated through the
    positive-branch slope equation; the comparison principle demands the
    order persists, i.e. min over the shared grid of (v_hi - v_lo) >= 0.

    All pairs form one 2N-component state on a single step sequence, so
    each gap is read off one discrete flow: two solutions integrated
    separately would differ by their independently controlled errors on
    v ~ r, which on the attracting tail exceed the gap itself.  On
    y' = lam y a step multiplies a gap by the method's stability function
    R(h lam), so the steps keep the order where R > 0.  Every step is
    Radau IIA with the analytic dF/dv, from r0 on, whose R is positive on
    the whole negative real axis, so the stiff tail contracts the gap
    without reversing its sign at tolerance-limited step sizes.  ``steps``
    reports the handoff radius (r0) and the explicit (none) and Radau IIA
    step counts.  The order counts as verified only when the run reaches
    r_end: one failing component stops every pair, and a truncated span
    proves nothing.
    """
    from .bowl import _slope_field

    pairs = [(min(lo, hi), max(lo, hi)) for lo, hi in v0_pairs]
    if not pairs:
        raise ParameterError("compare_orderings needs at least one pair")
    cfg = config or IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
    clamp = None if f.is_one_degenerate else 1.0
    rhs, jac = _slope_field(f, clamp)
    # components 2i and 2i+1 hold the lower and upper member of pair i
    with np.errstate(all="ignore"):
        traj = integrate(rhs, r0, [v for pair in pairs for v in pair], r_end, cfg, jac=jac)
    grid = np.linspace(r0, r_end, 200)
    vs = traj.resample(grid[grid <= traj.t_final])
    min_gap = float(np.min(vs[:, 1::2] - vs[:, 0::2]))
    reached = traj.termination == "reached_end"
    return {
        "min_gap": min_gap,
        "pairs": len(pairs),
        "all_ordered": reached and min_gap >= -1e-9,
        "termination": traj.termination,
        "r_reached": traj.t_final,
        "steps": traj.step_counts(),
    }


def admissible_slope_range(f: CurvatureFunction, r0: float) -> tuple:
    """Initial slopes at r0 whose scaled argument sits inside U+."""
    y_lo = f.lambda0
    y_hi = 1.0 if not f.is_one_degenerate else 10.0 * y_lo
    v_lo, v_hi = _invert_scaled(np.array([y_lo * 1.001 * r0, y_hi * 0.999 * r0]), f.beta).tolist()
    if math.isnan(v_lo + v_hi):
        raise ConvergenceError(f"{f.name}: no slope at r0={r0} for the ends of U+")
    if v_lo >= v_hi:  # lambda0 within 0.2% of 1: the insets cross
        raise DomainError(f"{f.name}: no slope at r0={r0} inside U+ (lambda0 = {y_lo!r})")
    return v_lo, v_hi
