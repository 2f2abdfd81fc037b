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
from .errors import ConvergenceError, DomainError, ParameterError, TranslabError
from .implicit import ImplicitBranch
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
    w: np.ndarray
    margins: np.ndarray
    min_margin: float
    r_star: Optional[float]  # first grid radius past which the verdict sign holds
    verdict: str  # verified_super | verified_sub | violated
    r_at: Optional[float] = None
    skipped: int = 0
    # settle radii for each orientation (to SIGN_TOL); None if never settles
    r_star_nonneg: Optional[float] = None
    r_star_nonpos: Optional[float] = None


def _invert_scaled(target: float, beta: float) -> float:
    """The w with w / (1+w^2)^beta = target.

    The map is odd and, for beta < 1/2, strictly increasing, so a safeguarded
    Newton on w >= 0 for |target| converges globally; the sign is mirrored.
    """
    t = abs(target)
    phi = lambda w: w / (1 + w * w) ** beta - t  # noqa: E731

    lo, hi = 0.0, 1.0
    while phi(hi) < 0:
        hi *= 2.0
        if hi > 1e12:
            raise ConvergenceError(f"no bracket for w / (1+w^2)^beta = {target}")
    w = 0.5 * (lo + hi)
    for _ in range(100):
        fw = phi(w)
        if fw < 0:
            lo = w
        else:
            hi = w
        if abs(fw) <= 1e-14 * max(1.0, t):
            return math.copysign(w, target)
        q = 1 + w * w
        dphi = (1 + (1 - 2 * beta) * w * w) / q ** (beta + 1)
        step = fw / dphi
        w_new = w - step
        if not lo < w_new < hi:
            w_new = 0.5 * (lo + hi)
        if hi - lo <= 4 * math.ulp(max(abs(lo), abs(hi), 1e-30)):
            return math.copysign(0.5 * (lo + hi), target)
        w = w_new
    raise ConvergenceError(f"Newton stalled on w / (1+w^2)^beta = {target}")


def evaluate_barrier(spec: BarrierSpec, r: float, beta: float) -> tuple:
    """Barrier value and derivative (w, w') at radius r."""
    if not spec.valid_range[0] <= r <= spec.valid_range[1]:
        raise DomainError(f"r={r} outside barrier range {spec.valid_range}")
    if spec.kind == "power":
        w = -spec.a * r**spec.b
        return w, -spec.a * spec.b * r ** (spec.b - 1.0)
    m = spec.m_bar
    w = _invert_scaled(m * r, beta)
    wp = m * (1 + w * w) ** (beta + 1.0) / (1 + (1 - 2 * beta) * w * w)
    return w, wp


def verify_inequality(spec: BarrierSpec, f: CurvatureFunction, grid: np.ndarray) -> BarrierReport:
    """Margins w' - (1+w^2)^(beta+1) g_-(w/(r(1+w^2)^beta), -1) on the grid.

    The verdict states the uniform sign beyond the first radius r_star where
    it settles; the asymptotic supersolutions of the power family approach
    zero margin from below at O(r^(2b-2)), so the sign test carries a small
    tolerance.
    """
    beta = f.beta
    branch = ImplicitBranch(f)
    margins = np.full(len(grid), np.nan)
    ws = np.full(len(grid), np.nan)
    skipped = 0
    # the cone barrier's argument is m_bar up to rounding: a few distinct
    # values over the whole grid, each solved once
    g_of = {}
    for i, r in enumerate(grid):
        try:
            w, wp = evaluate_barrier(spec, float(r), beta)
            yarg = w / (r * (1 + w * w) ** beta)
            g = g_of.get(yarg)
            if g is None:
                g = g_of[yarg] = branch.g_minus(yarg)
            margins[i] = wp - (1 + w * w) ** (beta + 1.0) * g
            ws[i] = w
        except TranslabError:
            skipped += 1
    valid = ~np.isnan(margins)
    if valid.sum() == 0:
        raise DomainError("barrier argument left the g_- domain at every grid point")
    mv = margins[valid]
    gv = np.asarray(grid)[valid]
    min_margin = float(np.min(mv))

    def settle_radius(sign):
        good = sign * mv >= -SIGN_TOL
        idx = len(good)
        for j in range(len(good) - 1, -1, -1):
            if not good[j]:
                break
            idx = j
        return float(gv[idx]) if idx < len(good) else None

    r_super = settle_radius(+1)
    r_sub = settle_radius(-1)
    if r_super is not None and (r_sub is None or r_super <= r_sub):
        return BarrierReport(
            gv, ws[valid], mv, min_margin, r_super, "verified_super",
            skipped=skipped, r_star_nonneg=r_super, r_star_nonpos=r_sub,
        )
    if r_sub is not None:
        return BarrierReport(
            gv, ws[valid], mv, min_margin, r_sub, "verified_sub",
            skipped=skipped, r_star_nonneg=r_super, r_star_nonpos=r_sub,
        )
    worst = int(np.argmin(np.abs(mv)))
    return BarrierReport(
        gv, ws[valid], mv, min_margin, None, "violated", r_at=float(gv[worst]), skipped=skipped
    )


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
    R(h lam), so the steps keep the order where R > 0.  They are explicit
    DOP853 from r0, held to h max|dF/dv| <= ``ode.STABLE_STEP`` = 3 where
    its R is positive (R(-3) = 0.05, the first zero near -4.35), until the
    stiffest component turns stiff; then Radau IIA with the analytic dF/dv,
    whose R is positive on the whole negative real axis, so the stiff tail
    contracts the gap without reversing its sign at tolerance-limited step
    sizes.
    ``steps`` reports the handoff radius and the explicit and Radau IIA
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
    rhs, jac = _slope_field(f, ImplicitBranch(f), clamp)
    # components 2i and 2i+1 hold the lower and upper member of pair i
    traj = integrate(rhs, r0, [v for pair in pairs for v in pair], r_end, cfg, jac=jac)
    grid = np.linspace(r0, r_end, 200)
    vs = traj.resample(grid[grid <= traj.t_final])
    gaps = np.min(vs[:, 1::2] - vs[:, 0::2], axis=0)
    worst = int(np.argmin(gaps))
    min_gap = float(gaps[worst])
    reached = traj.termination == "reached_end"
    return {
        "min_gap": min_gap,
        "pairs": len(pairs),
        "worst_pair": pairs[worst],
        "all_ordered": reached and min_gap >= -1e-9,
        "termination": traj.termination,
        "r_reached": traj.t_final,
        "steps": traj.step_counts(),
    }


def admissible_slope_range(f: CurvatureFunction, r0: float) -> tuple:
    """Initial slopes at r0 whose scaled argument sits inside U+."""
    y_lo = f.lambda0
    y_hi = 1.0 if not f.is_one_degenerate else 10.0 * y_lo
    return _invert_scaled(y_lo * 1.001 * r0, f.beta), _invert_scaled(y_hi * 0.999 * r0, f.beta)
