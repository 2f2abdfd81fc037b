"""Catenoidal translators: neck solve, branch continuation, classification.

The generating curve (r, u)(s) is written in its tangent angle phi:

    dr/ds = cos phi,   du/ds = sin phi,   dphi/ds = X(sin phi / r, cos phi),

X(y, z) being the x-solve of gamma(x, y) = z (``solve_x``).  The
homogeneity scaling cancels, so no beta appears, and dphi/ds is the exact
profile curvature.  The neck (R, 0) has the vertical tangent phi = pi/2 and
the curvature X(1/R, 0) = -kappa_neck < 0, so it is strictly convex.  Three
kinds of chart build the two branches from it:

* the neck chart, state (r, phi) in the arc length s up from the neck,
  until the tangent tilts from the vertical by arctan(handoff_tan) or the
  curvature crosses zero;
* the lower arc, in the tilt psi = phi - pi/2 from the vertical down from
  the neck, with r the only state:

      dr/dpsi = D sin psi,   du/dpsi = -D cos psi,   ds/dpsi = D,
      D = -1 / X(cos psi / r, -sin psi),

  regular at the neck psi = 0, where D = 1 / kappa_neck.  On a
  derivative_origin end it runs to the neck tilt arctan(handoff_tan); on a
  continuous_origin end through the bottom psi = pi/2, which stays a
  regular point where the curvature blows up (D -> 0 on sk), to the tilt
  of the slope handoff_tan;
* the graph charts of the slope v = du/dr in r, from the exits of those
  two: the upper branch, and the descending lower branch of a
  derivative_origin end or the lower tail past the bottom.

Every chart integrates only the state that feeds back.  The height and the
arc length are quadratures of the dense output, exact for integrals of the
state and 4-point Gauss-Legendre otherwise.  The ascending graph charts
ride the same strongly attracting tail as the bowl and hand off to Radau
IIA as it does; the other charts are not stiff and step explicitly.

Each ascending end is a vertical translate of the bowl, solved first to
r_max: its chart stops at the merge radius r_m, where its slope meets the
bowl's (``MERGE_GAP``), and past r_m its rows are the bowl's, moved up by
the offset C = u - u_b at r_m (C+, and C- past a lower bottom; read at
r_max on a chart that does not merge), with s carried on by quadrature.

Angle bookkeeping: the reported angle ``theta`` is phi on the upper branch
and, on the lower branch, whose arc length s runs down from the neck,

    theta_bar = pi/2 + |psi - pi/2|   (pi/2 + |arctan(du/dr)| on graph charts)

which starts at pi at the neck, falls, touches pi/2 exactly at the lowest
point of the branch (its arc length s0, both the pi/2 crossing and the angle
minimum), and rises back toward pi along the convex outer end.  The
reported ``kappa`` is d theta / ds: X, and -X past the bottom.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bowl import (
    AXIS_EPS,
    PROFILE_CONFIG,
    BowlProfile,
    _loglog_fit,
    _node_residuals,
    _slope_scalar,
    _window_grid,
    solve_bowl,
)
from .curvature import CurvatureFunction, zero_ray
from .errors import ClassificationError, ParameterError, StructureError, UnsupportedError
from .ode import Trajectory, integrate

HANDOFF_TAN = math.tan(math.pi / 8)
# fit windows: the upper tail window from r_max / UPPER_FIT (``upper_growth_exponent``)
# must start past the neck radius R, where the branch has height 0, and a
# derivative_origin lower end is fitted from max(LOWER_FIT r_h, r_max / 10),
# r_h its chart's start, to r_max; so r_max > UPPER_FIT R and > LOWER_FIT r_h
UPPER_FIT = 3.0
LOWER_FIT = 2.0
# 4-point Gauss-Legendre nodes and weights on [0, 1], for the quadratures over
# one step that are not integrals of the state (exact for degree 7; the
# integrands are smooth on each step)
_GL_IN = math.sqrt(3 / 7 - 2 / 7 * math.sqrt(6 / 5))
_GL_OUT = math.sqrt(3 / 7 + 2 / 7 * math.sqrt(6 / 5))
_ARC_X = 0.5 + 0.5 * np.array([-_GL_OUT, -_GL_IN, _GL_IN, _GL_OUT])
_ARC_W = np.array([18 - 30**0.5, 18 + 30**0.5, 18 + 30**0.5, 18 - 30**0.5]) / 72
# the neck chart and the lower arc cross strongly curved arcs in few, long
# steps (up to 0.31 rad of tilt a step on the lower arc of sk:k=3,n=5); their
# profile rows sample every step at this many equal parts, or the lower
# arc's at parts of at most ROW_TILT in psi if more, so that a row's chord
# falls short of its arc by about ROW_TILT^2 / 24 at most
SUBSTEPS = 4
ROW_TILT = 0.02
# an ascending chart merges with the bowl where |v - v_b| / v_b falls below
# this, a few tolerances: C+- move < 1e-11 relative for 2e-12 to 1e-11 (4e-11 at 3e-11)
MERGE_GAP = 5 * PROFILE_CONFIG.rel_tol


@dataclass
class NeckSolution:
    R: float
    kappa_at_neck: float
    # the neck chart's rows up from the neck: columns s, r, u, phi, kappa,
    # residual, with s the arc length and phi the tangent angle (pi/2 at the
    # neck); the last row is the chart exit
    up: np.ndarray
    up_exit_reason: str  # "handoff" | "curvature_zero"
    charts: dict = field(default_factory=dict)  # per chart, ``Trajectory.step_counts``


@dataclass
class Profile:
    s: np.ndarray
    r: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    kappa: np.ndarray
    residuals: np.ndarray
    # the closing graph chart, whose nodes are the rows from tail_start:
    # the ascending chart of the upper branch or past the lower bottom, or
    # the descending chart of a derivative_origin lower branch
    tail: Optional[Trajectory] = field(default=None, repr=False)
    tail_start: int = 0
    charts: dict = field(default_factory=dict)  # as on NeckSolution
    # on an ascending end: u - u_b at the tail's last node (C+ on the upper
    # branch, C- on the lower), its merge radius (None if it reached r_max
    # unmerged) and the bowl, whose rows follow it
    offset: Optional[float] = None
    r_merge: Optional[float] = None
    bowl: Optional[BowlProfile] = field(default=None, repr=False)

    def u_at(self, rs) -> np.ndarray:
        """Height at radii on the branch.  On the tail chart it is the node
        height plus the exact integral of the step's slope polynomial, past
        the merge the bowl's height plus the offset; on the neck chart or
        the lower arc before the tail, linear interpolation."""
        rs = np.asarray(rs, dtype=float)
        out = np.interp(rs, self.r, self.u)
        if self.tail is not None:
            on = rs >= self.tail.ts[0]
            if self.r_merge is not None:
                past = rs > self.r_merge
                out[past] = self.bowl.u_at(rs[past]) + self.offset
                on &= ~past
            out[on] = self.tail.integral_at(rs[on], self.u[self.tail_start:])
        return out


@dataclass
class CatenoidResult:
    R: float
    upper: Profile
    lower: Profile
    s0: Optional[float]  # the bottom's arc length on a continuous_origin end
    case: str  # "continuous_origin" | "derivative_origin"
    end_behavior: dict = field(default_factory=dict)
    embeddedness: dict = field(default_factory=dict)
    charts: dict = field(default_factory=dict)  # every chart's, and the bowl's


def solve_neck(f: CurvatureFunction, R: float, handoff_tan: float = HANDOFF_TAN) -> NeckSolution:
    """Integrate the neck chart up from (r, phi) = (R, pi/2), in the arc
    length s, to the handoff tilt arctan(handoff_tan), or to where the
    curvature crosses zero first (on sk that tilt is never reached)."""
    if not f.is_signed:
        raise UnsupportedError(f"{f.name} is not signed; no catenoidal neck exists")
    if R <= 0:
        raise ParameterError(f"neck radius must be positive, got {R}")
    x0, y0 = zero_ray(f)
    kappa_neck = -(x0 / y0) / R
    tilt = math.atan(handoff_tan)

    def curvature(y):
        return f.solve_float(math.sin(y[1]) / y[0], math.cos(y[1]))

    def rhs(s, y):
        return (math.cos(y[1]), curvature(y))

    def handoff(s, y):
        return math.pi / 2 - y[1] - tilt

    # X is measured in the neck's own scale |X(1/R, 0)| = kappa_neck, so that
    # the graze band of the curvature-zero stop is relative at every R
    tr = integrate(rhs, 0.0, [R, math.pi / 2], 6.0 * R, PROFILE_CONFIG,
                   (handoff, lambda s, y: curvature(y) / kappa_neck))
    if tr.termination != "terminal_event":
        raise StructureError(f"neck chart did not reach a handoff: {tr.termination}")
    s = _substeps(tr)
    r, phi = tr.resample(s).T
    kappa = f.solve_x(np.sin(phi) / r, np.cos(phi))
    u = _quadrature(tr, lambda s, y: np.sin(y[:, 1]), 0.0, s)
    return NeckSolution(
        R=R,
        kappa_at_neck=kappa_neck,
        up=np.column_stack([s, r, u, phi, kappa,
                            _node_residuals(f, r, 0.0, kappa, np.sin(phi), np.cos(phi))]),
        up_exit_reason=("handoff", "curvature_zero")[tr.stop],
        charts={"neck_up": tr.step_counts()},
    )


def _profile(columns: list, tail: Optional[Trajectory], charts: dict, **ends) -> Profile:
    """A branch profile from its charts' columns, in order along the branch,
    the last one the tail's (see ``_graph_chart`` for the ends)."""
    return Profile(*(np.concatenate(c) for c in zip(*columns)), tail=tail, charts=charts,
                   tail_start=sum(len(c[0]) for c in columns[:-1]), **ends)


def _gauss(traj: Trajectory, g, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gauss-Legendre integrals of g(t, y) over the intervals [a, b] inside
    the span, y being the dense output at the points t."""
    h = b - a
    t = (a[:, None] + h[:, None] * _ARC_X).ravel()
    return h * (g(t, traj.resample(t)).reshape(len(h), -1) @ _ARC_W)


def _quadrature(traj: Trajectory, g, start: float, t: np.ndarray) -> np.ndarray:
    """start plus the Gauss-Legendre integral of g(t, y) from t[0] to each
    point of t, piece by piece; no piece may straddle a node."""
    return np.cumsum(np.concatenate([[start], _gauss(traj, g, t[:-1], t[1:])]))


def _substeps(traj: Trajectory, max_part: float = math.inf) -> np.ndarray:
    """The nodes of a chart with every step split into SUBSTEPS equal
    parts, or into more where a part would exceed max_part."""
    h = np.diff(traj.ts)
    parts = np.maximum(SUBSTEPS, np.ceil(h / max_part)).astype(int)
    return np.append(np.concatenate([t + dt * np.arange(n) / n for t, dt, n in
                                     zip(traj.ts[:-1], h, parts)]), traj.ts[-1])


def _arc(t, y):
    return np.sqrt(1.0 + y[:, 0] * y[:, 0])


def _merge_stop(bowl: BowlProfile):
    """The merge |v - v_b| / v_b <= MERGE_GAP as a stop, 1 - gap / MERGE_GAP
    (it must clear the graze band), with v_b on the bowl step covering r."""
    starts, steps = bowl.trajectory.ts.tolist(), bowl.trajectory.segments

    def merged(r, y):
        v_b = steps[min(bisect_right(starts, r), len(steps)) - 1].eval(r)[0]
        return 1.0 - abs(y[0] - v_b) / (MERGE_GAP * v_b)

    return merged


def _graph_chart(f, r0, v0, u0, s0, r_max, what, bowl=None):
    """Graph chart of the slope v(r) from (r0, v0) to r_max.  Returns
    (trajectory, columns, ends): its profile columns and, on an ascending
    chart (given the bowl), the ``Profile`` fields of its end.

    The slope is the only state; the height u and the arc length s never
    feed back, so they are quadratures of the dense slope: u exactly, as
    the integral of each step's polynomial, s by Gauss-Legendre on
    sqrt(1 + v^2).  An ascending chart passes the analytic dF/dv: it steps
    explicitly from the neck or the bottom while h |dF/dv| < STIFF_STEP,
    hands off to Radau IIA before the first stiff step and stops at its
    merge with the bowl, whose rows follow; the descending chart steps
    explicitly.
    """
    rhs, jac = _slope_scalar(f, None)
    ascending = bowl is not None
    traj = integrate(rhs, r0, [v0], r_max, PROFILE_CONFIG,
                     (_merge_stop(bowl),) if ascending else (), jac=jac if ascending else None)
    if traj.termination not in ("reached_end", "terminal_event"):
        raise StructureError(f"{what} stopped early: {traj.termination} at r={traj.t_final}")
    r, v, vp = traj.ts, traj.ys[:, 0], traj.fs[:, 0]
    s, u = _quadrature(traj, _arc, s0, r), traj.node_integrals(u0)
    # profile columns (s, r, u, theta, kappa, residual): theta = arctan v, and
    # the signed curvature from the stored v'
    columns = (s, r, u, np.arctan(v), vp / (1.0 + v * v) ** 1.5, _node_residuals(f, r, v, vp, v))
    if not ascending:
        return traj, columns, {}
    r_m = traj.t_final
    C = float(u[-1] - bowl.u_at([r_m])[0])
    merged = traj.termination == "terminal_event"
    if merged:
        j = int(np.searchsorted(bowl.r, r_m, side="right"))
        r, v = bowl.r[j:], bowl.v[j:]
        rows = (_quadrature(bowl.trajectory, _arc, s[-1], np.append(r_m, r))[1:], r, bowl.u[j:] + C,
                np.arctan(v), bowl.trajectory.fs[j:, 0] / (1.0 + v * v) ** 1.5, bowl.residuals[j:])
        columns = tuple(np.concatenate(c) for c in zip(columns, rows))
    return traj, columns, {"offset": C, "r_merge": r_m if merged else None, "bowl": bowl}


def solve_upper_branch(f: CurvatureFunction, neck: NeckSolution, r_max: float,
                       bowl: BowlProfile) -> Profile:
    """Continue the ascending branch from the neck chart exit to its merge
    with the bowl (solved to r_max), and on the bowl to r_max."""
    s_h, r_h, u_h, phi_h = neck.up[-1, :4].tolist()
    if r_h >= r_max:
        raise ParameterError(f"r_max={r_max} does not extend past the neck chart (r={r_h})")
    traj, columns, ends = _graph_chart(f, r_h, math.tan(phi_h), u_h, s_h, r_max,
                                       "upper branch", bowl)
    if np.any(columns[3] <= 0) or np.any(columns[3] >= math.pi / 2):
        raise StructureError("upper branch tangent angle left (0, pi/2)")
    # the neck rows are profile columns as they stand: theta = phi going up
    return _profile([neck.up.T, columns], traj, {"upper": traj.step_counts()}, **ends)


def classify_case(f: CurvatureFunction) -> tuple:
    """Lower-end dichotomy from the family's origin data ``minus_origin``:
    ("derivative_origin", b) where g_-(0, -1) = 0 with a finite negative
    slope b, else ("continuous_origin", None)."""
    limit, slope = f.minus_origin or (math.nan, math.nan)
    if limit == 0 and slope < 0:
        return "derivative_origin", slope
    return "continuous_origin", None


def solve_lower_branch(f: CurvatureFunction, neck: NeckSolution, r_max: float, case: str,
                       b: Optional[float], bowl: BowlProfile,
                       handoff_tan: float = HANDOFF_TAN) -> tuple:
    """Descend from the neck on the lower end of ``classify_case``, with
    its slope b; returns (Profile, s0, end_behavior).

    The lower arc starts at the neck, psi = 0, with r = R and u = s = 0.
    Case "continuous_origin": the branch bottoms out at finite radius
    (slope-zero crossing, arc length s0) and continues as a convex
    ascending graph, merging with the bowl.  Case "derivative_origin": the
    branch descends and flattens forever; the end slope is fitted to -a r^b.
    """
    descending = case == "derivative_origin"
    tilt = math.atan(handoff_tan)

    def rhs(psi, y):  # dr/dpsi = D sin psi = -sin psi / X
        x = f.solve_float(math.cos(psi) / y[0], -math.sin(psi))
        return (-math.sin(psi) / x if x < 0 else math.nan,)

    def x_at(psi, y):
        return f.solve_x(np.cos(psi) / y[:, 0], -np.sin(psi))

    def ds(psi, y):
        return -1.0 / x_at(psi, y)

    # the lower arc ends at the neck tilt, where the descending chart takes
    # over at the slope -1 / handoff_tan, or past the bottom psi = pi/2 at
    # the tilt of the slope handoff_tan, where the lower tail takes over
    arc = integrate(rhs, 0.0, [neck.R], tilt if descending else math.pi / 2 + tilt,
                    PROFILE_CONFIG)
    if arc.termination != "reached_end":
        raise StructureError(f"lower arc failed: {arc.termination}")
    psi = _substeps(arc, ROW_TILT)
    y = arc.resample(psi)
    r, x = y[:, 0], x_at(psi, y)
    u = _quadrature(arc, lambda psi, y: np.cos(psi) / x_at(psi, y), 0.0, psi)
    s = _quadrature(arc, ds, 0.0, psi)
    bottom = psi - math.pi / 2
    # profile columns (s, r, u, theta, kappa, residual), one entry per chart
    columns = [(s, r, u, math.pi / 2 + np.abs(bottom), -np.sign(bottom) * x,
                _node_residuals(f, r, 0.0, x, np.cos(psi), -np.sin(psi)))]
    if not descending:
        j = int(np.searchsorted(psi, math.pi / 2)) - 1  # the bottom follows row j
        s0 = float(s[j] + _gauss(arc, ds, psi[j:j + 1], np.array([math.pi / 2]))[0])

    # the fit windows: the upper growth exponent's from r_max / UPPER_FIT, a
    # derivative_origin end's from LOWER_FIT times its graph chart's start
    r_h = float(r[-1])
    r_min = max(UPPER_FIT * neck.R, LOWER_FIT * r_h if descending else 0.0)
    if not r_max > r_min:
        raise ParameterError(f"r_max={float(r_max)} lies too close to the neck: "
                             f"the fit windows need r_max > {float(r_min)}")
    tail, (s, r, u, th, kappa, resid), ends = _graph_chart(
        f, r_h, -1.0 / handoff_tan if descending else handoff_tan, float(u[-1]), float(s[-1]),
        r_max, "lower branch" if descending else "lower tail", None if descending else bowl)
    columns.append((s, r, u, math.pi / 2 + np.abs(th), np.sign(th) * np.abs(kappa), resid))
    charts = {"lower_arc": arc.step_counts(),
              "lower" if descending else "lower_tail": tail.step_counts()}
    profile = _profile(columns, tail, charts, **ends)

    if not descending:
        if np.any(tail.fs[:, 0] <= 0):
            raise StructureError("post-turn tail is not convex")
        return profile, s0, {"case": case, "kind": "bowl_type"}

    if tail.ys[-1, 0] >= 0:
        raise StructureError("derivative_origin branch unexpectedly turned upward")
    # the end slope -a r^b, fitted on a geometric grid of the dense slope
    r = _window_grid(tail.ts, (max(r_h * LOWER_FIT, r_max / 10.0), r_max))
    w = -tail.resample(r)[:, 0]
    end_behavior = {
        "case": case,
        "kind": "logarithmic" if b == -1 else "power_law",
        "b": b,
        "b_fitted": _loglog_fit(r, w)[0],
        "exponent_u": b + 1.0,
        # the amplitude with the formula exponent pinned
        "a_R": float(math.exp(np.mean(np.log(w) - b * np.log(r)))),
        "theta_prime_end": float(abs(tail.fs[-1, 0]) / (1 + tail.ys[-1, 0] ** 2) ** 1.5),
    }
    return profile, None, end_behavior


def check_embeddedness(result: CatenoidResult) -> dict:
    """Minimum vertical separation of the branches over the shared graph range."""
    up, lo = result.upper, result.lower
    if result.case == "continuous_origin":  # past the bottom both branches are graphs
        r_lo_start = lo.r[int(np.argmin(lo.u))]
    else:
        r_lo_start = lo.r[0]
    r_star = max(up.r[0], r_lo_start) * 1.001
    r_end = min(up.r[-1], lo.r[-1])
    if r_star >= r_end:
        return {"conclusive": False, "reason": "no shared graph range"}
    grid = np.geomspace(r_star, r_end, 400)
    gap = up.u_at(grid) - lo.u_at(grid)
    # the gap levels off at C+ - C-, where its increments sink to round-off
    # (the tail heights are exact quadratures; the few points that fall on
    # the neck chart or, next to the bottom, on the lower arc are
    # interpolated linearly between their nodes); test the trend against a
    # noise floor
    tol = 1e-4 * max(1.0, float(np.max(np.abs(gap))))
    widening = (
        bool(np.all(np.diff(gap) > -tol)) if result.case == "continuous_origin" else None
    )
    return {
        "conclusive": True,
        "r_star": float(r_star),
        "min_gap": float(np.min(gap)),
        "widening": widening,
    }


def solve_catenoid(
    f: CurvatureFunction,
    R: float,
    r_max: float,
    handoff_tan: float = HANDOFF_TAN,
    bowl: Optional[BowlProfile] = None,
) -> CatenoidResult:
    """Full catenoid construction: neck, bowl, both branches, embeddedness."""
    neck = solve_neck(f, R, handoff_tan)
    case, b = classify_case(f)
    if bowl is None:
        bowl = solve_bowl(f, r_max, min(AXIS_EPS, R / 2))  # started below every chart
    # the lower branch first: it rejects an r_max too close to the neck
    lower, s0, end_behavior = solve_lower_branch(f, neck, r_max, case, b, bowl, handoff_tan)
    upper = solve_upper_branch(f, neck, r_max, bowl)
    result = CatenoidResult(
        R=R, upper=upper, lower=lower, s0=s0, case=case, end_behavior=end_behavior,
        charts={**neck.charts, **upper.charts, **lower.charts,
                "bowl": bowl.trajectory.step_counts()},
    )
    result.embeddedness = check_embeddedness(result)
    return result


def upper_growth_exponent(result: CatenoidResult, window: Optional[tuple] = None) -> float:
    """Log-log slope of u_+ over the tail window (expected alpha + 1), fitted
    on a geometric grid of the dense height."""
    up = result.upper
    r_max = up.r[-1]
    r = _window_grid(up.r, window or (r_max / UPPER_FIT, 0.9 * r_max))
    u = up.u_at(r)
    if np.any(u <= 0):
        raise ClassificationError("upper height not positive on the window")
    return _loglog_fit(r, u)[0]
