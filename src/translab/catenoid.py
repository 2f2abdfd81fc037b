"""Catenoidal translators: neck solve, branch continuation, classification.

Construction follows three charts.  A horizontal-graph chart r(u) covers the
neck, where the generating curve has a vertical tangent:

    r'' = -(1 + r'^2)^(beta+1) * X( 1/(r (1+r'^2)^beta), r' ),

X(y, z) being the x-solve of gamma(x, y) = z anchored at the zero ray (the
curvature at the neck is negative, so r''(0) = -X(1/R, 0) > 0 and the neck
is strictly convex).  Once the tangent tilts by pi/8 the branches continue
as vertical graphs in the slope variable; on the lower branch the turning
region (slope through zero) is integrated with the slope as the independent
variable, which stays regular even where the profile curvature blows up.

Every chart integrates only the state that feeds back: (r, r') on the neck,
the slope on the graph charts and r(w) on the turning chart.  The height
and the arc length are quadratures of the dense output, exact for integrals
of the state and 4-point Gauss-Legendre otherwise.  The ascending graph
charts (the upper branch, and the lower branch past its turn) ride the same
strongly attracting tail as the bowl and hand off to Radau IIA as it does;
the neck, descending and turning charts are not stiff and step explicitly.

Angle bookkeeping on the lower branch: the reported angle is

    theta_bar = pi/2 + |arctan(du/dr)|      (graph charts)

which starts near pi at the neck, falls, touches pi/2 exactly at the lowest
point of the branch (recorded as both the pi/2 crossing s0 and the angle
minimum s1), and rises back toward pi along the convex outer end.  The
bottom is the point w = 0 of the turning chart, whose independent variable
is the slope w, so s0 is a quadrature up to a known end point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bowl import (
    PROFILE_CONFIG,
    BowlProfile,
    _loglog_fit,
    _node_residuals,
    _slope_scalar,
    _window_grid,
    solve_bowl,
)
from .curvature import CurvatureFunction, zero_ray
from .errors import (
    ClassificationError,
    ParameterError,
    StructureError,
    TranslabError,
    UnsupportedError,
)
from .implicit import ImplicitBranch
from .ode import Trajectory, integrate

HANDOFF_TAN = math.tan(math.pi / 8)
# fit windows: the upper tail window from r_max / UPPER_FIT (``upper_window``)
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
# the neck and turning charts cross strongly curved arcs in few, long steps
# (~0.07 rad a step on the turning arc of sk:k=3,n=5); their profile rows
# sample every step at this many equal parts, to resolve the arc
SUBSTEPS = 4


@dataclass
class NeckSolution:
    R: float
    curvature_key: str
    kappa_at_neck: float
    # per side: (u, r, r_u, s) at the chart exit, with s arc length from the neck
    up_exit: tuple
    down_exit: tuple
    up_samples: np.ndarray  # columns u, r, r_u, s
    down_samples: np.ndarray
    up_exit_reason: str  # "handoff" | "curvature_zero"
    residual_max: float
    charts: dict = field(default_factory=dict)  # per chart, ``Trajectory.step_counts``


@dataclass
class Profile:
    side: str  # "upper" | "lower"
    s: np.ndarray
    r: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    kappa: np.ndarray
    residuals: np.ndarray
    # the closing graph chart, whose nodes end the arrays above: the
    # ascending chart of the upper branch or past the lower turn, or the
    # descending chart of a derivative_origin lower branch
    tail: Optional[Trajectory] = field(default=None, repr=False)
    charts: dict = field(default_factory=dict)  # as on NeckSolution

    def u_at(self, rs) -> np.ndarray:
        """Height at radii on the branch.  On the tail chart it is the node
        height plus the exact integral of the step's slope polynomial; on the
        neck and turning charts before it, linear interpolation."""
        rs = np.asarray(rs, dtype=float)
        out = np.interp(rs, self.r, self.u)
        if self.tail is not None:
            on = rs >= self.tail.ts[0]
            out[on] = self.tail.integral_at(rs[on], self.u[len(self.u) - len(self.tail.ts):])
        return out


@dataclass
class CatenoidResult:
    R: float
    curvature_key: str
    upper: Profile
    lower: Profile
    s0: Optional[float]
    s1: Optional[float]
    case: str  # "continuous_origin" | "derivative_origin"
    n_pi2_events: int
    n_theta_min_events: int
    C_plus: Optional[float] = None
    C_minus: Optional[float] = None
    end_behavior: dict = field(default_factory=dict)
    embeddedness: dict = field(default_factory=dict)
    handoff_tan: float = HANDOFF_TAN
    charts: dict = field(default_factory=dict)  # every chart's, and the bowl's


def _neck_rhs(f: CurvatureFunction, branch: ImplicitBranch, z_sign: float):
    """Horizontal chart RHS in the marching variable tau.

    Up side (tau = u): state slope p = r_u, curvature argument z = p.
    Down side (tau = -u): p = dr/dtau = -r_u, so z = -p while the second
    derivative is unchanged: d2r/dtau2 = r_uu either way.
    """
    beta = f.beta

    def rhs(u, y):
        r, p = y
        one_plus = 1.0 + p * p
        yarg = 1.0 / (r * one_plus**beta)
        try:
            x = branch.solve_level(yarg, z_sign * p)
        except TranslabError:
            return (math.nan, math.nan)
        return (p, -(one_plus ** (beta + 1.0)) * x)

    return rhs


def solve_neck(f: CurvatureFunction, R: float, handoff_tan: float = HANDOFF_TAN) -> NeckSolution:
    """Integrate the neck chart both ways from (r, u) = (R, 0)."""
    if not f.is_signed:
        raise UnsupportedError(f"{f.name} is not signed; no catenoidal neck exists")
    if R <= 0:
        raise ParameterError(f"neck radius must be positive, got {R}")
    branch = ImplicitBranch(f)
    x0, y0 = zero_ray(f)
    kappa_neck = -(x0 / y0) / R
    beta = f.beta
    u_cap = 6.0 * R

    def curvature_zero(u, y):
        # r'' changes sign when the solved x crosses zero; x is measured in
        # the neck's own scale |x(1/R, 0)| = kappa_neck (by homogeneity), so
        # that the graze band is relative at every R
        r, p = y
        yarg = 1.0 / (r * (1 + p * p) ** beta)
        try:
            return branch.solve_level(yarg, p) / kappa_neck
        except TranslabError:
            return math.nan

    def handoff(u, y):
        return y[1] - handoff_tan

    # up side: slope rises from 0; stop at the handoff tangent or when the
    # profile curvature crosses zero (whichever first)
    tr_up = integrate(_neck_rhs(f, branch, +1.0), 0.0, [R, 0.0], u_cap, PROFILE_CONFIG,
                      (handoff, curvature_zero))
    if tr_up.termination != "terminal_event":
        raise StructureError(f"neck chart (up) did not reach a handoff: {tr_up.termination}")
    up_reason = ("handoff", "curvature_zero")[tr_up.stop]

    # down side in tau = -u; the graph slope there is r_u = -dr/dtau
    tr_dn = integrate(_neck_rhs(f, branch, -1.0), 0.0, [R, 0.0], u_cap, PROFILE_CONFIG, (handoff,))
    if tr_dn.termination != "terminal_event":
        raise StructureError(f"neck chart (down) did not reach the handoff: {tr_dn.termination}")

    # residual of the neck equation at the nodes, in the solved chart: the
    # y-argument is 1/(r (1+p^2)^beta) and the level z = +-p
    res = float(np.max(np.concatenate([
        _node_residuals(f, tr.ys[:, 0], tr.ys[:, 1], -tr.fs[:, 1], 1.0, sign * tr.ys[:, 1])
        for tr, sign in ((tr_up, +1.0), (tr_dn, -1.0))
    ])))
    # samples (u, r, r_u, s) per side at the substeps; the arc length s is
    # the quadrature of sqrt(1 + p^2) in tau
    up_samples, dn_samples = (
        np.column_stack([sign * t, y[:, 0], sign * y[:, 1], _quadrature(
            tr, lambda t, y: np.sqrt(1.0 + y[:, 1] * y[:, 1]), 0.0, t)])
        for tr, sign in ((tr_up, 1.0), (tr_dn, -1.0))
        for t in [_substeps(tr)] for y in [tr.resample(t)]
    )
    return NeckSolution(
        R=R,
        curvature_key=f.name,
        kappa_at_neck=kappa_neck,
        up_exit=tuple(float(x) for x in up_samples[-1]),
        down_exit=tuple(float(x) for x in dn_samples[-1]),
        up_samples=up_samples,
        down_samples=dn_samples,
        up_exit_reason=up_reason,
        residual_max=res,
        charts={"neck_up": tr_up.step_counts(), "neck_down": tr_dn.step_counts()},
    )


def _graph_columns(f: CurvatureFunction, traj: Trajectory, u, s) -> tuple:
    """Profile columns (s, r, u, theta, kappa, residual) of a graph chart:
    theta = arctan v, and the signed curvature from the stored v'."""
    r, v, vp = traj.ts, traj.ys[:, 0], traj.fs[:, 0]
    return s, r, u, np.arctan(v), vp / (1.0 + v * v) ** 1.5, _node_residuals(f, r, v, vp, v)


def _neck_columns(samples: np.ndarray, theta: np.ndarray, residual: float) -> tuple:
    """Profile columns (s, r, u, theta, kappa, residual) of one side's
    neck-chart samples (columns u, r, r_u, s); kappa = d theta / ds."""
    s = samples[:, 3]
    kappa = np.gradient(theta, s) if len(samples) > 2 else np.zeros(len(samples))
    return (s, samples[:, 1], samples[:, 0], theta, kappa, np.full(len(samples), residual))


def _profile(side: str, columns: list, tail: Optional[Trajectory], charts: dict) -> Profile:
    """A branch profile from its charts' columns, in order along the branch."""
    return Profile(side, *(np.concatenate(c) for c in zip(*columns)), tail=tail, charts=charts)


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


def _substeps(traj: Trajectory) -> np.ndarray:
    """The nodes of a chart with every step split into SUBSTEPS equal parts."""
    t0, h = traj.ts[:-1, None], np.diff(traj.ts)[:, None]
    return np.append(t0 + h * np.arange(SUBSTEPS) / SUBSTEPS, traj.ts[-1])


def _graph_chart(f, branch, r0, v0, u0, s0, r_max, what, stiff, stops=()):
    """Graph chart of the slope v(r) from (r0, v0) to r_max, or to the first
    rising zero of a stop.  Returns (trajectory, u, s) at the nodes.

    The slope is the only state; the height u and the arc length s never
    feed back, so they are quadratures of the dense slope: u exactly, as
    the integral of each step's polynomial, s by Gauss-Legendre on
    sqrt(1 + v^2).  ``stiff`` charts (the ascending ones) pass the analytic
    dF/dv and hand off to Radau IIA on the tail, the others step explicitly.
    """
    rhs, jac = _slope_scalar(f, branch, None)
    traj = integrate(rhs, r0, [v0], r_max, PROFILE_CONFIG, stops, jac=jac if stiff else None)
    if traj.termination != ("terminal_event" if stops else "reached_end"):
        raise StructureError(f"{what}: {traj.termination} at r={traj.t_final}")
    s = _quadrature(traj, lambda t, y: np.sqrt(1.0 + y[:, 0] * y[:, 0]), s0, traj.ts)
    return traj, traj.node_integrals(u0), s


def solve_upper_branch(f: CurvatureFunction, neck: NeckSolution, r_max: float) -> Profile:
    """Continue the ascending branch from the neck chart exit to r_max."""
    branch = ImplicitBranch(f)
    u_h, r_h, ru_h, s_h = neck.up_exit
    if r_h >= r_max:
        raise ParameterError(f"r_max={r_max} does not extend past the neck chart (r={r_h})")
    traj, u, s = _graph_chart(f, branch, r_h, 1.0 / ru_h, u_h, s_h, r_max,
                              "upper branch stopped early", stiff=True)
    columns = _graph_columns(f, traj, u, s)
    if np.any(columns[3] <= 0) or np.any(columns[3] >= math.pi / 2):
        raise StructureError("upper branch tangent angle left (0, pi/2)")
    nu = neck.up_samples  # theta = pi/2 - arctan(r_u) on the neck chart
    neck_cols = _neck_columns(nu, math.pi / 2 - np.arctan(nu[:, 2]), neck.residual_max)
    return _profile("upper", [neck_cols, columns], traj, {"upper": traj.step_counts()})


def classify_case(f: CurvatureFunction) -> tuple:
    """Lower-end dichotomy from the family's origin data ``minus_origin``:
    ("derivative_origin", b) where g_-(0, -1) = 0 with a finite negative
    slope b, else ("continuous_origin", None)."""
    limit, slope = f.minus_origin or (math.nan, math.nan)
    if limit == 0 and slope < 0:
        return "derivative_origin", slope
    return "continuous_origin", None


def solve_lower_branch(f: CurvatureFunction, neck: NeckSolution, r_max: float, case: str,
                       b: Optional[float]) -> tuple:
    """Descend from the neck on the lower end of ``classify_case``, with
    its slope b; returns (Profile, s0, s1, end_behavior, n_pi2, n_min).

    Case "continuous_origin": the branch bottoms out at finite radius
    (slope-zero crossing, arc length s0 = s1) and continues as a convex
    ascending graph to r_max.  Case "derivative_origin": the branch
    descends and flattens forever; the end slope is fitted to -a r^b.
    """
    branch = ImplicitBranch(f)
    u_h, r_h, ru_h, s_h = neck.down_exit
    if r_h >= r_max:
        raise ParameterError(f"r_max={r_max} does not extend past the neck chart (r={r_h})")
    w_h = 1.0 / ru_h  # negative: the branch descends

    # profile columns (s, r, u, theta, kappa, residual), one entry per chart,
    # the neck chart samples first
    nd = neck.down_samples
    columns = [_neck_columns(nd, math.pi - np.abs(np.arctan(nd[:, 2])), neck.residual_max)]

    charts = {}

    def add_graph_chart(name, traj, u, s):
        s, r, u, th, kappa, resid = _graph_columns(f, traj, u, s)
        columns.append((s, r, u, math.pi / 2 + np.abs(th), np.sign(th) * np.abs(kappa), resid))
        charts[name] = traj.step_counts()

    s0 = s1 = None
    n_pi2 = n_min = 0
    end_behavior = {"case": case}

    if case == "derivative_origin":
        tail, u, s = _graph_chart(f, branch, r_h, w_h, u_h, s_h, r_max,
                                  "lower branch stopped early", stiff=False)
        if tail.ys[-1, 0] >= 0:
            raise StructureError("derivative_origin branch unexpectedly turned upward")
        add_graph_chart("lower", tail, u, s)
        # the end slope -a r^b, fitted on a geometric grid of the dense slope
        r = _window_grid(tail.ts, (max(r_h * LOWER_FIT, r_max / 10.0), r_max))
        w = -tail.resample(r)[:, 0]
        b_hat = _loglog_fit(r, w)[0]
        is_log = b == -1
        # amplitude with the formula exponent pinned
        a_R = float(math.exp(np.mean(np.log(w) - b * np.log(r))))
        theta_p_end = abs(tail.fs[-1, 0]) / (1 + tail.ys[-1, 0] ** 2) ** 1.5
        end_behavior.update(
            {
                "kind": "logarithmic" if is_log else "power_law",
                "b": b,
                "b_fitted": b_hat,
                "exponent_u": b + 1.0,
                "a_R": a_R,
                "theta_prime_end": float(theta_p_end),
            }
        )
    else:
        # descend in r until the slope flattens to the chart-switch angle
        tr1, u, s = _graph_chart(f, branch, r_h, w_h, u_h, s_h, r_max,
                                 "continuous_origin branch never flattened", stiff=False,
                                 stops=(lambda r, y: y[0] + HANDOFF_TAN,))
        add_graph_chart("lower_descending", tr1, u, s)
        r1, w1, u1, arc1 = tr1.t_final, tr1.ys[-1, 0], u[-1], s[-1]

        # turning chart: the slope w is the independent variable and r(w)
        # the only state; dr/dw = 1/F stays finite where the profile
        # curvature blows up
        slope, _ = _slope_scalar(f, branch, None)

        def turn_rhs(w, y):
            (F,) = slope(y[0], (w,))
            return (1.0 / F if F > 0 else math.nan,)

        tr2 = integrate(turn_rhs, w1, [r1], HANDOFF_TAN, PROFILE_CONFIG)
        if tr2.termination != "reached_end":
            raise StructureError(f"turning chart failed: {tr2.termination}")
        w = _substeps(tr2)
        r = tr2.resample(w)[:, 0]
        dr_dw = np.array([turn_rhs(*wr)[0] for wr in zip(w.tolist(), r[:, None].tolist())])
        root = np.sqrt(1.0 + w * w)

        def g(t, y):
            return y[:, 0] * t / np.sqrt(1.0 + t * t)

        # du = w dr and ds = sqrt(1+w^2) dr, integrated by parts so that only
        # r itself is integrated and the full order is kept:
        #   u = u1 + [w r] - int r dw,
        #   s = arc1 + [sqrt(1+w^2) r] - int r w / sqrt(1+w^2) dw,
        # the first integral exact, the second (of g) by Gauss-Legendre
        u = u1 + (w * r - w1 * r1) - tr2.integral_at(w, tr2.node_integrals(0.0))
        quad = _quadrature(tr2, g, 0.0, w)
        s = arc1 + (root * r - root[0] * r1) - quad
        zero = np.zeros(1)
        j = int(np.searchsorted(w, 0.0)) - 1  # the bottom w = 0 follows sample j
        s0 = float(arc1 + tr2.resample(zero)[0, 0] - root[0] * r1 - quad[j]
                   - _gauss(tr2, g, w[j:j + 1], zero)[0])
        s1 = s0  # the folded angle attains its minimum at the bottom
        n_pi2 = n_min = 1

        # d theta / ds = sign(w) / ((1+w^2) ds/dw), with ds/dw > 0 at the samples
        dth_ds = np.sign(w) / ((1 + w * w) * root * dr_dw)
        resid = _node_residuals(f, r, w, 1.0 / dr_dw, w)
        theta = math.pi / 2 + np.abs(np.arctan(w))
        columns.append((s, r, u, theta, dth_ds, resid))
        charts["turning"] = tr2.step_counts()

        # ascending convex tail back in the r chart
        tail, u3, s3 = _graph_chart(f, branch, float(r[-1]), float(w[-1]), float(u[-1]),
                                    float(s[-1]), r_max, "lower tail stopped early", stiff=True)
        if np.any(tail.fs[:, 0] <= 0):
            raise StructureError("post-turn tail is not convex")
        add_graph_chart("lower_tail", tail, u3, s3)
        end_behavior.update({"kind": "bowl_type"})

    return _profile("lower", columns, tail, charts), s0, s1, end_behavior, n_pi2, n_min


def check_embeddedness(result: CatenoidResult) -> dict:
    """Minimum vertical separation of the branches over the shared graph range."""
    up, lo = result.upper, result.lower
    if result.case == "continuous_origin":
        # past the bottom both branches are graphs
        i_bottom = int(np.argmin(lo.u))
        r_lo_start = lo.r[i_bottom]
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
    # the neck chart or, next to the bottom, on the turning chart are
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


def upper_window(r_max: float) -> tuple:
    """The upper branch's tail window, on which the C+- offsets and the
    growth exponent are read."""
    return (r_max / UPPER_FIT, 0.9 * r_max)


def solve_catenoid(
    f: CurvatureFunction,
    R: float,
    r_max: float,
    handoff_tan: float = HANDOFF_TAN,
    bowl: Optional[BowlProfile] = None,
) -> CatenoidResult:
    """Full catenoid construction: neck, both branches, offsets, embeddedness."""
    neck = solve_neck(f, R, handoff_tan)
    case, b = classify_case(f)
    r_min = UPPER_FIT * R
    if case == "derivative_origin":
        r_min = max(r_min, LOWER_FIT * neck.down_exit[1])
    if not r_max > r_min:
        raise ParameterError(f"r_max={float(r_max)} lies too close to the neck: "
                             f"the fit windows need r_max > {float(r_min)}")
    upper = solve_upper_branch(f, neck, r_max)
    lower, s0, s1, end_behavior, n_pi2, n_min = solve_lower_branch(f, neck, r_max, case, b)
    result = CatenoidResult(
        R=R,
        curvature_key=f.name,
        upper=upper,
        lower=lower,
        s0=s0,
        s1=s1,
        case=case,
        n_pi2_events=n_pi2,
        n_theta_min_events=n_min,
        end_behavior=end_behavior,
        handoff_tan=handoff_tan,
    )
    if bowl is None:
        bowl = solve_bowl(f, r_max)
    result.charts = {**neck.charts, **upper.charts, **lower.charts,
                     "bowl": bowl.trajectory.step_counts()}
    grid = np.geomspace(*upper_window(r_max), 200)
    ub = bowl.u_at(grid)
    result.C_plus = float(np.mean(upper.u_at(grid) - ub))
    if case == "continuous_origin":
        result.C_minus = float(np.mean(lower.u_at(grid) - ub))
    result.embeddedness = check_embeddedness(result)
    return result


def upper_growth_exponent(result: CatenoidResult, window: Optional[tuple] = None) -> float:
    """Log-log slope of u_+ over the tail window (expected alpha + 1), fitted
    on a geometric grid of the dense height."""
    up = result.upper
    r = _window_grid(up.r, window or upper_window(up.r[-1]))
    u = up.u_at(r)
    if np.any(u <= 0):
        raise ClassificationError("upper height not positive on the window")
    return _loglog_fit(r, u)[0]
