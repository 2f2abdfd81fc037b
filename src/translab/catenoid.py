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

The ascending graph charts (the upper branch, and the lower branch past its
turn) ride the same strongly attracting tail as the bowl.  They take Radau
IIA steps on the slope alone; the height and the arc length are quadratures
of its dense output.  The neck, descending and turning charts are not stiff
and take explicit steps, which are cheaper there.

Angle bookkeeping on the lower branch: the reported angle is

    theta_bar = pi/2 + |arctan(du/dr)|      (graph charts)

which starts near pi at the neck, falls, touches pi/2 exactly at the lowest
point of the branch (recorded as both the pi/2 crossing s0 and the angle
minimum s1), and rises back toward pi along the convex outer end.  The
bottom is detected transversally through the slope-zero crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bowl import BowlProfile, _node_residuals, _slope_scalar, _window_grid, solve_bowl
from .curvature import CurvatureFunction, zero_ray
from .errors import (
    ClassificationError,
    ParameterError,
    StructureError,
    TranslabError,
    UnsupportedError,
)
from .implicit import ImplicitBranch
from .ode import EventSpec, IntegratorConfig, Trajectory, integrate

HANDOFF_TAN = math.tan(math.pi / 8)
# 4-point Gauss-Legendre nodes and weights on [0, 1], for the arc length of
# one step (exact for degree 7; the integrand is smooth on each step)
_GL_IN = math.sqrt(3 / 7 - 2 / 7 * math.sqrt(6 / 5))
_GL_OUT = math.sqrt(3 / 7 + 2 / 7 * math.sqrt(6 / 5))
_ARC_X = 0.5 + 0.5 * np.array([-_GL_OUT, -_GL_IN, _GL_IN, _GL_OUT])
_ARC_W = np.array([18 - 30**0.5, 18 + 30**0.5, 18 + 30**0.5, 18 - 30**0.5]) / 72


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


@dataclass
class Profile:
    side: str  # "upper" | "lower"
    s: np.ndarray
    r: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    kappa: np.ndarray
    residuals: np.ndarray
    # the closing ascending graph chart (Radau IIA steps); its nodes end the
    # arrays above
    tail: Optional[Trajectory] = field(default=None, repr=False)

    def u_at(self, rs) -> np.ndarray:
        """Height at radii on the branch.  On the tail chart it is the node
        height plus the exact integral of the step's collocation polynomial;
        on the explicit charts before the tail, linear interpolation."""
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


def _neck_rhs(f: CurvatureFunction, branch: ImplicitBranch, z_sign: float):
    """Horizontal chart RHS in the marching variable tau.

    Up side (tau = u): state slope p = r_u, curvature argument z = p.
    Down side (tau = -u): p = dr/dtau = -r_u, so z = -p while the second
    derivative is unchanged: d2r/dtau2 = r_uu either way.
    """
    beta = f.beta
    state = {"seed": None}

    def rhs(u, y):
        r, p, _s = y
        one_plus = 1.0 + p * p
        yarg = 1.0 / (r * one_plus**beta)
        z = z_sign * p
        try:
            x = branch.solve_level(yarg, z, seed=state["seed"])
        except TranslabError:
            return (math.nan, math.nan, math.nan)
        state["seed"] = x
        rpp = -(one_plus ** (beta + 1.0)) * x
        return (p, rpp, math.sqrt(one_plus))

    return rhs


def solve_neck(
    f: CurvatureFunction,
    R: float,
    config: Optional[IntegratorConfig] = None,
    handoff_tan: float = HANDOFF_TAN,
) -> NeckSolution:
    """Integrate the neck chart both ways from (r, u) = (R, 0)."""
    if not f.is_signed:
        raise UnsupportedError(f"{f.name} is not signed; no catenoidal neck exists")
    if R <= 0:
        raise ParameterError(f"neck radius must be positive, got {R}")
    cfg = config or IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    branch = ImplicitBranch(f)
    x0, y0 = zero_ray(f)
    kappa_neck = -(x0 / y0) / R
    beta = f.beta
    u_cap = 6.0 * R

    def curvature_zero(u, y):
        # r'' changes sign when the solved x crosses zero
        r, p, _s = y
        yarg = 1.0 / (r * (1 + p * p) ** beta)
        try:
            return branch.solve_level(yarg, p)
        except TranslabError:
            return math.nan

    # up side: slope rises from 0; stop at the handoff tangent or when the
    # profile curvature crosses zero (whichever first)
    ev_up = [
        EventSpec(lambda u, y: y[1] - handoff_tan, "rising", True, "handoff"),
        EventSpec(curvature_zero, "rising", True, "curvature_zero"),
    ]
    tr_up = integrate(_neck_rhs(f, branch, +1.0), 0.0, [R, 0.0, 0.0], u_cap, cfg, ev_up)
    if tr_up.termination != "terminal_event":
        raise StructureError(f"neck chart (up) did not reach a handoff: {tr_up.termination}")
    up_reason = ev_up[tr_up.events[-1][2]].name

    # down side in tau = -u; the graph slope there is r_u = -dr/dtau
    ev_dn = [EventSpec(lambda u, y: y[1] - handoff_tan, "rising", True, "handoff")]
    tr_dn = integrate(_neck_rhs(f, branch, -1.0), 0.0, [R, 0.0, 0.0], u_cap, cfg, ev_dn)
    if tr_dn.termination != "terminal_event":
        raise StructureError(f"neck chart (down) did not reach the handoff: {tr_dn.termination}")

    def exit_tuple(tr, sign):
        u_e = tr.t_final * sign
        r_e, p_e, s_e = tr.ys[-1]
        return (u_e, float(r_e), float(sign * p_e) if sign < 0 else float(p_e), float(s_e))

    # residual of the neck equation at the nodes, in the solved chart: the
    # y-argument is 1/(r (1+p^2)^beta) and the level z = +-p
    res = float(np.max(np.concatenate([
        _node_residuals(f, tr.ys[:, 0], tr.ys[:, 1], -tr.fs[:, 1], 1.0, sign * tr.ys[:, 1])
        for tr, sign in ((tr_up, +1.0), (tr_dn, -1.0))
    ])))
    up_exit = exit_tuple(tr_up, +1.0)
    down_exit = exit_tuple(tr_dn, -1.0)
    up_samples = np.column_stack([tr_up.ts, tr_up.ys[:, 0], tr_up.ys[:, 1], tr_up.ys[:, 2]])
    dn_samples = np.column_stack(
        [-tr_dn.ts, tr_dn.ys[:, 0], -tr_dn.ys[:, 1], tr_dn.ys[:, 2]]
    )
    return NeckSolution(
        R=R,
        curvature_key=f.name,
        kappa_at_neck=kappa_neck,
        up_exit=up_exit,
        down_exit=down_exit,
        up_samples=up_samples,
        down_samples=dn_samples,
        up_exit_reason=up_reason,
        residual_max=res,
    )


def _graph_arrays(f: CurvatureFunction, r, v, vp):
    """Signed curvature and equation residual at graph-chart nodes, from the
    slope v and its stored derivative vp."""
    return vp / (1.0 + v * v) ** 1.5, _node_residuals(f, r, v, vp, v)


def _neck_columns(samples: np.ndarray, theta: np.ndarray, residual: float) -> tuple:
    """Profile columns (s, r, u, theta, kappa, residual) of one side's
    neck-chart samples (columns u, r, r_u, s); kappa = d theta / ds."""
    s = samples[:, 3]
    kappa = np.gradient(theta, s) if len(samples) > 2 else np.zeros(len(samples))
    return (s, samples[:, 1], samples[:, 0], theta, kappa, np.full(len(samples), residual))


def _profile(side: str, columns: list, tail: Optional[Trajectory]) -> Profile:
    """A branch profile from its charts' columns, in order along the branch."""
    return Profile(side, *(np.concatenate(col) for col in zip(*columns)), tail=tail)


def _ascending_chart(f, branch, r0, v0, u0, s0, r_max, cfg, what):
    """Ascending graph chart from (r0, v0) to r_max on Radau IIA steps.

    The slope is the only state; the height u and the arc length s never
    feed back, so they are quadratures of the dense slope: u exactly, as
    the integral of each step's collocation cubic, s by Gauss-Legendre
    on sqrt(1 + v^2).  Returns (trajectory, u, s) at the nodes.
    """
    rhs, jac = _slope_scalar(f, branch, None)
    traj = integrate(rhs, r0, [v0], r_max, cfg, jac=jac)
    if traj.termination != "reached_end":
        raise StructureError(f"{what} stopped early: {traj.termination} at r={traj.t_final}")
    t0 = traj.ts[:-1]
    h = np.diff(traj.ts)
    v = traj.resample((t0[:, None] + h[:, None] * _ARC_X).ravel())[:, 0]
    ds = h * (np.sqrt(1.0 + v * v).reshape(len(h), -1) @ _ARC_W)
    s = np.cumsum(np.concatenate([[s0], ds]))
    return traj, traj.node_integrals(u0), s


def solve_upper_branch(
    f: CurvatureFunction,
    neck: NeckSolution,
    r_max: float,
    config: Optional[IntegratorConfig] = None,
) -> Profile:
    """Continue the ascending branch from the neck chart exit to r_max."""
    cfg = config or IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    branch = ImplicitBranch(f)
    u_h, r_h, ru_h, s_h = neck.up_exit
    if r_h >= r_max:
        raise ParameterError(f"r_max={r_max} does not extend past the neck chart (r={r_h})")
    traj, u, s = _ascending_chart(f, branch, r_h, 1.0 / ru_h, u_h, s_h, r_max, cfg,
                                  "upper branch")
    r, v = traj.ts, traj.ys[:, 0]
    theta = np.arctan(v)
    kappa, resid = _graph_arrays(f, r, v, traj.fs[:, 0])
    if np.any(theta <= 0) or np.any(theta >= math.pi / 2):
        raise StructureError("upper branch tangent angle left (0, pi/2)")
    nu = neck.up_samples  # theta = pi/2 - arctan(r_u) on the neck chart
    neck_cols = _neck_columns(nu, math.pi / 2 - np.arctan(nu[:, 2]), neck.residual_max)
    return _profile("upper", [neck_cols, (s, r, u, theta, kappa, resid)], traj)


def classify_case(f: CurvatureFunction, branch: ImplicitBranch) -> str:
    """Lower-end dichotomy from the origin behavior of the slice function."""
    meta = f.signed_meta
    if meta is not None and meta.origin_value == "continuous_zero":
        return "continuous_origin"
    # derivative case requires g_-(0,-1) = 0 with finite negative slope
    try:
        lim = branch.g_minus_limit_at_zero()
        if math.isfinite(lim) and abs(lim) < 1e-3:
            slope = branch.dg_minus_dy_at_zero()
            if slope < 0:
                return "derivative_origin"
    except TranslabError:
        pass
    if meta is not None and meta.origin_value == "undefined":
        raise ClassificationError(
            f"{f.name}: origin not continuous and g_-(0,-1) data inconclusive"
        )
    return "continuous_origin"


def solve_lower_branch(
    f: CurvatureFunction,
    neck: NeckSolution,
    r_max: float,
    config: Optional[IntegratorConfig] = None,
) -> tuple:
    """Descend from the neck; returns (Profile, s0, s1, case, end_behavior).

    Case "continuous_origin": the branch bottoms out at finite radius
    (slope-zero crossing, arc length s0 = s1) and continues as a convex
    ascending graph to r_max.  Case "derivative_origin": the branch
    descends and flattens forever; the end slope is fitted to -a r^b.
    """
    cfg = config or IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    branch = ImplicitBranch(f)
    case = classify_case(f, branch)
    u_h, r_h, ru_h, s_h = neck.down_exit
    if r_h >= r_max:
        raise ParameterError(f"r_max={r_max} does not extend past the neck chart (r={r_h})")
    w_h = 1.0 / ru_h  # negative: the branch descends
    slope, _ = _slope_scalar(f, branch, None)

    def rhs(r, y):
        # descending chart, state (v, u, s)
        v = y[0]
        return (slope(r, y)[0], v, math.sqrt(1.0 + v * v))

    # profile columns (s, r, u, theta, kappa, residual), one entry per chart,
    # the neck chart samples first
    nd = neck.down_samples
    columns = [_neck_columns(nd, math.pi - np.abs(np.arctan(nd[:, 2])), neck.residual_max)]

    def add_graph_chart(r, w, wp, u, s):
        kappa, resid = _graph_arrays(f, r, w, wp)
        theta = math.pi / 2 + np.abs(np.arctan(w))
        columns.append((s, r, u, theta, np.sign(w) * np.abs(kappa), resid))

    s0 = s1 = None
    n_pi2 = n_min = 0
    tail = None
    end_behavior = {"case": case}

    if case == "derivative_origin":
        traj = integrate(rhs, r_h, [w_h, u_h, s_h], r_max, cfg)
        if traj.termination != "reached_end":
            raise StructureError(
                f"lower branch stopped early: {traj.termination} at r={traj.t_final}"
            )
        if traj.ys[-1, 0] >= 0:
            raise StructureError("derivative_origin branch unexpectedly turned upward")
        add_graph_chart(traj.ts, traj.ys[:, 0], traj.fs[:, 0], traj.ys[:, 1], traj.ys[:, 2])
        b_formula = branch.dg_minus_dy_at_zero()
        r_t = traj.ts
        w_t = traj.ys[:, 0]
        mask = r_t >= max(r_h * 2.0, r_max / 10.0)
        L = np.log(r_t[mask])
        W = np.log(-w_t[mask])
        X = np.vstack([L, np.ones_like(L)]).T
        coef, *_ = np.linalg.lstsq(X, W, rcond=None)
        b_hat = float(coef[0])
        is_log = abs(b_formula + 1.0) < 1e-9
        # amplitude with the formula exponent pinned
        a_R = float(math.exp(np.mean(W - b_formula * L)))
        theta_p_end = abs(traj.fs[-1][0]) / (1 + w_t[-1] ** 2) ** 1.5
        end_behavior.update(
            {
                "kind": "logarithmic" if is_log else "power_law",
                "b": b_formula,
                "b_fitted": b_hat,
                "exponent_u": b_formula + 1.0,
                "a_R": a_R,
                "theta_prime_end": float(theta_p_end),
            }
        )
    else:
        # descend in r until the slope flattens to the chart-switch angle
        ev = [EventSpec(lambda r, y: y[0] + HANDOFF_TAN, "rising", True, "turn_enter")]
        tr1 = integrate(rhs, r_h, [w_h, u_h, s_h], r_max, cfg, ev)
        if tr1.termination != "terminal_event":
            raise StructureError(
                f"continuous_origin branch never flattened: {tr1.termination}"
            )
        add_graph_chart(tr1.ts, tr1.ys[:, 0], tr1.fs[:, 0], tr1.ys[:, 1], tr1.ys[:, 2])
        r1, (w1, u1, arc1) = tr1.t_final, tr1.ys[-1]

        # turning chart: slope w is the independent variable, state (r, u, s);
        # dr/dw = 1/F, which stays finite where the profile curvature blows up
        def turn_rhs(w, y):
            (F,) = slope(y[0], (w,))
            drdw = 1.0 / F if F > 0 else math.nan
            return (drdw, w * drdw, math.sqrt(1.0 + w * w) * drdw)

        ev_bottom = [EventSpec(lambda w, y: w, "rising", False, "bottom")]
        tr2 = integrate(turn_rhs, w1, [r1, u1, arc1], HANDOFF_TAN, cfg, ev_bottom)
        if tr2.termination != "reached_end" or not tr2.events:
            raise StructureError(f"turning chart failed: {tr2.termination}")
        w_ev, y_ev, _ = tr2.events[0]
        s0 = float(y_ev[2])
        s1 = s0  # the folded angle attains its minimum at the bottom
        n_pi2 = n_min = 1
        w_end, (r2, u2, arc2) = tr2.t_final, tr2.ys[-1]

        w = tr2.ts
        r = tr2.ys[:, 0]
        # d theta / ds = sign(w) / ((1+w^2) ds/dw), with ds/dw > 0 at the nodes
        dth_ds = np.sign(w) / ((1 + w * w) * tr2.fs[:, 2])
        resid = _node_residuals(f, r, w, 1.0 / tr2.fs[:, 0], w)
        theta = math.pi / 2 + np.abs(np.arctan(w))
        columns.append((tr2.ys[:, 2], r, tr2.ys[:, 1], theta, dth_ds, resid))

        # ascending convex tail back in the r chart
        tail, u3, s3 = _ascending_chart(f, branch, float(r2), float(w_end), float(u2),
                                        float(arc2), r_max, cfg, "lower tail")
        if np.any(tail.fs[:, 0] <= 0):
            raise StructureError("post-turn tail is not convex")
        add_graph_chart(tail.ts, tail.ys[:, 0], tail.fs[:, 0], u3, s3)
        end_behavior.update({"kind": "bowl_type"})

    return _profile("lower", columns, tail), s0, s1, case, end_behavior, n_pi2, n_min


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
    # (the tail heights are exact quadratures; the few points next to the
    # bottom that fall on the explicit turning chart are interpolated
    # linearly between its nodes); test the trend against a noise floor
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
    config: Optional[IntegratorConfig] = None,
    handoff_tan: float = HANDOFF_TAN,
    bowl: Optional[BowlProfile] = None,
    fit_window: Optional[tuple] = None,
) -> CatenoidResult:
    """Full catenoid construction: neck, both branches, offsets, embeddedness."""
    neck = solve_neck(f, R, config, handoff_tan)
    upper = solve_upper_branch(f, neck, r_max, config)
    lower, s0, s1, case, end_behavior, n_pi2, n_min = solve_lower_branch(
        f, neck, r_max, config
    )
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
    window = fit_window or (r_max / 3.0, 0.9 * r_max)
    if bowl is None:
        bowl = solve_bowl(f, r_max, config)
    grid = np.geomspace(window[0], window[1], 200)
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
    r_hi = up.r[-1]
    r = _window_grid(up.r, window or (r_hi / 3.0, 0.9 * r_hi))
    u = up.u_at(r)
    if np.any(u <= 0):
        raise ClassificationError("upper height not positive on the window")
    X = np.vstack([np.log(r), np.ones_like(r)]).T
    coef, *_ = np.linalg.lstsq(X, np.log(u), rcond=None)
    return float(coef[0])
