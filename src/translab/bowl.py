"""Bowl-type translator profiles and their asymptotics.

The slope v = u'(r) of a rotationally symmetric graphical translator obeys

    v' = (1 + v^2)^(beta+1) * g_+( v / (r (1+v^2)^beta), 1 ),
    beta = (alpha - 1) / (2 alpha),

integrated here from the axis series v = lambda0 r + c3 r^3 + c5 r^5 at
AXIS_EPS, where lambda0 = gamma(1,...,1)^(-1/alpha) is the umbilic curvature
forced by the translator equation at r = 0 (c3 and c5: ``axis_series``).  The
slope is strongly attracting from the axis on (|dF/dv| ~ 2-5 / r there), so
every step is Radau IIA with the analytic dF/dv; the height u is the exact
integral of the series and of the dense slope output.

Closed-form asymptotic coefficients (the nondegenerate pair (a, b) from the
partials of gamma at the cylinder, the degenerate quadruple (k, c, d, A) from
the Laurent pair) are checked against tail fits of the computed profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .curvature import CurvatureFunction
from .errors import (ConvergenceError, DomainError, FitError, ParameterError, StructureError,
                     TranslabError)
from .ode import IntegratorConfig, Trajectory, integrate

# the start of the axis series (``CurvatureFunction.axis_series``), O(r^6)
# relative: 1.1e-15 off a rel_tol 1e-14 run from r 1e-6 on fifteen families
AXIS_EPS = 1e-3
# the tolerance of every profile chart, bowl and catenoid: the implicit step
# is tolerance-limited on the stiff tail, where this costs 70-140 steps and
# keeps the quasi-steady slope drift below the tail-fit resolution
PROFILE_CONFIG = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
# tail fits sample the dense output on this many geometric points
FIT_SAMPLES = 200


@dataclass
class BowlProfile:
    curvature: CurvatureFunction = field(repr=False)
    r: np.ndarray
    u: np.ndarray
    v: np.ndarray
    residuals: np.ndarray
    trajectory: Trajectory = field(repr=False, default=None)

    @property
    def r_max(self) -> float:
        return float(self.r[-1])

    def v_at(self, rs) -> np.ndarray:
        return self.trajectory.resample(np.asarray(rs, dtype=float))[:, 0]

    def u_at(self, rs) -> np.ndarray:
        """Height at radii inside the profile: the node height plus the
        exact integral of the step's collocation polynomial."""
        return self.trajectory.integral_at(np.asarray(rs, dtype=float), self.u)


@dataclass
class AsymptoticReport:
    regime: str  # "nondegenerate" | "degenerate"
    formula: dict
    fitted: dict
    rel_errors: dict
    fit_window: tuple


def _slope_field(f: CurvatureFunction, clamp_y: Optional[float]):
    """The slope equation v' = F(r, v) and its derivative dF/dv.

    Returns two maps of (r, v): ``value`` gives F, ``derivative`` gives

        dF/dv = 2 (beta+1) v (1+v^2)^beta x
                + (-gamma_y/gamma_x) (1 + v^2 - 2 beta v^2) / r,

    with x the closed-form root ``solve_x``; the second term drops where the
    y-argument is held at clamp_y.  Both give NaN where that has no root.
    ``value`` takes an ndarray of v (F on a float is ``_slope_scalar``'s
    RHS); on a float v ``derivative`` raises OverflowError where a power
    overflows, ZeroDivisionError where gamma_x vanishes and DomainError
    where ``grad`` does.  On an ndarray of v, with r broadcasting against
    it, both give NaN there instead: the broadcasting RHS and diagonal
    Jacobian of uncoupled copies of the equation, one per component of a
    batched state, each element computed on its own, under the caller's
    numpy error state: a batched run sets it once (``compare_orderings``
    ignores every floating-point error for its run).
    """
    beta = f.beta
    beta1 = beta + 1.0

    def value(r, v):
        one_plus = 1.0 + v * v
        yarg = v / (r * one_plus**beta)
        if clamp_y is not None:
            yarg = np.minimum(yarg, clamp_y)
        return one_plus**beta1 * f.solve_x(yarg, 1.0)

    def derivative(r, v):
        one_plus = 1.0 + v * v
        yarg = v / (r * one_plus**beta)
        if not isinstance(yarg, float):  # an ndarray (the cheaper test on floats)
            held = clamp_y is not None and yarg >= clamp_y
            if clamp_y is not None:
                yarg = np.minimum(yarg, clamp_y)
            x = f.solve_x(yarg, 1.0)
            gx, gy = f.grad(x, yarg)
            d = 2.0 * beta1 * v * one_plus**beta * x - np.where(
                held, 0.0, gy / gx * (one_plus - 2.0 * beta * v * v) / r)
            return np.where(np.isinf(d), math.nan, d)  # a zero gamma_x raises on floats
        clamped = clamp_y is not None and yarg >= clamp_y
        if clamped:
            yarg = clamp_y
        x = f.solve_x(yarg, 1.0)
        d = 2.0 * beta1 * v * one_plus**beta * x
        if not clamped:
            gx, gy = f.grad(x, yarg)
            d -= gy / gx * (one_plus - 2.0 * beta * v * v) / r
        return d

    return value, derivative


def _slope_scalar(f: CurvatureFunction, clamp_y: Optional[float]):
    """RHS and Jacobian of the slope equation as one-component maps for
    ``integrate``.  The RHS is F written out in one frame on the family's
    ``_inverse``, its root kept as ``solve_float`` keeps it; a missing root,
    or an overflow at a huge v, gives NaN: a domain exit.  The catenoid graph
    charts build their RHS on this one.
    """
    _, derivative = _slope_field(f, clamp_y)
    beta = f.beta
    beta1 = beta + 1.0
    inverse, level = f._inverse, f.normalization

    def rhs(r, vs):
        v = vs[0]
        one_plus = 1.0 + v * v
        try:
            yarg = v / (r * one_plus**beta)
            if clamp_y is not None and yarg >= clamp_y:
                yarg = clamp_y
            x, ok = inverse(yarg, level)
            # ``solve_float``'s selection: no root and an infinite one give NaN
            return (one_plus**beta1 * x,) if ok and not math.isinf(x) else (math.nan,)
        except (ZeroDivisionError, OverflowError):
            return (math.nan,)

    def jac(r, vs):
        try:
            return (derivative(r, vs[0]),)
        except (DomainError, ZeroDivisionError, OverflowError):  # see ``_slope_field``
            return (math.nan,)

    return rhs, jac


def _node_residuals(f: CurvatureFunction, r, q, x_num, y_num, z=1.0,
                    clamp_y: Optional[float] = None) -> np.ndarray:
    """Residual |gamma(x, y) - z| of the translator equation at the nodes of
    a chart with slope variable q, where

        x = x_num / (1+q^2)^(beta+1),    y = y_num / (r (1+q^2)^beta)

    (y held at clamp_y past it): x is the root that the stored derivative
    implies, so this re-checks the root solve.  The arguments broadcast
    against r; NaN where gamma is undefined.  Each node is evaluated in
    scalar arithmetic, as the RHS is: numpy's array power may round
    differently from the scalar one.
    """
    beta = f.beta
    out = np.empty(len(r))
    for i, (ri, qi, xn, yn, zi) in enumerate(zip(*np.broadcast_arrays(r, q, x_num, y_num, z))):
        one_plus = 1.0 + qi**2
        y = yn / (ri * one_plus**beta)
        if clamp_y is not None:
            y = min(y, clamp_y)
        try:
            out[i] = abs(f.value(xn / one_plus ** (beta + 1.0), y) - zi)
        except TranslabError:
            out[i] = math.nan
    return out


def solve_bowl(f: CurvatureFunction, r_max: float, r0: float = AXIS_EPS) -> BowlProfile:
    """Integrate the bowl slope ODE from the axis series at r0 out to r_max."""
    if r_max <= 10 * r0:
        raise ParameterError(f"r_max={r_max} too small")
    a = f.alpha_float
    if a <= 1.0 / 3.0:
        raise ParameterError(f"bowl solver requires alpha > 1/3, got {a}")
    # right endpoint of U+: the y-argument may only touch y = 1 (cylinder)
    clamp = None if f.is_one_degenerate else 1.0
    rhs, jac = _slope_scalar(f, clamp)
    lam, (c3, c5), s = f.lambda0, f.axis_series, r0 * r0
    traj = integrate(rhs, r0, [r0 * (lam + s * (c3 + s * c5))], r_max, PROFILE_CONFIG, jac=jac)
    if traj.termination != "reached_end":
        raise StructureError(f"bowl integration failed: {traj.termination} at r={traj.t_final}")

    r = traj.ts
    v = traj.ys[:, 0]
    # u(r0) is the exact integral of the series on [0, r0]; each step adds
    # the exact integral of its collocation polynomial
    u = traj.node_integrals(s * (lam / 2 + s * (c3 / 4 + s * c5 / 6)))
    return BowlProfile(curvature=f, r=r, u=u, v=v, trajectory=traj,
                       residuals=_node_residuals(f, r, v, traj.fs[:, 0], v, clamp_y=clamp))


# ---------------------------------------------------------------------------
# formula-side coefficients
# ---------------------------------------------------------------------------


def coeffs_nondegenerate(f: CurvatureFunction) -> tuple:
    """Closed-form expansion coefficients (a, b) of v = r^a - a/r^a + b/r^3a."""
    if f.is_one_degenerate:
        raise ParameterError(f"{f.name} is 1-degenerate; use coeffs_degenerate")
    alpha = f.alpha_float
    if alpha <= 1.0 / 3.0:
        raise ParameterError("expansion requires alpha > 1/3")
    beta = f.beta
    # g' and g'' of x = g(y, 1) at the cylinder y = 1: differentiate gamma(g, y) = 1
    x = f.solve_float(1.0, 1.0)
    if not math.isfinite(x):
        raise ConvergenceError(f"{f.name}: no root of gamma = 1.0 at y=1.0")
    gx, gy = f.grad(x, 1.0)
    if gx <= 0:
        raise DomainError(f"{f.name}: gamma_x <= 0 at solved point ({x}, 1.0)")
    g1 = -gy / gx
    gxx, gxy, gyy = f.second_partials(x, 1.0)
    g2 = -(gyy + 2.0 * gxy * g1 + gxx * g1 * g1) / gx
    if g1 == 0:
        raise DomainError("dg/dy(1,1) vanishes; coefficient formulas degenerate")
    a = -alpha * (alpha / g1 + beta)
    b = (
        2 * a * alpha**2
        - g1 * ((1 - 2 * a) * beta * (1 + beta * (1 - 2 * a)) - 2 * a**2 * beta)
        + g1 * (a / alpha + beta) * (3 * alpha - 1) * (1 - 2 * a)
        - alpha * g2 * (a / alpha + beta) ** 2
    ) / (2 * alpha * g1 * (1 - 2 * beta))
    return a, b


def coeffs_degenerate(f: CurvatureFunction) -> tuple:
    """(k_gamma, c_gamma, d_gamma, A_gamma) of the degenerate tail w = A r^d."""
    if not f.is_one_degenerate:
        raise ParameterError(f"{f.name} is 1-nondegenerate; use coeffs_nondegenerate")
    alpha = f.alpha_float
    k_g, c_g = f.laurent
    if k_g < 3 * f.alpha - 1:
        raise ParameterError(
            f"tail exponent k={k_g} below 3*alpha-1={3*alpha-1}; expansion hypothesis fails"
        )
    boundary = k_g == 3 * f.alpha - 1
    d_g = alpha * (k_g + 1) / (k_g - 2 * alpha + 1)
    A_g = (d_g / c_g) ** (alpha / (2 * alpha - 1 - k_g))
    return k_g, c_g, d_g, A_g, boundary


# ---------------------------------------------------------------------------
# tail fits
# ---------------------------------------------------------------------------


def _window_grid(r: np.ndarray, window: tuple) -> np.ndarray:
    """Geometric sample grid of a fit window inside the node span r."""
    r_lo, r_hi = window
    r_max = float(r[-1])
    if not r_lo < r_hi:
        raise FitError(f"bad window {window}")
    if r_hi > r_max * (1 + 1e-9):
        raise FitError(f"window {window} beyond computed profile r_max={r_max}")
    if r_lo < r[0]:
        raise FitError(f"window {window} starts below the profile start r={r[0]}")
    return np.geomspace(r_lo, min(r_hi, r_max), FIT_SAMPLES)


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> tuple:
    """Least-squares line log y = slope log x + intercept: (slope, intercept)."""
    L = np.log(x)
    coef, *_ = np.linalg.lstsq(np.vstack([L, np.ones_like(L)]).T, np.log(y), rcond=None)
    return float(coef[0]), float(coef[1])


def default_window(profile: BowlProfile) -> tuple:
    return (profile.r_max / 10.0, profile.r_max / 2.0)


def fit_tail(profile: BowlProfile, window: Optional[tuple] = None) -> AsymptoticReport:
    """Fit tail coefficients from the profile and compare with the formulas
    of the family's regime."""
    f = profile.curvature
    regime = "degenerate" if f.is_one_degenerate else "nondegenerate"
    window = window or default_window(profile)
    r = _window_grid(profile.r, window)
    v = profile.v_at(r)
    al = f.alpha_float

    if regime == "nondegenerate":
        a_f, b_f = coeffs_nondegenerate(f)
        # r^a (r^a - v) = a - b r^(-2a) + O(r^(-4a)); the third regressor
        # absorbs the remainder so it does not bias b.  Rows are weighted by
        # 1/r^a: the noise of the left side scales like r^a * (v error).
        tvals = r**al * (r**al - v)
        X = np.vstack([np.ones_like(r), -(r ** (-2 * al)), r ** (-4 * al)]).T
        w = r ** (-al)
        coef, *_ = np.linalg.lstsq(X * w[:, None], tvals * w, rcond=None)
        a_hat, b_hat = float(coef[0]), float(coef[1])
        formula = {"a": a_f, "b": b_f}
        fitted = {"a": a_hat, "b": b_hat}
        rel = {
            "a": abs(a_hat - a_f) / max(abs(a_f), 1e-30),
            "b": abs(b_hat - b_f) / max(abs(b_f), 1e-2),  # absolute near b = 0
        }
    else:
        k_g, c_g, d_g, A_g, boundary = coeffs_degenerate(f)
        if np.any(v <= 0):
            raise FitError("slope not positive on the window")
        d_hat, log_A = _loglog_fit(r, v)
        A_hat = math.exp(log_A)
        formula = {"k_gamma": k_g, "c_gamma": c_g, "d_gamma": d_g, "A_gamma": A_g,
                   "k_at_boundary": boundary}
        fitted = {"d_gamma": d_hat, "A_gamma": A_hat}
        rel = {
            "d_gamma": abs(d_hat - d_g) / abs(d_g),
            "A_gamma": abs(A_hat - A_g) / abs(A_g),
        }
    if not all(math.isfinite(x) for x in rel.values()):
        raise FitError("fit produced non-finite errors")
    return AsymptoticReport(
        regime=regime, formula=formula, fitted=fitted, rel_errors=rel, fit_window=window
    )


def growth_exponent(profile: BowlProfile, window: Optional[tuple] = None) -> float:
    """Log-log slope of the height u over the fit window."""
    window = window or default_window(profile)
    r = _window_grid(profile.r, window)
    u = profile.u_at(r)
    if np.any(u <= 0) or np.any(np.diff(u) <= 0):
        raise FitError("height not positive and increasing on the window")
    return _loglog_fit(r, u)[0]
