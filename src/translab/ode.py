"""Adaptive Runge-Kutta integration with dense output and stop conditions.

Two fixed steppers share one integration loop (stop location, node storage):

* a Dormand-Prince 5(4) explicit pair with quartic dense output and a PI
  controller, used by default;
* 3-stage Radau IIA (order 5, stiffly accurate, L-stable) with simplified
  Newton iterations and its cubic collocation polynomial as dense output,
  used when the caller supplies ``jac``, the diagonal of d rhs / dy of a
  system whose components are uncoupled.  The stage "solves" are then
  divisions, one real and one complex per component and iteration.

The explicit pair is stability-limited on the strongly attracting slope
tails; the implicit step is limited by the tolerance alone there, so the
bowl profiles, the comparison runs and the ascending catenoid graph charts
take it.  The catenoid neck, descending and turning charts are not stiff
and step explicitly, where a step costs a fraction of an implicit one.
Either step keeps its dense output as y0 + sum_k Q_k s^(k+1) (``_Segment``),
which ``Trajectory`` evaluates and integrates exactly as arrays, so heights
are quadratures of the slope, never extra state.
Reproducibility matters more here than solver variety, so the tableaux,
the dense-output polynomials and the controllers are all spelled out
below; identical inputs produce bit-identical trajectories.

The explicit steps and the implicit steps of a single component work on
plain Python floats (tuples), an order of magnitude faster than ndarray
arithmetic at the sizes of the charts (one or two components).  Implicit
steps of more than one component, the batched comparison runs, work on
ndarrays: one RHS call evaluates the three stages of every component.
Trajectories are packed into numpy arrays on exit.

References
----------
Dormand & Prince (1980), J. Comp. Appl. Math. 6(1), 19-26.
Shampine (1986), Math. Comp. 46, 135-150 (dense output polynomial).
Hairer & Wanner (1996), Solving Ordinary Differential Equations II,
Sec. IV.8 (Radau IIA, simplified Newton, step-size prediction).
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ParameterError

# Butcher tableau of the DOPRI 5(4) pair; the last row of _A holds the
# 5th-order solution weights
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# difference between the 5th and 4th order weights, for the error estimate
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# dense-output polynomial: y(t0+s*h) = y0 + h*s*sum_i K_i * P_i(s)
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
_PT = tuple(zip(*_P))  # per power of s, the weights of the 7 stages

# Radau IIA, 3 stages: nodes, error-estimate weights, the eigenvalues of the
# inverse coefficient matrix (one real, one complex pair), the eigenvector
# basis _RT with its inverse _RTI, and the collocation polynomial
# y(t0+s*h) = y0 + sum_k Q_k s^(k+1) with Q = Z^T _RP
_S6 = 6**0.5
_RC = ((4 - _S6) / 10, (4 + _S6) / 10, 1.0)
_RE = ((-13 - 7 * _S6) / 3, (-13 + 7 * _S6) / 3, -1 / 3)
_MU_REAL = 3 + 3 ** (2 / 3) - 3 ** (1 / 3)
_MU_COMPLEX = 3 + 0.5 * (3 ** (1 / 3) - 3 ** (2 / 3)) - 0.5j * (3 ** (5 / 6) + 3 ** (7 / 6))
_RT = (
    (0.09443876248897524, -0.1412552950209542, 0.03002919410514742),
    (0.2502131229653333, 0.20412935229379994, -0.3829421127572619),
    (1.0, 1.0, 0.0),
)
_RTI = (
    (4.178718591551904, 0.32768282076106237, 0.5233764454994495),
    (-4.178718591551904, -0.32768282076106237, 0.47662355450055044),
    (0.5028726349457868, -2.571926949855605, 0.5960392048282249),
)
_RP = (
    (13 / 3 + 7 * _S6 / 3, -23 / 3 - 22 * _S6 / 3, 10 / 3 + 5 * _S6),
    (13 / 3 - 7 * _S6 / 3, -23 / 3 + 22 * _S6 / 3, 10 / 3 - 5 * _S6),
    (1 / 3, -8 / 3, 10 / 3),
)
_NEWTON_MAXITER = 6
_NEWTON_TOL_FLOOR = 10 * sys.float_info.epsilon
# a step below this length ends the run with 'step_underflow'
_MIN_STEP = 1e-14
# a stop fires once its function clears this band past zero, which filters
# tangential grazes at interpolation-noise level; the crossing is then
# bisected to this time tolerance
_GRAZE = 1e-10
_STOP_TOL = 1e-12


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ParameterError("tolerances must be positive")


def _poly(q, s):
    """q[0] + s (q[1] + s (... + s q[-1])) by Horner, for coefficient
    sequences of floats or of arrays."""
    acc = q[-1]
    for c in q[-2::-1]:
        acc = c + s * acc
    return acc


def _poly_integral(q, s):
    """(1/s) * integral over [0, s] of sum_k q[k-1] sigma^k d sigma, by the
    Horner nesting of ``_poly`` with q[k-1] / (k+1)."""
    acc = s * q[-1] / (len(q) + 1)
    for k in range(len(q) - 1, 0, -1):
        acc = s * (q[k - 1] / (k + 1) + acc)
    return acc


class _Segment:
    """One accepted step with its dense output y(t0 + s h) = y0 + sum_k
    Q_k s^(k+1): per component 3 coefficients on Radau IIA steps (the
    collocation cubic), 4 on DOPRI steps (the quartic)."""

    __slots__ = ("t0", "h", "y0", "Q")

    def __init__(self, t0, h, y0, Q):
        self.t0 = t0
        self.h = h
        self.y0 = y0  # tuple, or an ndarray on the batched core
        self.Q = Q  # per component, the coefficients of s, s^2, ...

    def eval(self, t):
        s = (t - self.t0) / self.h
        return tuple(y0 + s * _poly(q, s) for y0, q in zip(self.y0, self.Q))

    def integral(self, t):
        """Exact integral of the step polynomial from t0 to t."""
        s = (t - self.t0) / self.h
        return tuple(self.h * s * (y0 + _poly_integral(q, s)) for y0, q in zip(self.y0, self.Q))


@dataclass
class Trajectory:
    ts: np.ndarray
    ys: np.ndarray  # (n_nodes, dim)
    fs: np.ndarray  # stored RHS at nodes
    # reached_end | terminal_event | step_underflow | domain_exit | max_steps
    termination: str
    # index of the stop that ended the run ('terminal_event'), else None
    stop: Optional[int] = None
    # accepted steps with their dense output
    segments: list = field(default_factory=list, repr=False)

    @property
    def t_final(self) -> float:
        return float(self.ts[-1])

    def segment_index(self, grid: np.ndarray) -> np.ndarray:
        """Index of the accepted step covering each point of a grid inside
        the time span; node i starts step i."""
        if grid.size and (grid.min() < self.ts[0] - 1e-12 or grid.max() > self.ts[-1] + 1e-12):
            raise ParameterError(
                f"grid [{grid.min()}, {grid.max()}] outside span [{self.ts[0]}, {self.ts[-1]}]"
            )
        t0, h = self._polys[:2]
        return np.minimum(np.searchsorted(t0 + h, grid, side="left"), len(self.segments) - 1)

    @cached_property
    def _polys(self) -> tuple:
        """t0, h (n,), y0 (n, dim) and Q (m, n, dim) of the steps, to evaluate
        their polynomials as arrays; the operations are those of
        ``_Segment``, in the same order."""
        segs = self.segments
        return (
            np.array([seg.t0 for seg in segs]),
            np.array([seg.h for seg in segs]),
            np.array([seg.y0 for seg in segs]),
            np.moveaxis(np.array([seg.Q for seg in segs]), -1, 0),
        )

    def _first_integral(self, idx: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Integral of the first component over step idx from its start to t."""
        t0, h, y0, Q = self._polys
        h = h[idx]
        s = (t - t0[idx]) / h
        return h * s * (y0[idx, 0] + _poly_integral(Q[:, idx, 0], s))

    def node_integrals(self, start: float) -> np.ndarray:
        """start plus the integral of the first component from ts[0] to each
        node: the exact integrals of the step polynomials."""
        steps = np.arange(len(self.segments))
        return np.cumsum(np.concatenate(([start], self._first_integral(steps, self.ts[1:]))))

    def integral_at(self, grid: np.ndarray, at_nodes: np.ndarray) -> np.ndarray:
        """Integral of the first component at points of a grid inside the
        span, given its values at the nodes (see ``node_integrals``)."""
        idx = self.segment_index(grid)
        return at_nodes[idx] + self._first_integral(idx, grid)

    def resample(self, grid: Sequence[float]) -> np.ndarray:
        """Dense-output states on a grid inside the time span."""
        grid = np.asarray(grid, dtype=float)
        idx = self.segment_index(grid)
        t0, h, y0, Q = self._polys
        s = ((grid - t0[idx]) / h[idx])[:, None]
        out = y0[idx] + s * _poly(Q[:, idx], s)
        out[grid <= self.ts[0]] = self.ys[0]
        return out


def integrate(
    rhs: Callable[[float, Sequence[float]], Sequence[float]],
    t0: float,
    state0: Sequence[float],
    t_end: float,
    config: Optional[IntegratorConfig] = None,
    stops: Sequence[Callable[[float, Sequence[float]], float]] = (),
    jac: Optional[Callable[[float, Sequence[float]], Sequence[float]]] = None,
) -> Trajectory:
    """Integrate rhs from t0 to t_end (> t0) with adaptive steps.

    Without ``jac`` the steps are explicit DOPRI 5(4).  With ``jac``, which
    must return the diagonal of d rhs / dy for a system whose component i
    depends on y[i] alone, the steps are implicit Radau IIA: stable on
    stiff, strongly attracting components at any step size.  Components
    integrated together share one step sequence, so the difference of two
    solutions is the difference of one discrete flow.

    With ``jac`` and more than one component the state is an ndarray and
    ``rhs`` must broadcast: it is called with a scalar t and a (dim,) state,
    or, once per Newton iteration for all three stages, with a (3, 1)
    column of times and a (3, dim) state, and returns an array of the
    state's shape whose entry [k, i] depends on t[k] and y[k, i] alone.
    ``jac`` is called with a scalar t and a (dim,) state.  Otherwise states
    are tuples of floats.

    Every accepted step keeps its dense-output polynomial (see ``_Segment``)
    in ``Trajectory.segments``.  Each of the ``stops`` is a function g(t, y);
    the run ends, with termination 'terminal_event', at the first rising
    zero crossing of any of them that clears the graze band, located on the
    dense output by bisection; ``Trajectory.stop`` is the index of the one
    that fired.
    Non-finite RHS values end the trajectory with termination 'domain_exit',
    a step-size underflow with 'step_underflow', and running out of
    ``max_steps`` step attempts with 'max_steps'.
    """
    cfg = config or IntegratorConfig()
    if t_end <= t0:
        raise ParameterError(f"t_end must exceed t0, got {t0} -> {t_end}")
    batched = jac is not None and len(state0) > 1
    y = np.array(state0, dtype=float) if batched else tuple(float(v) for v in state0)
    t = float(t0)
    f = tuple(float(v) for v in rhs(t, y))
    if not all(math.isfinite(v) for v in f):
        raise ParameterError("rhs not finite at the initial state")

    ts = [t]
    ys = [y]
    fs = [f]
    segments = []
    stop = None
    g_prev = [g(t, y) for g in stops]

    if jac is None:
        steps = _dopri_steps(rhs, t, y, f, t_end, cfg)
    elif batched:
        steps = _radau_array_steps(rhs, jac, t, y, f, t_end, cfg)
    else:
        steps = _radau_steps(rhs, jac, t, y, f, t_end, cfg)
    while True:
        try:
            seg, t_new, y_new, f_new = next(steps)
        except StopIteration as done:
            termination = done.value
            break
        segments.append(seg)

        g_new = [g(t_new, y_new) for g in stops]
        for i, g in enumerate(stops):
            # a NaN on either side fails both comparisons
            if not (g_prev[i] <= 0 and g_new[i] > _GRAZE):
                continue
            ta, tb = seg.t0, t_new
            while tb - ta > _STOP_TOL:
                tm = 0.5 * (ta + tb)
                if g(tm, seg.eval(tm)) <= 0:
                    ta = tm
                else:
                    tb = tm
            if stop is None or 0.5 * (ta + tb) < t_stop:
                stop, t_stop = i, 0.5 * (ta + tb)
        if stop is not None:
            y_stop = seg.eval(t_stop)
            ts.append(t_stop)
            ys.append(y_stop)
            fs.append(tuple(float(v) for v in rhs(t_stop, y_stop)))
            termination = "terminal_event"
            break
        ts.append(t_new)
        ys.append(y_new)
        fs.append(f_new)
        g_prev = g_new

    return Trajectory(
        ts=np.array(ts),
        ys=np.array(ys),
        fs=np.array(fs),
        termination=termination,
        stop=stop,
        segments=segments,
    )


def _first_step(y, f, cfg):
    """Conservative first step from the RHS magnitude."""
    rel, ab = cfg.rel_tol, cfg.abs_tol
    dim = len(y)
    d0 = math.sqrt(sum((v / (ab + rel * abs(v))) ** 2 for v in y) / dim)
    d1 = math.sqrt(sum((fv / (ab + rel * abs(yv))) ** 2 for fv, yv in zip(f, y)) / dim)
    return 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6


def _dopri_steps(rhs, t, y, f, t_end, cfg):
    """Accepted DOPRI 5(4) steps as (segment, t_new, y_new, f_new).

    Returns the termination reason when the steps end.
    """
    dim = len(y)
    rel, ab = cfg.rel_tol, cfg.abs_tol
    h = min(_first_step(y, f, cfg), t_end - t, cfg.max_step)

    err_prev = 1.0
    n_steps = 0
    K = [f] * 7

    while t < t_end:
        if n_steps >= cfg.max_steps:
            return "max_steps"
        n_steps += 1
        h = min(h, t_end - t, cfg.max_step)
        if h < _MIN_STEP:
            return "step_underflow"

        K[0] = f
        bad = False
        for i in range(1, 7):
            Ai = _A[i]
            yi = list(y)
            for j in range(i):
                aij = Ai[j]
                if aij == 0.0:
                    continue
                Kj = K[j]
                for d in range(dim):
                    yi[d] += h * aij * Kj[d]
            Ki = tuple(float(v) for v in rhs(t + _C[i] * h, tuple(yi)))
            if not all(math.isfinite(v) for v in Ki):
                bad = True
                break
            K[i] = Ki
        if bad:
            h *= 0.5
            if h < _MIN_STEP:
                return "domain_exit"
            continue

        # the 7th stage sits at t + h with the 5th-order weights, so its
        # state is the new solution and its RHS the next step's first stage
        # (first same as last)
        y_new = tuple(yi)
        err = 0.0
        for d in range(dim):
            ed = 0.0
            for i in range(7):
                ed += _E[i] * K[i][d]
            sc = ab + rel * max(abs(y[d]), abs(y_new[d]))
            err += (h * ed / sc) ** 2
        err = math.sqrt(err / dim)

        if err > 1.0:
            h *= max(0.2, 0.9 * err**-0.2)
            continue

        t_new = t + h
        f_new = K[6]
        Q = tuple(tuple(h * sum(map(operator.mul, col, kd)) for col in _PT) for kd in zip(*K))
        yield _Segment(t, h, y, Q), t_new, y_new, f_new

        t, y, f = t_new, y_new, f_new
        # PI controller (Gustafsson): responds to current and previous error
        fac = 0.9 * err**-0.14 * err_prev**0.08 if err > 0 else 5.0
        h *= min(5.0, max(0.2, fac))
        err_prev = max(err, 1e-10)
    return "reached_end"


def _predict_factor(h, h_old, err, err_old):
    """Step-size factor of the predictive (Gustafsson) controller."""
    if err == 0.0:
        return 10.0
    if err_old is None:
        return err**-0.25
    return min(1.0, h / h_old * (err_old / err) ** 0.25) * err**-0.25


def _radau_steps(rhs, jac, t, y, f, t_end, cfg):
    """Accepted Radau IIA steps of one component as (segment, t_new, y_new,
    f_new).

    The stage system is solved by simplified Newton in the eigenbasis of
    the Radau coefficient matrix, so each iteration costs three RHS calls,
    one real and one complex division.  The previous collocation polynomial,
    extrapolated, starts the iteration; the Jacobian is re-evaluated only
    when the iteration slows down or fails.  Returns the termination reason
    when the steps end.
    """
    (y,), (f,) = y, f
    rel, ab = cfg.rel_tol, cfg.abs_tol
    newton_tol = max(_NEWTON_TOL_FLOOR / rel, min(0.03, rel**0.5))
    h = _first_step((y,), (f,), cfg)
    (ti00, ti01, ti02), (ti10, ti11, ti12), (ti20, ti21, ti22) = _RTI
    (t00, t01, t02), (t10, t11, t12) = _RT[0], _RT[1]
    c0, c1, _ = _RC
    re0, re1, re2 = _RE
    (p00, p01, p02), (p10, p11, p12), (p20, p21, p22) = _RP

    h_old = err_old = None
    prev = None  # last accepted step (t0, h, y0, Q): its polynomial starts Newton
    J = None
    jac_current = False
    rejected = False
    n_steps = 0
    while t < t_end:
        if n_steps >= cfg.max_steps:
            return "max_steps"
        n_steps += 1
        h = min(h, t_end - t, cfg.max_step)
        if h < _MIN_STEP:
            return "step_underflow"
        if J is None:
            J = float(jac(t, (y,))[0])
            jac_current = True
            if not math.isfinite(J):
                return "domain_exit"
        m_real = _MU_REAL / h
        m_cplx = _MU_COMPLEX / h
        den_real = m_real - J
        den_cplx = m_cplx - J
        scale = ab + rel * abs(y)

        if prev is None:
            Z0 = Z1 = Z2 = 0.0
        else:
            pt, ph, py, (q1, q2, q3) = prev
            Z0, Z1, Z2 = (py + s * (q1 + s * (q2 + s * q3)) - y for s in (
                (t + c0 * h - pt) / ph, (t + c1 * h - pt) / ph, (t + h - pt) / ph))
        W0 = ti00 * Z0 + ti01 * Z1 + ti02 * Z2
        W1 = ti10 * Z0 + ti11 * Z1 + ti12 * Z2
        W2 = ti20 * Z0 + ti21 * Z1 + ti22 * Z2

        converged = False
        norm_old = rate = None
        for it in range(_NEWTON_MAXITER):
            f0 = rhs(t + c0 * h, (y + Z0,))[0]
            f1 = rhs(t + c1 * h, (y + Z1,))[0]
            f2 = rhs(t + h, (y + Z2,))[0]
            dr = (ti00 * f0 + ti01 * f1 + ti02 * f2 - m_real * W0) / den_real
            dc = (
                complex(ti10 * f0 + ti11 * f1 + ti12 * f2, ti20 * f0 + ti21 * f1 + ti22 * f2)
                - m_cplx * complex(W1, W2)
            ) / den_cplx
            W0 += dr
            W1 += dc.real
            W2 += dc.imag
            # a non-finite RHS value makes the norm non-finite
            dw_norm = math.sqrt(
                ((dr / scale) ** 2 + (dc.real / scale) ** 2 + (dc.imag / scale) ** 2) / 3
            )
            if not math.isfinite(dw_norm):
                break
            if norm_old is not None:
                rate = dw_norm / norm_old
                # stop when diverging or when the remaining iterations
                # cannot reach the tolerance at this rate
                if rate >= 1 or rate ** (_NEWTON_MAXITER - it) / (1 - rate) * dw_norm > newton_tol:
                    break
            Z0 = t00 * W0 + t01 * W1 + t02 * W2
            Z1 = t10 * W0 + t11 * W1 + t12 * W2
            Z2 = W0 + W1
            if dw_norm == 0 or (rate is not None and rate / (1 - rate) * dw_norm < newton_tol):
                converged = True
                break
            norm_old = dw_norm
        if not converged:
            if jac_current:
                h *= 0.5
            else:
                J = None  # retry the same step with a fresh Jacobian
            continue

        y_new = y + Z2
        ze = (re0 * Z0 + re1 * Z1 + re2 * Z2) / h
        err = (f + ze) / den_real
        sc = ab + rel * max(abs(y), abs(y_new))
        err_norm = abs(err / sc)
        if rejected and err_norm > 1.0:
            # after a rejection the estimate is filtered once more through
            # the RHS, which keeps it honest on the stiff components
            err = (rhs(t, (y + err,))[0] + ze) / den_real
            err_norm = abs(err / sc)
        safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + it + 1)
        if not err_norm <= 1.0:
            if math.isfinite(err_norm):
                h *= max(0.2, safety * _predict_factor(h, h_old, err_norm, err_old))
            else:
                h *= 0.5
            rejected = True
            continue

        t_new = t + h
        f_new = float(rhs(t_new, (y_new,))[0])
        Q = (
            Z0 * p00 + Z1 * p10 + Z2 * p20,
            Z0 * p01 + Z1 * p11 + Z2 * p21,
            Z0 * p02 + Z1 * p12 + Z2 * p22,
        )
        prev = t, h, y, Q
        yield _Segment(t, h, (y,), (Q,)), t_new, (y_new,), (f_new,)
        if not math.isfinite(f_new):
            return "domain_exit"

        factor = min(10.0, safety * _predict_factor(h, h_old, err_norm, err_old))
        h_old, err_old = h, err_norm
        t, y, f = t_new, y_new, f_new
        # a slow iteration asks for the Jacobian of the new point
        if rate is not None and it > 1 and rate > 1e-3:
            J = None
        jac_current = False
        rejected = False
        h *= factor
    return "reached_end"


def _transposed(A):
    """A 3x3 matrix laid out for ``_rows``."""
    return np.ascontiguousarray(np.array(A).T[:, :, None])


def _rows(AT, X):
    """A X for X of shape (3, dim), given AT[j, i] = A[i, j] (of shape
    (3, 3, 1), or (3, 3, dim) for one matrix per component).  Each row is
    summed as the written-out combination a0 * x0 + a1 * x1 + a2 * x2,
    without a matrix product."""
    P = AT * X[:, None]
    return P[0] + P[1] + P[2]


def _radau_array_steps(rhs, jac, t, y, f, t_end, cfg):
    """Accepted Radau IIA steps of several components on ndarrays.

    The rules of ``_radau_steps``, applied to all components on one step
    sequence.  The stage values are (3, dim) arrays; one RHS call per Newton
    iteration evaluates the three stages of every component.  The Newton
    increment and the error estimate are measured in the max norm over the
    components, so that quiet components do not dilute one component's
    error.  The transforms are row combinations (``_rows``), not matrix
    products, so that runs repeat bit for bit and equal components compute
    bit-identical values.
    """
    y = np.array(y)
    f = np.array(f)
    dim = y.size
    rel, ab = cfg.rel_tol, cfg.abs_tol
    newton_tol = max(_NEWTON_TOL_FLOOR / rel, min(0.03, rel**0.5))
    h = _first_step(y, f, cfg)
    TI, T = _transposed(_RTI), _transposed(_RT)
    PT = _transposed(np.array(_RP).T)  # Q^T = P^T Z
    c0, c1, _ = _RC
    re0, re1, re2 = _RE
    mu_r, mu_i = _MU_COMPLEX.real, _MU_COMPLEX.imag

    h_old = err_old = None
    prev = None
    J = None
    jac_current = False
    rejected = False
    n_steps = 0
    # per component, the stage solve in the eigenbasis: a real division and
    # a complex one, (a + i b) / (mr - J + i mi), as a 3x3 block (transposed)
    S = np.zeros((3, 3, dim))
    while t < t_end:
        if n_steps >= cfg.max_steps:
            return "max_steps"
        n_steps += 1
        h = min(h, t_end - t, cfg.max_step)
        if h < _MIN_STEP:
            return "step_underflow"
        if J is None:
            J = np.array(jac(t, y), dtype=float)
            jac_current = True
            if not np.all(np.isfinite(J)):
                return "domain_exit"
        m_real = _MU_REAL / h
        mr, mi = mu_r / h, mu_i / h
        M = _transposed([[m_real, 0.0, 0.0], [0.0, mr, -mi], [0.0, mi, mr]])
        den_real = m_real - J
        cr = mr - J
        mod = cr * cr + mi * mi
        S[0, 0] = 1.0 / den_real
        S[1, 1] = S[2, 2] = cr / mod
        S[2, 1] = mi / mod
        S[1, 2] = -S[2, 1]
        scale2 = (ab + rel * np.abs(y)) ** 2
        stage_t = np.array([[t + c0 * h], [t + c1 * h], [t + h]])

        if prev is None:
            Z = np.zeros((3, dim))
        else:
            s = (stage_t - prev.t0) / prev.h
            Z = prev.y0 + s * _poly(prev.Q.T, s) - y
        W = _rows(TI, Z)

        converged = False
        norm_old = rate = None
        for it in range(_NEWTON_MAXITER):
            dW = _rows(S, _rows(TI, rhs(stage_t, y + Z)) - _rows(M, W))
            W += dW
            # a non-finite RHS value makes the norm non-finite
            dW *= dW
            dw_norm = math.sqrt(float(((dW[0] + dW[1] + dW[2]) / scale2).max()) / 3)
            if not math.isfinite(dw_norm):
                break
            if norm_old is not None:
                rate = dw_norm / norm_old
                if rate >= 1 or rate ** (_NEWTON_MAXITER - it) / (1 - rate) * dw_norm > newton_tol:
                    break
            Z = _rows(T, W)
            if dw_norm == 0 or (rate is not None and rate / (1 - rate) * dw_norm < newton_tol):
                converged = True
                break
            norm_old = dw_norm
        if not converged:
            if jac_current:
                h *= 0.5
            else:
                J = None
            continue

        y_new = y + Z[2]
        ze = (re0 * Z[0] + re1 * Z[1] + re2 * Z[2]) / h
        err = (f + ze) / den_real
        sc = ab + rel * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.abs(err / sc).max())
        if rejected and err_norm > 1.0:
            err = (rhs(t, y + err) + ze) / den_real
            err_norm = float(np.abs(err / sc).max())
        safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + it + 1)
        if not err_norm <= 1.0:
            if math.isfinite(err_norm):
                h *= max(0.2, safety * _predict_factor(h, h_old, err_norm, err_old))
            else:
                h *= 0.5
            rejected = True
            continue

        t_new = t + h
        f_new = np.array(rhs(t_new, y_new), dtype=float)
        prev = _Segment(t, h, y, _rows(PT, Z).T)
        yield prev, t_new, y_new, f_new
        if not np.all(np.isfinite(f_new)):
            return "domain_exit"

        factor = min(10.0, safety * _predict_factor(h, h_old, err_norm, err_old))
        h_old, err_old = h, err_norm
        t, y, f = t_new, y_new, f_new
        if rate is not None and it > 1 and rate > 1e-3:
            J = None
        jac_current = False
        rejected = False
        h *= factor
    return "reached_end"
