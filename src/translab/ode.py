"""Adaptive Runge-Kutta integration with dense output and stop conditions.

Two fixed steppers share one integration loop (stop location, node storage):

* DOP853, Hairer's explicit 8th-order pair with its 5th- and 3rd-order
  error estimate and 7th-order dense output;
* 3-stage Radau IIA (order 5, stiffly accurate, L-stable) with simplified
  Newton iterations and its cubic collocation polynomial as dense output,
  for uncoupled components whose diagonal Jacobian ``jac`` the caller
  supplies.  The stage "solves" are then divisions, one real and one
  complex per component and iteration.

A run with ``jac`` (a bowl, an ascending catenoid chart, a batched
comparison run) steps explicitly through the smooth transition near the
axis, the neck or the start and hands off to Radau IIA, once, where dF/dy
shows the attracting tail turn stiff (``STIFF_STEP``): there the explicit
pair is stability-limited, the implicit step tolerance-limited.  Runs
without ``jac`` step explicitly throughout.  Every step keeps its dense
output as y0 + sum_k Q_k s^(k+1) (``_Segment``), which ``Trajectory``
evaluates and integrates exactly as arrays, so heights are quadratures of
the slope, never extra state.
Reproducibility matters more here than solver variety, so the tableaux,
the dense-output polynomials and the controllers are all spelled out
below; identical inputs produce bit-identical trajectories.

The explicit steps and the implicit steps of a single component work on
plain Python floats (tuples), an order of magnitude faster than ndarray
arithmetic at the sizes of the charts (one or two components); the
explicit steps of a batched run do too, with one broadcasting RHS call per
stage.  Its implicit steps work on ndarrays: one RHS call evaluates the
three stages of every component.  Trajectories are packed into numpy
arrays on exit.

References
----------
Hairer, Norsett & Wanner (1993), Solving Ordinary Differential Equations I,
Sec. II.10 (DOP853: coefficients, error estimate, dense output).
Hairer & Wanner (1996), Solving Ordinary Differential Equations II,
Sec. IV.8 (Radau IIA, simplified Newton, step-size prediction).
Petzold (1983), SIAM J. Sci. Stat. Comput. 4, 136-148 (automatic switching
between non-stiff and stiff methods).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ParameterError

# DOP853 (Hairer's dop853.f): the nodes _C of stages 0-15 and, per stage, its
# nonzero weights a_ij in the order of j (the j are named in _dop853_steps).
# Stage 12 is the RHS at the new solution, its row the solution weights b of
# the stages _B_COLS; stages 13-15 serve the dense output only
_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
      1 / 3, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0,
      0.1, 0.2, 0.7777777777777778)
_A = (
    (), (0.05260015195876773,), (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.08876275643042054),
    (0.2413651341592667, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
     0.008273789163814023),
    (0.6241109587160757, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    (0.054293734116568765, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
     0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259),
    (0.056167502283047954, 0.25350021021662483, -0.2462390374708025, -0.12419142326381637,
     0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.028300909672366776, 0.053541988307438566, -0.05492374857139099,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, -4.697621415361164, 7.683421196062599, 4.06898981839711,
     0.3567271874552811, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987))
_B_COLS = (0, 5, 6, 7, 8, 9, 10, 11)
# the 5th- and 3rd-order error estimates, weights of the stages _B_COLS (the
# 3rd-order one is b minus Hairer's bhh, which weights stages 0, 8 and 11)
_E5 = (0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
       -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294)
_E3 = tuple(b - bhh for b, bhh in zip(_A[12], (
    0.2440944881889764, 0, 0, 0, 0.7338466882816118, 0, 0, 0.022058823529411766)))
# Hairer's dense output y0 + s (F0 + (1-s) (F1 + s (F2 + ... + s F6))), with
# F0 = y1 - y0, F1 = h K0 - F0, F2 = 2 F0 - h (K0 + K12) and F3-F6 = h times
# these weights of stages 0 and 5-15, kept as the coefficients of s, ..., s^7
_D = (
    (-8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279),
    (-25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564))
_DENSE = 7

# The handoff rule of the runs with ``jac``: after each explicit step, with
# lam = max_i |dF_i/dy_i| at the new node and h the next step, the run moves
# to Radau IIA once h lam >= STIFF_STEP (stability is about to bound the
# step) and t lam > STIFF_SPAN (the transient 1/lam is short against the
# scale t of the slope charts: t lam ~ c near the axis, 2r^2 on the
# alpha = 1 tail); until then h lam <= STABLE_STEP, inside DOP853's real
# stability interval (~6) and inside [-4.35, 0], where its stability
# function is positive, so explicit steps keep two solutions in order as
# the Radau IIA steps do.  RHS calls per pass of the benchmark's bowl and
# catenoid CLI jobs at (STIFF_STEP, STIFF_SPAN) = (0.3, 20): 22,869, 55,721;
# (0.1, 20): 22,886, 57,357; (1, 20): 32,079, 274,393; (0.3, 5): 26,966,
# 67,935; (0.3, 50): 21,609, 57,285; Radau IIA alone: 35,463, 118,511.
STIFF_STEP = 0.3
STIFF_SPAN = 20.0
STABLE_STEP = 3.0  # 2 or 5 move the counts above by under 0.5%
# Every stop, quadrature and fit reads the dense output, whose error inside a
# step is up to 1.3-2.9 times the tolerance where the step's error estimate
# meets it (y' = y, -y, cos t and the logistic equation at rel_tol 1e-8 and
# 1e-10), and 0.4-0.7 times where the estimate is held to a third of it
DENSE_MARGIN = 3.0

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
# bisected to this time tolerance, or until the midpoint rounds to an end
# of the bracket (past t = 8192 an ulp of t exceeds the tolerance)
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
    collocation cubic), 7 on DOP853 steps."""

    __slots__ = ("t0", "h", "y0", "Q")

    def __init__(self, t0, h, y0, Q):
        self.t0 = t0
        self.h = h
        self.y0 = y0  # floats, or an ndarray on the batched Radau IIA core
        self.Q = Q  # per component, the coefficients of s, s^2, ...

    def eval(self, t):
        s = (t - self.t0) / self.h
        return tuple(y0 + s * _poly(q, s) for y0, q in zip(self.y0, self.Q))


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
    handoff: Optional[float] = None  # where the explicit steps gave way to Radau IIA

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

    def step_counts(self) -> dict:
        """The handoff point and the accepted explicit and Radau IIA steps."""
        explicit = sum(len(seg.Q[0]) == _DENSE for seg in self.segments)
        return {"handoff": self.handoff, "explicit_steps": explicit,
                "radau_steps": len(self.segments) - explicit}

    @cached_property
    def _polys(self) -> tuple:
        """t0, h (n,), y0 (n, dim) and Q (m, n, dim) of the steps, to evaluate
        their polynomials as arrays; the operations are those of
        ``_Segment``, in the same order.  Past a handoff the Radau IIA
        coefficients are padded with zeros, which leave every value as is."""
        segs = self.segments
        k = self.step_counts()["explicit_steps"]  # the steps before the handoff
        if k in (0, len(segs)):
            Q = np.array([seg.Q for seg in segs])
        else:
            Q = np.zeros((len(segs), len(segs[0].Q), _DENSE))
            Q[:k] = [seg.Q for seg in segs[:k]]
            Q[k:, :, :len(_RP)] = [seg.Q for seg in segs[k:]]
        return (
            np.array([seg.t0 for seg in segs]),
            np.array([seg.h for seg in segs]),
            np.array([seg.y0 for seg in segs]),
            np.moveaxis(Q, -1, 0),
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

    The steps are explicit DOP853.  ``jac`` returns the diagonal of d rhs /
    dy of a system whose component i depends on y[i] alone; with it, the run
    hands off to Radau IIA, stable at any step size, where its stiffest
    component turns stiff (``STIFF_STEP``, ``Trajectory.handoff``), and the
    explicit error is measured in the max norm over the components.
    Components integrated together share one step sequence, so the
    difference of two solutions is that of one discrete flow.

    With ``jac`` and more than one component ``rhs`` and ``jac`` must
    broadcast: they are called with a scalar t and a (dim,) ndarray state,
    and ``rhs`` also, once per Newton iteration for all three Radau stages,
    with a (3, 1) column of times and a (3, dim) state; ``rhs`` returns an
    array of the state's shape whose entry [k, i] depends on t[k] and
    y[k, i] alone.  Otherwise states are tuples of floats.

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
    if batched:
        # the explicit steps pass lists of floats to the broadcasting maps
        def step_rhs(t, y):
            return rhs(t, np.array(y)).tolist()

        def stiffness(t, y):  # the stiffest component decides; NaN stays NaN
            return float(np.abs(jac(t, np.array(y))).max())
    else:
        step_rhs = rhs
        stiffness = jac and (lambda t, y: abs(jac(t, y)[0]))
    y = tuple(float(v) for v in state0)
    t = float(t0)
    f = tuple(float(v) for v in step_rhs(t, y))
    if not all(math.isfinite(v) for v in f):
        raise ParameterError("rhs not finite at the initial state")

    ts = [t]
    ys = [y]
    fs = [f]
    segments = []
    stop = None
    g_prev = [g(t, y) for g in stops]

    steps = _dop853_steps(step_rhs, stiffness, t, y, f, t_end, cfg)
    handoff = None
    while True:
        try:
            seg, t_new, y_new, f_new = next(steps)
        except StopIteration as done:
            termination = done.value
            if isinstance(termination, str):
                break
            # the explicit steps found the run stiff at the last node
            handoff = ts[-1]
            radau = _radau_array_steps if batched else _radau_steps
            steps = radau(rhs, jac, handoff, ys[-1], fs[-1], t_end, cfg, *termination)
            continue
        segments.append(seg)

        g_new = [g(t_new, y_new) for g in stops]
        for i, g in enumerate(stops):
            # a NaN on either side fails both comparisons
            if not (g_prev[i] <= 0 and g_new[i] > _GRAZE):
                continue
            ta, tb = seg.t0, t_new
            while tb - ta > _STOP_TOL:
                tm = 0.5 * (ta + tb)
                if tm in (ta, tb):
                    break
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
            fs.append(tuple(float(v) for v in step_rhs(t_stop, y_stop)))
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
        handoff=handoff,
    )


def _explicit_first_step(rhs, t, y, f, t_end, cfg, norm):
    """Hairer's initial step for an order-8 pair, from the norms of y and f
    and a second-derivative estimate after one Euler step; ``norm`` pools
    the squared components (``sum`` or ``max``)."""
    sc = [cfg.abs_tol + cfg.rel_tol * abs(v) for v in y]
    dny, dnf = (norm([(v / s) ** 2 for v, s in zip(x, sc)]) for x in (y, f))
    h = 0.01 * math.sqrt(dny / dnf) if min(dny, dnf) > 1e-10 else 1e-6
    h = min(h, t_end - t, cfg.max_step)
    f1 = rhs(t + h, [v + h * fv for v, fv in zip(y, f)])
    der = max(math.sqrt(norm([((a - b) / s) ** 2 for a, b, s in zip(f1, f, sc)])) / h, dnf**0.5)
    return min(100 * h, (0.01 / der) ** 0.125 if der > 1e-15 else max(1e-6, 1e-3 * h))


def _dop853_steps(rhs, stiffness, t, y, f, t_end, cfg):
    """Accepted DOP853 steps as (segment, t_new, y_new, f_new), with the
    stage sums written out, Hairer's step control (exponent 1/8, safety 0.9,
    factors in [1/3, 6], none above 1 after a rejection) and non-finite
    stages halving the step.  ``stiffness(t, y)`` is max |d rhs_i / dy_i|,
    or None without ``jac``.  Returns the termination reason, or, when the
    stiffness meets the handoff rule, (next step size, step attempts).

    The error is measured in Hairer's RMS norm over the components or, with
    a stiffness, in the max norm, so that quiet components of a batched run
    do not dilute one component's error (as in ``_radau_array_steps``); on
    one component the two are the same.
    """
    rel, ab = cfg.rel_tol, cfg.abs_tol
    # squared scaled components pooled: summed over n (the RMS norm) or the largest (n = 1)
    norm, n = (sum, len(y)) if stiffness is None else (max, 1)
    h = _explicit_first_step(rhs, t, y, f, t_end, cfg, norm)
    c1, c2, c3, c4, c5, c6, c7, c8, c9, c10 = _C[1:11]
    c13, c14, c15 = _C[13:]
    ((a1_0,), (a2_0, a2_1), (a3_0, a3_2), (a4_0, a4_2, a4_3), (a5_0, a5_3, a5_4),
     (a6_0, a6_3, a6_4, a6_5), (a7_0, a7_3, a7_4, a7_5, a7_6),
     (a8_0, a8_3, a8_4, a8_5, a8_6, a8_7), (a9_0, a9_3, a9_4, a9_5, a9_6, a9_7, a9_8),
     (a10_0, a10_3, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
     (a11_0, a11_3, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10),
     b, (a13_0, a13_6, a13_7, a13_8, a13_9, a13_10, a13_11, a13_12),
     (a14_0, a14_5, a14_6, a14_7, a14_10, a14_11, a14_12, a14_13),
     (a15_0, a15_5, a15_6, a15_7, a15_8, a15_12, a15_13, a15_14)) = _A[1:]
    rejected = False
    n_steps = 0
    k0 = f
    while t < t_end:
        if n_steps >= cfg.max_steps:
            return "max_steps"
        n_steps += 1
        h = min(h, t_end - t, cfg.max_step)
        if h < _MIN_STEP:
            return "step_underflow"

        k1 = rhs(t + c1 * h, [y0 + h * a1_0 * x0 for y0, x0 in zip(y, k0)])
        k2 = rhs(t + c2 * h, [y0 + h * (a2_0 * x0 + a2_1 * x1) for y0, x0, x1 in zip(y, k0, k1)])
        k3 = rhs(t + c3 * h, [y0 + h * (a3_0 * x0 + a3_2 * x2) for y0, x0, x2 in zip(y, k0, k2)])
        k4 = rhs(t + c4 * h, [y0 + h * (a4_0 * x0 + a4_2 * x2 + a4_3 * x3)
                              for y0, x0, x2, x3 in zip(y, k0, k2, k3)])
        k5 = rhs(t + c5 * h, [y0 + h * (a5_0 * x0 + a5_3 * x3 + a5_4 * x4)
                              for y0, x0, x3, x4 in zip(y, k0, k3, k4)])
        k6 = rhs(t + c6 * h, [y0 + h * (a6_0 * x0 + a6_3 * x3 + a6_4 * x4 + a6_5 * x5)
                              for y0, x0, x3, x4, x5 in zip(y, k0, k3, k4, k5)])
        k7 = rhs(t + c7 * h, [y0 + h * (a7_0 * x0 + a7_3 * x3 + a7_4 * x4 + a7_5 * x5 + a7_6 * x6)
                              for y0, x0, x3, x4, x5, x6 in zip(y, k0, k3, k4, k5, k6)])
        k8 = rhs(t + c8 * h, [y0 + h * (a8_0 * x0 + a8_3 * x3 + a8_4 * x4 + a8_5 * x5 + a8_6 * x6
                                        + a8_7 * x7)
                              for y0, x0, x3, x4, x5, x6, x7 in zip(y, k0, k3, k4, k5, k6, k7)])
        k9 = rhs(t + c9 * h, [y0 + h * (a9_0 * x0 + a9_3 * x3 + a9_4 * x4 + a9_5 * x5 + a9_6 * x6
                                        + a9_7 * x7 + a9_8 * x8) for y0, x0, x3, x4, x5, x6, x7, x8
                              in zip(y, k0, k3, k4, k5, k6, k7, k8)])
        k10 = rhs(t + c10 * h, [y0 + h * (a10_0 * x0 + a10_3 * x3 + a10_4 * x4 + a10_5 * x5
                                          + a10_6 * x6 + a10_7 * x7 + a10_8 * x8 + a10_9 * x9)
                                for y0, x0, x3, x4, x5, x6, x7, x8, x9
                                in zip(y, k0, k3, k4, k5, k6, k7, k8, k9)])
        k11 = rhs(t + h, [y0 + h * (a11_0 * x0 + a11_3 * x3 + a11_4 * x4 + a11_5 * x5 + a11_6 * x6
                                    + a11_7 * x7 + a11_8 * x8 + a11_9 * x9 + a11_10 * x10)
                          for y0, x0, x3, x4, x5, x6, x7, x8, x9, x10
                          in zip(y, k0, k3, k4, k5, k6, k7, k8, k9, k10)])
        ks = list(zip(k0, k5, k6, k7, k8, k9, k10, k11))  # per component
        y_new = [y0 + h * sum(map(mul, b, x)) for y0, x in zip(y, ks)]
        # Hairer's blend of the 5th- and 3rd-order estimates, held to a
        # fraction of the tolerance (DENSE_MARGIN); NaN stages make it NaN,
        # or, where the max norm passes over them, the new state
        sc = [ab + rel * max(abs(y0), abs(y1)) for y0, y1 in zip(y, y_new)]
        err5 = norm([(sum(map(mul, _E5, x)) / s) ** 2 for x, s in zip(ks, sc)])
        err3 = norm([(sum(map(mul, _E3, x)) / s) ** 2 for x, s in zip(ks, sc)])
        den = err5 + 0.01 * err3
        err = DENSE_MARGIN * h * err5 / math.sqrt(den * n) if den != 0 else 0.0

        if err <= 1.0:
            t_new = t + h
            k12 = rhs(t_new, y_new)
            k13 = rhs(t + c13 * h, [
                y0 + h * (a13_0 * x0 + a13_6 * x6 + a13_7 * x7 + a13_8 * x8 + a13_9 * x9
                          + a13_10 * x10 + a13_11 * x11 + a13_12 * x12)
                for y0, (x0, _, x6, x7, x8, x9, x10, x11), x12 in zip(y, ks, k12)])
            k14 = rhs(t + c14 * h, [
                y0 + h * (a14_0 * x0 + a14_5 * x5 + a14_6 * x6 + a14_7 * x7 + a14_10 * x10
                          + a14_11 * x11 + a14_12 * x12 + a14_13 * x13)
                for y0, (x0, x5, x6, x7, _, _, x10, x11), x12, x13 in zip(y, ks, k12, k13)])
            k15 = rhs(t + c15 * h, [
                y0 + h * (a15_0 * x0 + a15_5 * x5 + a15_6 * x6 + a15_7 * x7 + a15_8 * x8
                          + a15_12 * x12 + a15_13 * x13 + a15_14 * x14)
                for y0, (x0, x5, x6, x7, x8, _, _, _), x12, x13, x14
                in zip(y, ks, k12, k13, k14)])
            if not math.isfinite(sum(y_new) + sum(k12) + sum(k13) + sum(k14) + sum(k15)):
                err = math.nan
        if not err <= 1.0:
            rejected = True
            h *= max(1 / 3, 0.9 * err**-0.125) if math.isfinite(err) else 0.5
            if h < _MIN_STEP and not math.isfinite(err):
                return "domain_exit"
            continue

        # Hairer's dense output, expanded in powers of s
        Q = []
        for y0, y1, x, x12, x13, x14, x15 in zip(y, y_new, ks, k12, k13, k14, k15):
            x += (x12, x13, x14, x15)
            f0 = y1 - y0
            f1 = h * x[0] - f0
            f2 = 2 * f0 - h * (x[0] + x12)
            f3, f4, f5, f6 = [h * sum(map(mul, d, x)) for d in _D]
            Q.append((f0 + f1, f2 + f3 - f1, f4 + f5 - f2 - 2 * f3, f3 + f6 - 2 * f4 - 3 * f5,
                      f4 + 3 * (f5 - f6), 3 * f6 - f5, -f6))
        yield _Segment(t, h, y, Q), t_new, y_new, k12

        t, y, k0 = t_new, y_new, k12
        h *= min(1.0 if rejected else 6.0, 0.9 * err**-0.125 if err > 0 else 6.0)
        rejected = False
        if stiffness is not None:
            lam = stiffness(t, y)
            if h * lam >= STIFF_STEP and t * lam > STIFF_SPAN:
                return h, n_steps
            if h * lam > STABLE_STEP:
                h = STABLE_STEP / lam
    return "reached_end"


def _predict_factor(h, h_old, err, err_old):
    """Step-size factor of the predictive (Gustafsson) controller."""
    if err == 0.0:
        return 10.0
    if err_old is None:
        return err**-0.25
    return min(1.0, h / h_old * (err_old / err) ** 0.25) * err**-0.25


def _radau_steps(rhs, jac, t, y, f, t_end, cfg, h, n_steps):
    """Accepted Radau IIA steps of one component as (segment, t_new, y_new,
    f_new), from a first step h with n_steps of the step budget spent.

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


def _radau_array_steps(rhs, jac, t, y, f, t_end, cfg, h, n_steps):
    """Accepted Radau IIA steps of several components on ndarrays, from a
    first step h with n_steps of the step budget spent.

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
