"""Adaptive Runge-Kutta integration with dense output and stop conditions.

Two fixed steppers share one integration loop (stop location, node storage):

* DOP853, Hairer's explicit 8th-order pair with its 5th- and 3rd-order
  error estimate and 7th-order dense output;
* 5-stage Radau IIA (order 9, stiffly accurate, L-stable) with simplified
  Newton iterations and its quintic collocation polynomial as dense output,
  for uncoupled components whose diagonal Jacobian ``jac`` the caller
  supplies.  The stage "solves" are then divisions, one real and two
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
five stages of every component.  Trajectories are packed into numpy
arrays on exit.

References
----------
Hairer, Norsett & Wanner (1993), Solving Ordinary Differential Equations I,
Sec. II.10 (DOP853: coefficients, error estimate, dense output).
Hairer & Wanner (1996), Solving Ordinary Differential Equations II,
Sec. IV.8 (Radau IIA, simplified Newton, step-size prediction).
Hairer & Wanner (1999), J. Comput. Appl. Math. 111, 93-111 (the 5-stage
Radau IIA method at tight tolerances).
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
# catenoid CLI jobs at (STIFF_STEP, STIFF_SPAN) = (0.3, 20): 15,615, 28,128;
# (0.1 or 0.2, 20): 15,580, 28,067, with 9 more catenoid nodes; (1, 20):
# 30,605, 115,466; (0.3, 50): 16,761, 35,580; (0.3, 5): 15,538, 27,199 and
# (0.3, 2): 10,658, 24,354, both moving runs that must stay explicit onto
# Radau IIA; Radau IIA alone: 10,429, 27,287.
STIFF_STEP = 0.3
STIFF_SPAN = 20.0
STABLE_STEP = 3.0  # 2 or 5 move the counts above by under 1%
# Every stop, quadrature and fit reads the dense output, whose error inside a
# step is up to 1.3-2.9 times the tolerance where the step's error estimate
# meets it (DOP853 on y' = y, -y, cos t and the logistic equation at rel_tol
# 1e-8 and 1e-10), and 0.4-0.7 times where the estimate is held to a third of
# it; so is Radau IIA's, whose collocation polynomial is of order 5 (on y' =
# -1e4 (y - cos t) - sin t at 1e-10: 222 times the tolerance falls to 50)
DENSE_MARGIN = 3.0

# Radau IIA, 5 stages (order 9): the nodes _RC (the zeros of
# d^4/dx^4 [x^4 (x-1)^5]), the error-estimate weights _RE (mu_real times the
# embedded weights minus b, times A^-1), the eigenvalues of the inverse
# coefficient matrix A^-1 (one real, two complex pairs), its eigenvector basis
# _RT with its inverse _RTI (the last row of _RT picks the stage at c = 1),
# and the collocation polynomial y(t0+s*h) = y0 + sum_k Q_k s^(k+1) with
# Q = Z^T _RP
_RC = (0.05710419611451768, 0.2768430136381238, 0.5835904323689168, 0.8602401356562195, 1.0)
_RE = (-27.78093394406464, 3.641478498049213, -1.2525477211691187, 0.5920031671845428, -0.2)
_MU_REAL = 6.2867047517292765
_MU_COMPLEX = (3.655694325463572 - 6.543736899360077j, 5.70095329867179 - 3.2102656003085497j)
_RT = (
    (0.013576867344947943, -0.010242047817908826, -0.04767387729029572, -0.011478515255229515,
     0.01401985889287541),
    (0.0016179004017190875, 0.05017286451737106, 0.09433181918161143, -0.007668830749180163,
     -0.024708578426518527),
    (0.07915785334744721, -0.23053953404341795, -0.1027030453801259, 0.01939846399882895,
     -0.08180035370375117),
    (0.41225608268046143, 0.37789390224886127, -0.46674413033249434, 0.40760117128019907,
     -0.19968242788680252),
    (1.0, 1.0, 0.0, 1.0, 0.0),
)
_RTI = (
    (27.697693775684087, 12.783337911304406, 3.20848938671343, -0.9514904122489162,
     0.7415504960259897),
    (5.344186437834912, 4.593615567759161, -3.0363603234594243, 1.050660190231459,
     -0.27277861186429625),
    (-3.748059807439805, 3.984965736343885, 1.0444156416080188, -1.1840985681379486,
     0.44991777015678036),
    (-33.041880213519, -17.376953479063566, -0.17212906325400557, -0.09916977798254265,
     0.5312281158383066),
    (8.611443979875292, -9.699991409528808, -1.9147286396968743, -2.41869200608494,
     1.0474634879353375),
)
_RP = (
    (27.78093394406464, -208.02785730090133, 524.1878839694918, -543.8283560361325,
     199.88739542347736),
    (-3.641478498049213, 77.88337605511782, -264.89491356822634, 317.67586907995275,
     -127.022853068795),
    (1.2525477211691187, -29.167414317829696, 137.90290440413477, -202.09087094360743,
     92.10283313613321),
    (-0.5920031671845428, 14.111895563613205, -72.39587480540027, 123.04335789978718,
     -64.16737549081559),
    (0.2, -4.8, 25.2, -44.8, 25.2),
)
_RPT = tuple(zip(*_RP))
# coefficients per component of a Radau IIA step's dense output, one per stage
_RADAU_DENSE = len(_RC)
_ERR_EXP = -1 / (_RADAU_DENSE + 1)
# the Newton cap and tolerance floor: on the bowl and catenoid CLI jobs 6-12
# iterations move the RHS calls by under 1%, floors of 10, 30 and 100 eps take
# 16,315, 15,912 and 15,615 bowl calls.  The iteration stops on its increment
# of the stage values: in the eigenbasis, whose transform magnifies rounding,
# the bowl of qk:k=4,n=6 to r 5e6 took 592,238 steps where it takes 1,815
_NEWTON_MAXITER = 10
_NEWTON_TOL_FLOOR = 100 * sys.float_info.epsilon
# a step below this length ends the run with 'step_underflow', and so do
# _STALL_STEPS Radau IIA steps that advance t by less than a tenth of t: on a
# fold of the slope field and past the precision horizon the steps collapse
# and regrow without end (knorm:k=4,n=4 at r 25.9, sk:k=3,n=5 past r 130);
# healthy charts take 70-200 steps, the bowl of qk:k=4,n=6 to r 5e6 1,815
_MIN_STEP = 1e-14
_STALL_STEPS = 1000
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
    Q_k s^(k+1): per component _RADAU_DENSE coefficients on Radau IIA steps
    (the collocation polynomial), _DENSE on DOP853 steps."""

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
        radau = sum(len(seg.Q[0]) == _RADAU_DENSE for seg in self.segments)
        return {"handoff": self.handoff, "explicit_steps": len(self.segments) - radau,
                "radau_steps": radau}

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
            Q[k:, :, :_RADAU_DENSE] = [seg.Q for seg in segs[k:]]
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
    and ``rhs`` also, once per Newton iteration for all five Radau stages,
    with a (5, 1) column of times and a (5, dim) state; ``rhs`` returns an
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
        return err**_ERR_EXP
    return min(1.0, h / h_old * (err_old / err) ** -_ERR_EXP) * err**_ERR_EXP


def _combine(M, x):
    """M x for five floats x, each row summed as written, as ``_rows`` does."""
    x0, x1, x2, x3, x4 = x
    return [m0 * x0 + m1 * x1 + m2 * x2 + m3 * x3 + m4 * x4 for m0, m1, m2, m3, m4 in M]


def _radau_steps(rhs, jac, t, y, f, t_end, cfg, h, n_steps):
    """Accepted Radau IIA steps of one component as (segment, t_new, y_new,
    f_new), from a first step h with n_steps of the step budget spent.

    The stage system is solved by simplified Newton in the eigenbasis of
    the Radau coefficient matrix, so each iteration costs five RHS calls,
    one real and two complex divisions; the iteration stops on its increment
    of the stage values.  The previous collocation polynomial, extrapolated,
    starts the iteration; the Jacobian is re-evaluated only when the
    iteration slows down or fails.  The arithmetic is that of
    ``_radau_array_steps`` on one component, so that both take the same
    steps.  Returns the termination reason when the steps end.
    """
    (y,), (f,) = y, f
    rel, ab = cfg.rel_tol, cfg.abs_tol
    newton_tol = max(_NEWTON_TOL_FLOOR / rel, min(0.03, rel**0.5))
    e0, e1, e2, e3, e4 = _RE

    h_old = err_old = None
    prev = None  # last accepted step (t0, h, y0, Q): its polynomial starts Newton
    J = None
    jac_current = rejected = False
    marks = [-math.inf] * _STALL_STEPS  # t after each accepted step
    while t < t_end:
        if n_steps >= cfg.max_steps:
            return "max_steps"
        n_steps += 1
        h = min(h, t_end - t, cfg.max_step)
        if h < _MIN_STEP or t - marks[-_STALL_STEPS] < 0.1 * abs(t):
            return "step_underflow"
        if J is None:
            J = float(jac(t, (y,))[0])
            jac_current = True
            if not math.isfinite(J):
                return "domain_exit"
        # the stage solve: a real division and two complex ones,
        # (a + i b) / (mr - J + i mi), as the products of 2x2 blocks
        m_real = _MU_REAL / h
        den_real = m_real - J
        inv_real = 1.0 / den_real
        (mr1, mi1), (mr2, mi2) = [(mu.real / h, mu.imag / h) for mu in _MU_COMPLEX]
        cr1, cr2 = mr1 - J, mr2 - J
        mod1, mod2 = cr1 * cr1 + mi1 * mi1, cr2 * cr2 + mi2 * mi2
        a1, b1, a2, b2 = cr1 / mod1, mi1 / mod1, cr2 / mod2, mi2 / mod2
        scale2 = (ab + rel * abs(y)) ** 2
        stage_t = [t + c * h for c in _RC]

        if prev is None:
            Z = [0.0] * _RADAU_DENSE
        else:
            pt, ph, py, q = prev
            Z = [py + s * _poly(q, s) - y for s in [(ts - pt) / ph for ts in stage_t]]
        W = _combine(_RTI, Z)

        converged = False
        norm_old = rate = None
        for it in range(_NEWTON_MAXITER):
            g0, g1, g2, g3, g4 = _combine(_RTI, [rhs(ts, (y + z,))[0] for ts, z in zip(stage_t, Z)])
            w0, w1, w2, w3, w4 = W
            r0 = g0 - m_real * w0
            r1, r2 = g1 - (mr1 * w1 - mi1 * w2), g2 - (mi1 * w1 + mr1 * w2)
            r3, r4 = g3 - (mr2 * w3 - mi2 * w4), g4 - (mi2 * w3 + mr2 * w4)
            dW = (inv_real * r0, a1 * r1 + b1 * r2, a1 * r2 - b1 * r1,
                  a2 * r3 + b2 * r4, a2 * r4 - b2 * r3)
            W = [w + d for w, d in zip(W, dW)]
            dZ = _combine(_RT, dW)
            # a non-finite RHS value makes the norm non-finite
            dz_norm = math.sqrt(sum(d * d for d in dZ) / scale2 / _RADAU_DENSE)
            if not math.isfinite(dz_norm):
                break
            if norm_old is not None:
                rate = dz_norm / norm_old
                # stop when diverging or when the remaining iterations
                # cannot reach the tolerance at this rate
                if rate >= 1 or rate ** (_NEWTON_MAXITER - it) / (1 - rate) * dz_norm > newton_tol:
                    break
            Z = [z + d for z, d in zip(Z, dZ)]
            if dz_norm == 0 or (rate is not None and rate / (1 - rate) * dz_norm < newton_tol):
                converged = True
                break
            norm_old = dz_norm
        if not converged:
            if jac_current:
                h *= 0.5
            else:
                J = None  # retry the same step with a fresh Jacobian
            continue

        z0, z1, z2, z3, z4 = Z
        y_new = y + z4
        ze = (e0 * z0 + e1 * z1 + e2 * z2 + e3 * z3 + e4 * z4) / h
        err = (f + ze) / den_real
        sc = (ab + rel * max(abs(y), abs(y_new))) / DENSE_MARGIN
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
        # P^T maps the chord s Z_5 to (Z_5, 0, ..., 0): the stages' deviations
        # from it, small on a smooth step, keep the large _RP's rounding off Q
        Q = _combine(_RPT, [z - c * z4 for z, c in zip(Z, _RC)])
        Q[0] += z4
        prev = t, h, y, Q
        yield _Segment(t, h, (y,), (Q,)), t_new, (y_new,), (f_new,)
        if not math.isfinite(f_new):
            return "domain_exit"

        factor = min(8.0, max(0.2, safety * _predict_factor(h, h_old, err_norm, err_old)))
        h_old, err_old = h, err_norm
        t, y, f = t_new, y_new, f_new
        # a slow iteration asks for the Jacobian of the new point
        if rate is not None and it > 1 and rate > 1e-3:
            J = None
        marks.append(t)
        jac_current = rejected = False
        h *= factor
    return "reached_end"


def _transposed(A):
    """A square matrix, or one per component, laid out for ``_rows``."""
    return np.ascontiguousarray(np.swapaxes(np.array(A), 0, 1).reshape(len(A), len(A), -1))


def _rows(AT, X):
    """A X for X of shape (n, dim), given AT[j, i] = A[i, j] (of shape
    (n, n, 1), or (n, n, dim) for one matrix per component).  Each row is
    summed as the written-out combination a0 * x0 + a1 * x1 + ..., without
    a matrix product."""
    P = AT * X[:, None]
    return sum(P[1:], P[0])


def _eigen_blocks(real, pairs):
    """The 5x5 matrix (of scalars or per-component arrays) of w -> (real w0,
    m1 (w1 + i w2), m2 (w3 + i w4)), m = mr + i mi for the (mr, mi) of pairs."""
    M = np.zeros((5, 5) + np.shape(real))
    M[0, 0] = real
    for k, (mr, mi) in zip((1, 3), pairs):
        M[k, k] = M[k + 1, k + 1] = mr
        M[k, k + 1], M[k + 1, k] = -mi, mi
    return M


def _radau_array_steps(rhs, jac, t, y, f, t_end, cfg, h, n_steps):
    """Accepted Radau IIA steps of several components on ndarrays, from a
    first step h with n_steps of the step budget spent.

    The rules of ``_radau_steps``, applied to all components on one step
    sequence.  The stage values are (5, dim) arrays; one RHS call per Newton
    iteration evaluates the five stages of every component.  The Newton
    increment and the error estimate are measured in the max norm over the
    components, so that quiet components do not dilute one component's
    error.  The transforms are row combinations (``_rows``), not matrix
    products, so that runs repeat bit for bit and equal components compute
    bit-identical values.  Components equal at a node take one Newton start:
    the extrapolation magnifies the rounding in which their last polynomials
    differ, so they would split again by tens of ulps (a comparison run's
    gap would read that noise), where with one start they stay equal.
    """
    y = np.array(y)
    f = np.array(f)
    rel, ab = cfg.rel_tol, cfg.abs_tol
    newton_tol = max(_NEWTON_TOL_FLOOR / rel, min(0.03, rel**0.5))
    TI, T, PT = _transposed(_RTI), _transposed(_RT), _transposed(_RPT)
    RE = np.array(_RE)[:, None, None]  # the estimate as one row for ``_rows``
    RC = np.array(_RC)[:, None]

    h_old = err_old = None
    prev = None
    J = None
    jac_current = rejected = False
    marks = [-math.inf] * _STALL_STEPS
    while t < t_end:
        if n_steps >= cfg.max_steps:
            return "max_steps"
        n_steps += 1
        h = min(h, t_end - t, cfg.max_step)
        if h < _MIN_STEP or t - marks[-_STALL_STEPS] < 0.1 * abs(t):
            return "step_underflow"
        if J is None:
            J = np.array(jac(t, y), dtype=float)
            jac_current = True
            if not np.all(np.isfinite(J)):
                return "domain_exit"
        m_real = _MU_REAL / h
        ms = [(mu.real / h, mu.imag / h) for mu in _MU_COMPLEX]
        M = _transposed(_eigen_blocks(m_real, ms))
        den_real = m_real - J
        # per component, the division by (mr - J + i mi) is the product
        # with the block of (cr - i mi) / |cr + i mi|^2, cr = mr - J
        blocks = []
        for mr, mi in ms:
            cr = mr - J
            mod = cr * cr + mi * mi
            blocks.append((cr / mod, -mi / mod))
        S = _transposed(_eigen_blocks(1.0 / den_real, blocks))
        scale2 = (ab + rel * np.abs(y)) ** 2
        stage_t = t + RC * h

        if prev is None:
            Z = np.zeros((_RADAU_DENSE, y.size))
        else:
            s = (stage_t - prev.t0) / prev.h
            Z = prev.y0 + s * _poly(prev.Q.T, s) - y
            _, first, where = np.unique(y, return_index=True, return_inverse=True)
            Z = Z[:, first[where]]
        W = _rows(TI, Z)

        converged = False
        norm_old = rate = None
        for it in range(_NEWTON_MAXITER):
            dW = _rows(S, _rows(TI, rhs(stage_t, y + Z)) - _rows(M, W))
            W += dW
            dZ = _rows(T, dW)
            # a non-finite RHS value makes the norm non-finite
            dZ2 = dZ * dZ
            dz_norm = math.sqrt(float((sum(dZ2[1:], dZ2[0]) / scale2).max()) / _RADAU_DENSE)
            if not math.isfinite(dz_norm):
                break
            if norm_old is not None:
                rate = dz_norm / norm_old
                if rate >= 1 or rate ** (_NEWTON_MAXITER - it) / (1 - rate) * dz_norm > newton_tol:
                    break
            Z = Z + dZ
            if dz_norm == 0 or (rate is not None and rate / (1 - rate) * dz_norm < newton_tol):
                converged = True
                break
            norm_old = dz_norm
        if not converged:
            if jac_current:
                h *= 0.5
            else:
                J = None
            continue

        y_new = y + Z[-1]
        ze = _rows(RE, Z)[0] / h
        err = (f + ze) / den_real
        sc = (ab + rel * np.maximum(np.abs(y), np.abs(y_new))) / DENSE_MARGIN
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
        Q = _rows(PT, Z - RC * Z[-1])
        Q[0] += Z[-1]
        prev = _Segment(t, h, y, Q.T)
        yield prev, t_new, y_new, f_new
        if not np.all(np.isfinite(f_new)):
            return "domain_exit"

        factor = min(8.0, max(0.2, safety * _predict_factor(h, h_old, err_norm, err_old)))
        h_old, err_old = h, err_norm
        t, y, f = t_new, y_new, f_new
        if rate is not None and it > 1 and rate > 1e-3:
            J = None
        marks.append(t)
        jac_current = rejected = False
        h *= factor
    return "reached_end"
