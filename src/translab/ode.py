"""Adaptive Runge-Kutta integration with dense output and stop conditions.

Two fixed steppers share one integration loop (stop location, node storage):

* DOP853, Hairer's explicit 8th-order pair with its 5th- and 3rd-order
  error estimate and 7th-order dense output;
* 5-stage Radau IIA (order 9, stiffly accurate, L-stable) with simplified
  Newton iterations and its quintic collocation polynomial as dense output,
  for uncoupled components whose diagonal Jacobian ``jac`` the caller
  supplies.  The stage "solves" are then divisions, one real and two
  complex per component and iteration, on a Jacobian taken at the step's
  midpoint and at its start only where Newton fails with that one.

A one-component run with ``jac`` (a bowl, an ascending catenoid chart)
steps explicitly only while dF/dy leaves the step tolerance-limited
(``STIFF_STEP``) and hands off to Radau IIA, once, before its first stiff
step: a bowl from the axis on, an ascending chart after a short non-stiff
start.  A batched run (``jac`` and several components: a comparison run)
is Radau IIA from its start.  Runs without ``jac`` step explicitly
throughout.  Every step keeps its dense output as
y0 + sum_k Q_k s^(k+1) (``_Segment``), which ``Trajectory`` evaluates and
integrates exactly as arrays, so heights are quadratures of the slope,
never extra state.
Reproducibility matters more here than solver variety, so the tableaux,
the dense-output polynomials and the controllers are all spelled out
below; identical inputs produce bit-identical trajectories.

Each stepper has one step controller and two stage kernels that sum alike,
chosen by the number of components: written-out float expressions for one
(``_dop853_kernel``, ``_Floats``), an order of magnitude faster than
ndarrays at the sizes of the charts; for several, a loop over the DOP853
tableau rows on tuples of floats (the 2-state neck chart), and ndarrays
with one RHS call for the five Radau IIA stages (``_Arrays``).
Trajectories are packed into numpy arrays on exit.

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
from functools import cached_property, reduce
from operator import add, itemgetter, mul
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ParameterError

# DOP853 (Hairer's dop853.f): the nodes _C of stages 0-15 and, per stage, its
# nonzero weights a_ij on the stages j of _A_COLS, in the order of j.  Stage
# 12 is the RHS at the new solution, its row the solution weights b of the
# stages _B_COLS; stages 13-15 serve the dense output only
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
_A_COLS = ((), (0,), (0, 1), (0, 2), (0, 2, 3), (0, 3, 4), (0, 3, 4, 5), (0, 3, 4, 5, 6),
           (0, 3, 4, 5, 6, 7), (0, *range(3, 9)), (0, *range(3, 10)), (0, *range(3, 11)),
           (0, *range(5, 12)), (0, *range(6, 13)), (0, 5, 6, 7, 10, 11, 12, 13),
           (0, 5, 6, 7, 8, 12, 13, 14))
_B_COLS = _A_COLS[12]
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

# The handoff rule of the one-component runs with ``jac``: before each
# explicit step, the first included, with lam = |dF/dy| at its start and h
# its size, the run moves to Radau IIA, once, if h lam >= STIFF_STEP
# (stability is about to bound the step).  A bowl, with lam ~ 2-5 / r at the
# axis, hands off before its first step.  RHS calls per traced pass (seed 1)
# of the benchmark's bowl and catenoid jobs, with the Jacobian at the step's
# start and the bowl from r 1e-6 on, at STIFF_STEP = 0.1: 10,365,
# 26,660; 0.3: 10,365, 24,350; 1: 10,365, 27,032; Radau IIA from the first
# step: 10,365, 27,209, for on the non-stiff start of a catenoid chart its
# order-5 step control takes 2-4 times DOP853's steps (sk:k=3,n=5's lower
# tail: 97 -> 218 steps).
STIFF_STEP = 0.3
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
_EIGEN_AT = np.array([[1, 0, 0, 0, 0], [0, 2, 3, 0, 0], [0, 4, 2, 0, 0],  # see _eigen_blocks
                      [0, 0, 0, 5, 6], [0, 0, 0, 7, 5]])
# coefficients per component of a Radau IIA step's dense output, one per stage
_RADAU_DENSE = len(_RC)
_ERR_EXP = -1 / (_RADAU_DENSE + 1)
# the Newton cap and tolerance floor: on the bowl and catenoid CLI jobs 6-12
# iterations move the RHS calls by under 1%, floors of 10, 30 and 100 eps take
# 16,315, 15,912 and 15,615 bowl calls, and one above 0.03 stalls bowls at
# rel_tol 1e-14.  The iteration stops on its increment of the stage values: in
# the eigenbasis, whose transform magnifies rounding, the bowl of qk:k=4,n=6 to
# r 5e6 took 592,238 steps where it takes 1,613
_NEWTON_MAXITER = 10
_NEWTON_TOL_FLOOR = 100 * sys.float_info.epsilon
# a step below this length ends the run with 'step_underflow', and so do
# _STALL_STEPS accepted steps, explicit or Radau IIA and possibly across the
# handoff, that advance t by less than a tenth of |t|: on a fold of the slope
# field and past the precision horizon the steps collapse and regrow without
# end (knorm:k=4,n=4 at r 25.9, sk:k=3,n=5 past r 130), and where the RHS is
# NaN at isolated points DOP853 creeps (the neck chart of qk:k=3,n=6 at R
# 1e17); healthy charts take 70-200 steps, the bowl of qk:k=4,n=6 to r 5e6 1,613
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
        self.y0 = y0  # floats, or an ndarray on the batched Radau IIA kernel
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
    # where the run moved to Radau IIA (the start, if before any explicit
    # step), or None if it did not
    handoff: Optional[float] = None

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

    The steps are explicit DOP853, on floats for one component and tuples for
    several (``_dop853_kernel``).  ``jac`` returns the diagonal of d rhs / dy
    of a system whose component i depends on y[i] alone, and with it the
    steps are Radau IIA, stable at any step size (``Trajectory.handoff``):
    on one component from the first step on which it is stiff (``STIFF_STEP``),
    on several from t0, with Hairer's first step in the max norm over the
    components.  Components integrated together share one step sequence, so
    the difference of two solutions is that of one discrete flow.

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
    Non-finite RHS values end the trajectory with termination 'domain_exit';
    a step-size underflow, or a stall (``_STALL_STEPS`` accepted steps that
    advance t by less than a tenth of |t|), with 'step_underflow'; running
    out of ``max_steps`` step attempts with 'max_steps'; reaching t_end with
    'reached_end'.
    """
    cfg = config or IntegratorConfig()
    if t_end <= t0:
        raise ParameterError(f"t_end must exceed t0, got {t0} -> {t_end}")
    batched = jac is not None and len(state0) > 1
    kernel = (_Arrays if batched else _Floats)(rhs, jac)  # the Radau IIA stage kernel
    # lists of floats go to the broadcasting maps of a batched run (NaN stays NaN)
    step_rhs = (lambda t, y: rhs(t, np.array(y)).tolist()) if batched else rhs
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

    if batched:
        # Radau IIA from t0 on, from Hairer's first step in the max norm
        handoff = t
        steps = _radau_steps(kernel, t, y, f, t_end, cfg,
                             _explicit_first_step(step_rhs, t, y, f, t_end, cfg, max), 0)
    else:
        handoff = None
        stiffness = jac and (lambda t, y: abs(kernel.call(jac, t, y[0])))
        steps = _dop853_steps(rhs, stiffness, t, y, f, t_end, cfg)
    while True:
        try:
            seg, t_new, y_new, f_new = next(steps)
        except StopIteration as done:
            termination = done.value
            if isinstance(termination, str):
                break
            # the explicit steps found the run stiff at the last node
            handoff = ts[-1]
            steps = _radau_steps(kernel, handoff, ys[-1], fs[-1], t_end, cfg, *termination)
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
        # the stall rule (see _STALL_STEPS)
        if (len(ts) > _STALL_STEPS and t_new < t_end
                and t_new - ts[-_STALL_STEPS] < 0.1 * abs(t_new)):
            termination = "step_underflow"
            break

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


def _dop853_steps(rhs, stiffness, t, y, k0, t_end, cfg):
    """Accepted DOP853 steps as (segment, t_new, y_new, f_new) from y and its
    RHS k0, on the kernel for len(y) (``_dop853_kernel``), with Hairer's step
    control (exponent 1/8, safety 0.9, factors in [1/3, 6], none above 1 after
    a rejection), the error in Hairer's RMS norm over the components, and
    non-finite stages halving the step.  ``stiffness(t, y)`` is |d rhs / dy|
    of a one-component run with ``jac``, else None.  Returns the termination
    reason or, before a step of size h with h stiffness >= ``STIFF_STEP``,
    (h, step attempts).
    """
    h = _explicit_first_step(rhs, t, y, k0, t_end, cfg, sum)
    step = _dop853_kernel(rhs, len(y), cfg.rel_tol, cfg.abs_tol)
    rejected = False
    n_steps = 0
    while t < t_end:
        h = min(h, t_end - t, cfg.max_step)
        # the handoff rule (see STIFF_STEP); a NaN stiffness fails it
        if stiffness is not None and h * stiffness(t, y) >= STIFF_STEP:
            return h, n_steps
        if n_steps >= cfg.max_steps:
            return "max_steps"
        n_steps += 1
        if h < _MIN_STEP:
            return "step_underflow"

        err, y_new, Q, k12 = step(t, h, y, k0)
        if not err <= 1.0:
            rejected = True
            h *= max(1 / 3, 0.9 * err**-0.125) if math.isfinite(err) else 0.5
            if h < _MIN_STEP and not math.isfinite(err):
                return "domain_exit"
            continue
        t_new = t + h
        yield _Segment(t, h, y, Q), t_new, y_new, k12

        t, y, k0 = t_new, y_new, k12
        h *= min(1.0 if rejected else 6.0, 0.9 * err**-0.125 if err > 0 else 6.0)
        rejected = False
    return "reached_end"


def _dop853_kernel(rhs, dim, rel, ab):
    """One DOP853 step on ``dim`` components, a closure over the tableau:
    step(t, h, y, k0) -> (err, y_new, Q, k12), err scaled by DENSE_MARGIN and
    Nones past an err above 1 or NaN; written-out floats for one component, a
    loop over the tableau rows (``_A_COLS``) for several, both summing left to
    right (``reduce``: ``sum`` is compensated from Python 3.12 on), so bit for
    bit alike."""
    _, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, _, _, c13, c14, c15 = _C
    ((a1_0,), (a2_0, a2_1), (a3_0, a3_2), (a4_0, a4_2, a4_3), (a5_0, a5_3, a5_4),
     (a6_0, a6_3, a6_4, a6_5), (a7_0, a7_3, a7_4, a7_5, a7_6),
     (a8_0, a8_3, a8_4, a8_5, a8_6, a8_7), (a9_0, a9_3, a9_4, a9_5, a9_6, a9_7, a9_8),
     (a10_0, a10_3, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
     (a11_0, a11_3, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10),
     b, (a13_0, a13_6, a13_7, a13_8, a13_9, a13_10, a13_11, a13_12),
     (a14_0, a14_5, a14_6, a14_7, a14_10, a14_11, a14_12, a14_13),
     (a15_0, a15_5, a15_6, a15_7, a15_8, a15_12, a15_13, a15_14)) = _A[1:]
    if dim == 1:
        b0, b5, b6, b7, b8, b9, b10, b11 = b
        e5_0, e5_5, e5_6, e5_7, e5_8, e5_9, e5_10, e5_11 = _E5
        e3_0, e3_5, e3_6, e3_7, e3_8, e3_9, e3_10, e3_11 = _E3
        # the weights of stages 0 and 5-15 in F3 (p), F4 (q), F5 (r) and F6 (w)
        ((p0, p5, p6, p7, p8, p9, p10, p11, p12, p13, p14, p15),
         (q0, q5, q6, q7, q8, q9, q10, q11, q12, q13, q14, q15),
         (r0, r5, r6, r7, r8, r9, r10, r11, r12, r13, r14, r15),
         (w0, w5, w6, w7, w8, w9, w10, w11, w12, w13, w14, w15)) = _D
        def step(t, h, y, k0):
            (y0,), (x0,) = y, k0
            x1, = rhs(t + c1 * h, (y0 + h * a1_0 * x0,))
            x2, = rhs(t + c2 * h, (y0 + h * (a2_0 * x0 + a2_1 * x1),))
            x3, = rhs(t + c3 * h, (y0 + h * (a3_0 * x0 + a3_2 * x2),))
            x4, = rhs(t + c4 * h, (y0 + h * (a4_0 * x0 + a4_2 * x2 + a4_3 * x3),))
            x5, = rhs(t + c5 * h, (y0 + h * (a5_0 * x0 + a5_3 * x3 + a5_4 * x4),))
            x6, = rhs(t + c6 * h, (y0 + h * (a6_0 * x0 + a6_3 * x3 + a6_4 * x4 + a6_5 * x5),))
            x7, = rhs(t + c7 * h, (y0 + h * (a7_0 * x0 + a7_3 * x3 + a7_4 * x4 + a7_5 * x5
                                            + a7_6 * x6),))
            x8, = rhs(t + c8 * h, (y0 + h * (a8_0 * x0 + a8_3 * x3 + a8_4 * x4 + a8_5 * x5
                                            + a8_6 * x6 + a8_7 * x7),))
            x9, = rhs(t + c9 * h, (y0 + h * (a9_0 * x0 + a9_3 * x3 + a9_4 * x4 + a9_5 * x5
                                            + a9_6 * x6 + a9_7 * x7 + a9_8 * x8),))
            x10, = rhs(t + c10 * h, (y0 + h * (a10_0 * x0 + a10_3 * x3 + a10_4 * x4 + a10_5 * x5
                                               + a10_6 * x6 + a10_7 * x7 + a10_8 * x8
                                               + a10_9 * x9),))
            x11, = rhs(t + h, (y0 + h * (a11_0 * x0 + a11_3 * x3 + a11_4 * x4 + a11_5 * x5
                                         + a11_6 * x6 + a11_7 * x7 + a11_8 * x8 + a11_9 * x9
                                         + a11_10 * x10),))
            y1 = y0 + h * (0.0 + b0 * x0 + b5 * x5 + b6 * x6 + b7 * x7 + b8 * x8 + b9 * x9
                           + b10 * x10 + b11 * x11)
            sc = ab + rel * max(abs(y0), abs(y1))
            err5 = ((0.0 + e5_0 * x0 + e5_5 * x5 + e5_6 * x6 + e5_7 * x7 + e5_8 * x8 + e5_9 * x9
                     + e5_10 * x10 + e5_11 * x11) / sc) ** 2
            err3 = ((0.0 + e3_0 * x0 + e3_5 * x5 + e3_6 * x6 + e3_7 * x7 + e3_8 * x8 + e3_9 * x9
                     + e3_10 * x10 + e3_11 * x11) / sc) ** 2
            den = err5 + 0.01 * err3
            err = DENSE_MARGIN * h * err5 / math.sqrt(den) if den != 0 else 0.0
            if not err <= 1.0:
                return err, None, None, None
            x12, = k12 = rhs(t + h, (y1,))
            x13, = rhs(t + c13 * h, (y0 + h * (a13_0 * x0 + a13_6 * x6 + a13_7 * x7 + a13_8 * x8
                                               + a13_9 * x9 + a13_10 * x10 + a13_11 * x11
                                               + a13_12 * x12),))
            x14, = rhs(t + c14 * h, (y0 + h * (a14_0 * x0 + a14_5 * x5 + a14_6 * x6 + a14_7 * x7
                                               + a14_10 * x10 + a14_11 * x11 + a14_12 * x12
                                               + a14_13 * x13),))
            x15, = rhs(t + c15 * h, (y0 + h * (a15_0 * x0 + a15_5 * x5 + a15_6 * x6 + a15_7 * x7
                                               + a15_8 * x8 + a15_12 * x12 + a15_13 * x13
                                               + a15_14 * x14),))
            if not math.isfinite(y1 + x12 + x13 + x14 + x15):
                return math.nan, None, None, None
            f0 = y1 - y0
            f1 = h * x0 - f0
            f2 = 2 * f0 - h * (x0 + x12)
            f3 = h * (0.0 + p0 * x0 + p5 * x5 + p6 * x6 + p7 * x7 + p8 * x8 + p9 * x9 + p10 * x10
                      + p11 * x11 + p12 * x12 + p13 * x13 + p14 * x14 + p15 * x15)
            f4 = h * (0.0 + q0 * x0 + q5 * x5 + q6 * x6 + q7 * x7 + q8 * x8 + q9 * x9 + q10 * x10
                      + q11 * x11 + q12 * x12 + q13 * x13 + q14 * x14 + q15 * x15)
            f5 = h * (0.0 + r0 * x0 + r5 * x5 + r6 * x6 + r7 * x7 + r8 * x8 + r9 * x9 + r10 * x10
                      + r11 * x11 + r12 * x12 + r13 * x13 + r14 * x14 + r15 * x15)
            f6 = h * (0.0 + w0 * x0 + w5 * x5 + w6 * x6 + w7 * x7 + w8 * x8 + w9 * x9 + w10 * x10
                      + w11 * x11 + w12 * x12 + w13 * x13 + w14 * x14 + w15 * x15)
            Q = (f0 + f1, f2 + f3 - f1, f4 + f5 - f2 - 2 * f3, f3 + f6 - 2 * f4 - 3 * f5,
                 f4 + 3 * (f5 - f6), 3 * f6 - f5, -f6)
            return err, (y1,), (Q,), k12
        return step

    def stage(i, t, h, y, ks):
        """The RHS at stage i >= 2 from the stages on its columns, each
        component's weights summed left to right as the written-out rows are."""
        return rhs(t + _C[i] * h, [y0 + h * reduce(add, map(mul, _A[i], x))
                                   for y0, x in zip(y, zip(*[ks[j] for j in _A_COLS[i]]))])

    def step(t, h, y, k0):
        ks = [k0, rhs(t + c1 * h, [y0 + h * a1_0 * x0 for y0, x0 in zip(y, k0)])]
        for i in range(2, 12):
            ks.append(stage(i, t, h, y, ks))
        xs = list(zip(*[ks[j] for j in _B_COLS]))  # per component
        y_new = [y0 + h * reduce(add, map(mul, b, x), 0.0) for y0, x in zip(y, xs)]
        sc = [ab + rel * max(abs(y0), abs(y1)) for y0, y1 in zip(y, y_new)]
        err5 = sum([(reduce(add, map(mul, _E5, x), 0.0) / s) ** 2 for x, s in zip(xs, sc)])
        err3 = sum([(reduce(add, map(mul, _E3, x), 0.0) / s) ** 2 for x, s in zip(xs, sc)])
        den = err5 + 0.01 * err3
        err = DENSE_MARGIN * h * err5 / math.sqrt(den * dim) if den != 0 else 0.0
        if not err <= 1.0:
            return err, None, None, None
        ks.append(rhs(t + h, y_new))
        for i in range(13, 16):
            ks.append(stage(i, t, h, y, ks))
        if not math.isfinite(sum(y_new) + sum(map(sum, ks[12:]))):
            return math.nan, None, None, None
        Q = []
        # per component, stages 0 and 5-15, the ones _D weights (stage 12 at x[8])
        for y0, y1, x in zip(y, y_new, zip(ks[0], *ks[5:])):
            f0 = y1 - y0
            f1 = h * x[0] - f0
            f2 = 2 * f0 - h * (x[0] + x[8])
            f3, f4, f5, f6 = [h * reduce(add, map(mul, d, x), 0.0) for d in _D]
            Q.append((f0 + f1, f2 + f3 - f1, f4 + f5 - f2 - 2 * f3, f3 + f6 - 2 * f4 - 3 * f5,
                      f4 + 3 * (f5 - f6), 3 * f6 - f5, -f6))
        return err, y_new, Q, ks[12]

    return step


def _predict_factor(h, h_old, err, err_old):
    """Step-size factor of the predictive (Gustafsson) controller."""
    if err == 0.0:
        return 10.0
    if err_old is None:
        return err**_ERR_EXP
    return min(1.0, h / h_old * (err_old / err) ** -_ERR_EXP) * err**_ERR_EXP


def _rows(AT, X):
    """A X for X of shape (n, dim), given AT[j, i] = A[i, j] (of shape
    (n, n, 1), or (n, n, dim) for one matrix per component).  Each row is
    summed as the written-out combination a0 * x0 + a1 * x1 + ..., without
    a matrix product: one reduction over the outer axis, which numpy adds
    row after row, left to right."""
    return np.add.reduce(AT * X[:, None], axis=0)


def _eigen_blocks(real, mr1, mi1, mr2, mi2):
    """The 5x5 matrix of w -> (real w0, m1 (w1 + i w2), m2 (w3 + i w4)),
    m = mr + i mi, laid out for ``_rows``: (5, 5, dim), entry [j, i] the row
    ``_EIGEN_AT[j, i]`` of the stack (0, real, mr1, mi1, -mi1, mr2, mi2, -mi2)
    of (dim,) arrays, one value per component."""
    return np.array((np.zeros(real.shape), real, mr1, mi1, -mi1, mr2, mi2, -mi2))[_EIGEN_AT]


def _transform(M):
    """x -> M x on five floats, one written-out expression per row summed left
    to right as ``_rows`` sums it, with the entries of M in closure cells."""
    ((m00, m01, m02, m03, m04), (m10, m11, m12, m13, m14), (m20, m21, m22, m23, m24),
     (m30, m31, m32, m33, m34), (m40, m41, m42, m43, m44)) = M
    def product(x0, x1, x2, x3, x4):
        return (m00 * x0 + m01 * x1 + m02 * x2 + m03 * x3 + m04 * x4,
                m10 * x0 + m11 * x1 + m12 * x2 + m13 * x3 + m14 * x4,
                m20 * x0 + m21 * x1 + m22 * x2 + m23 * x3 + m24 * x4,
                m30 * x0 + m31 * x1 + m32 * x2 + m33 * x3 + m34 * x4,
                m40 * x0 + m41 * x1 + m42 * x2 + m43 * x3 + m44 * x4)
    return product


_rti, _rt, _rpt = _transform(_RTI), _transform(_RT), _transform(_RPT)


class _Floats:
    """The Radau IIA stage arithmetic of one component on plain floats, one
    of the two stage kernels of ``_radau_steps``.  A kernel loads a state
    tuple, calls the RHS or ``jac`` on a state, takes the max norm and the
    element-wise maximum, and holds the stage times with the Newton start
    extrapolated from the last segment (Z and its transform W), the stage
    solve's coefficients at h and J (``solver``), one simplified Newton
    iteration (W + dW, Z + dZ and the norm of dZ), the error estimate's
    combination of the stages and the accepted step as ``integrate`` keeps it.

    Here Z and W are five floats, named stage by stage, and the transforms
    are ``_transform``'s products: the operations are those of ``_Arrays``
    on one component, so that both take the same steps.
    """

    load, norm, maximum = itemgetter(0), abs, max

    def __init__(self, rhs, jac):
        self.rhs, self.jac = rhs, jac

    @staticmethod
    def call(fn, t, y):
        return float(fn(t, (y,))[0])

    @staticmethod
    def start(prev, t, h, y):
        c0, c1, c2, c3, c4 = _RC
        stage_t = t + c0 * h, t + c1 * h, t + c2 * h, t + c3 * h, t + c4 * h
        if prev is None:
            return stage_t, (0.0,) * 5, (0.0,) * 5  # W = TI Z is exactly zero too
        (py,), ((q0, q1, q2, q3, q4),) = prev.y0, prev.Q
        z0, z1, z2, z3, z4 = [py + s * (q0 + s * (q1 + s * (q2 + s * (q3 + s * q4)))) - y
                              for s in [(ts - prev.t0) / prev.h for ts in stage_t]]
        return stage_t, (z0, z1, z2, z3, z4), _rti(z0, z1, z2, z3, z4)

    @staticmethod
    def solver(h, J):
        """mu / h and 1 / (mu / h - J) for the real eigenvalue mu, then (mr, mi,
        a, b) with mr + i mi = mu / h and a - i b = 1 / (mr - J + i mi) for each
        complex one; elementwise on an array J."""
        m_real = _MU_REAL / h
        coeffs = [m_real, 1.0 / (m_real - J)]
        for mu in _MU_COMPLEX:
            mr, mi = mu.real / h, mu.imag / h
            cr = mr - J
            mod = cr * cr + mi * mi
            coeffs += mr, mi, cr / mod, mi / mod
        return coeffs

    def newton(self, stage_t, y, Z, W, solve, scale2):
        m_real, inv_real, mr1, mi1, a1, b1, mr2, mi2, a2, b2 = solve
        rhs = self.rhs
        (t0, t1, t2, t3, t4), (z0, z1, z2, z3, z4), (w0, w1, w2, w3, w4) = stage_t, Z, W
        g0, g1, g2, g3, g4 = _rti(rhs(t0, (y + z0,))[0], rhs(t1, (y + z1,))[0],
                                  rhs(t2, (y + z2,))[0], rhs(t3, (y + z3,))[0],
                                  rhs(t4, (y + z4,))[0])
        r0 = g0 - m_real * w0
        r1, r2 = g1 - (mr1 * w1 - mi1 * w2), g2 - (mi1 * w1 + mr1 * w2)
        r3, r4 = g3 - (mr2 * w3 - mi2 * w4), g4 - (mi2 * w3 + mr2 * w4)
        d0, d1, d2 = inv_real * r0, a1 * r1 + b1 * r2, a1 * r2 - b1 * r1
        d3, d4 = a2 * r3 + b2 * r4, a2 * r4 - b2 * r3
        e0, e1, e2, e3, e4 = _rt(d0, d1, d2, d3, d4)
        dz2 = (e0 * e0 + e1 * e1 + e2 * e2 + e3 * e3 + e4 * e4) / scale2
        return ((w0 + d0, w1 + d1, w2 + d2, w3 + d3, w4 + d4),
                (z0 + e0, z1 + e1, z2 + e2, z3 + e3, z4 + e4), math.sqrt(dz2 / _RADAU_DENSE))

    @staticmethod
    def estimate(Z):
        (z0, z1, z2, z3, z4), (e0, e1, e2, e3, e4) = Z, _RE
        return e0 * z0 + e1 * z1 + e2 * z2 + e3 * z3 + e4 * z4

    @staticmethod
    def accepted(t, h, y, Z, y_new, f_new):
        # P^T maps the chord s Z_5 to (Z_5, 0, ..., 0): the stages' deviations
        # from it, small on a smooth step, keep the large _RP's rounding off Q
        (z0, z1, z2, z3, z4), (c0, c1, c2, c3, c4) = Z, _RC
        q0, q1, q2, q3, q4 = _rpt(z0 - c0 * z4, z1 - c1 * z4, z2 - c2 * z4, z3 - c3 * z4,
                                  z4 - c4 * z4)
        return _Segment(t, h, (y,), ((q0 + z4, q1, q2, q3, q4),)), (y_new,), (f_new,)


class _Arrays:
    """The Radau IIA stage arithmetic of several components on ndarrays (see
    ``_Floats``).  Z and W are (5, dim) arrays, one RHS call per Newton
    iteration evaluates the five stages of every component, and the stage
    solve's blocks are mu / h (``MU``) and one gather.  The transforms are
    row combinations, one reduction each (``_rows``), not matrix products,
    so that runs repeat bit for bit and equal components compute
    bit-identical values.  Components equal at a node take one Newton start:
    the extrapolation magnifies the rounding in which their last polynomials
    differ, so they would split again by tens of ulps (a comparison run's
    gap would read that noise), where with one start they stay equal.
    """

    TI, T, PT = (np.ascontiguousarray(np.transpose(A))[:, :, None] for A in (_RTI, _RT, _RPT))
    RE = np.array(_RE)[:, None, None]  # the estimate as one row for ``_rows``
    # the block of mu / h, one for every component: (-mi) / h is -(mi / h) and 0 / h is 0
    MU = _eigen_blocks(*np.array([_MU_REAL, *np.array(_MU_COMPLEX).view(float)])[:, None])
    RC = np.array(_RC)[:, None]
    load, maximum = np.array, np.maximum

    def __init__(self, rhs, jac):
        self.rhs, self.jac = rhs, jac
        self.groups = (None, None)  # the number of distinct components, each one's first equal

    @staticmethod
    def call(fn, t, y):
        return np.array(fn(t, y), dtype=float)

    @staticmethod
    def norm(x):
        return float(np.abs(x).max())

    def start(self, prev, t, h, y):
        stage_t = t + _Arrays.RC * h
        if prev is None:
            Z = np.zeros((_RADAU_DENSE, y.size))
        else:
            s = (stage_t - prev.t0) / prev.h
            Z = prev.y0 + s * _poly(prev.Q.T, s) - y
            distinct = len(set(y.tolist()))
            if distinct < y.size:  # else the map is the identity
                if distinct != self.groups[0]:  # equal components stay equal: groups only merge
                    _, first, where = np.unique(y, return_index=True, return_inverse=True)
                    self.groups = distinct, first[where]
                Z = Z[:, self.groups[1]]
        return stage_t, Z, _rows(_Arrays.TI, Z)

    @staticmethod
    def solver(h, J):
        _, inv_real, _, _, a1, b1, _, _, a2, b2 = _Floats.solver(h, J)
        return _Arrays.MU / h, _eigen_blocks(inv_real, a1, -b1, a2, -b2)

    def newton(self, stage_t, y, Z, W, solve, scale2):
        M, S = solve
        dW = _rows(S, _rows(self.TI, self.rhs(stage_t, y + Z)) - _rows(M, W))
        dZ = _rows(self.T, dW)
        dz2 = np.add.reduce(dZ * dZ, axis=0) / scale2
        return W + dW, Z + dZ, math.sqrt(float(dz2.max()) / _RADAU_DENSE)

    @staticmethod
    def estimate(Z):
        return _rows(_Arrays.RE, Z)[0]

    @staticmethod
    def accepted(t, h, y, Z, y_new, f_new):
        Q = _rows(_Arrays.PT, Z - _Arrays.RC * Z[-1])
        Q[0] += Z[-1]
        return _Segment(t, h, y, Q.T), y_new, f_new


def _radau_steps(kernel, t, y, f, t_end, cfg, h, n_steps):
    """Accepted Radau IIA steps as (segment, t_new, y_new, f_new), from a
    first step h with n_steps of the step budget spent, on the stage
    arithmetic of ``kernel`` (``_Floats`` for one component, ``_Arrays``
    for several on one step sequence).

    The stage system is solved by simplified Newton in the eigenbasis of
    the Radau coefficient matrix, so each iteration costs five RHS
    evaluations and, per component, one real and two complex divisions; the
    iteration stops on its increment of the stage values.  The previous
    collocation polynomial, extrapolated, starts the iteration; the Jacobian
    is re-evaluated only when the iteration slows down or fails, at the
    step's midpoint (t + h/2, y + h/2 f): at (t, y) the iteration contracts
    at a rate near h/r on a bowl's tail (mean:n=3 to r 500: 537 iterations
    against 472).  Where Newton fails with it, or it is not finite, the
    same step is tried with the Jacobian at (t, y) before h is halved
    (without that, mean:n=3 stalls at r 5.9e5 on its way to 1e6).  The
    Newton increment and the error estimate are measured in the kernel's
    norm, the max norm over the components.  Returns the termination reason
    when the steps end.
    """
    y, f = kernel.load(y), kernel.load(f)
    rel, ab = cfg.rel_tol, cfg.abs_tol
    newton_tol = min(0.03, max(_NEWTON_TOL_FLOOR / rel, rel**0.5))

    h_old = err_old = None
    prev = None  # the last accepted segment: its polynomial starts Newton
    J = None
    fresh, rejected = None, False  # fresh: this step's Jacobian at "mid" or "start"
    while t < t_end:
        if n_steps >= cfg.max_steps:
            return "max_steps"
        n_steps += 1
        h = min(h, t_end - t, cfg.max_step)
        if h < _MIN_STEP:
            return "step_underflow"
        if J is None and fresh != "mid":
            J, fresh = kernel.call(kernel.jac, t + 0.5 * h, y + 0.5 * h * f), "mid"
            if not math.isfinite(kernel.norm(J)):
                J = None
        if J is None:
            J, fresh = kernel.call(kernel.jac, t, y), "start"
            if not math.isfinite(kernel.norm(J)):
                return "domain_exit"
        den_real = _MU_REAL / h - J
        solve = kernel.solver(h, J)
        scale2 = (ab + rel * abs(y)) ** 2
        stage_t, Z, W = kernel.start(prev, t, h, y)

        converged = False
        norm_old = rate = None
        for it in range(_NEWTON_MAXITER):
            # a non-finite RHS value makes the norm non-finite
            W, Z_next, dz_norm = kernel.newton(stage_t, y, Z, W, solve, scale2)
            if not math.isfinite(dz_norm):
                break
            if norm_old is not None:
                rate = dz_norm / norm_old
                # stop when diverging or when the remaining iterations
                # cannot reach the tolerance at this rate
                if rate >= 1 or rate ** (_NEWTON_MAXITER - it) / (1 - rate) * dz_norm > newton_tol:
                    break
            Z = Z_next
            if dz_norm == 0 or (rate is not None and rate / (1 - rate) * dz_norm < newton_tol):
                converged = True
                break
            norm_old = dz_norm
        if not converged:
            if fresh == "start":
                h *= 0.5
            else:
                J = None  # retry the same step with a fresh Jacobian
            continue

        y_new = y + Z[-1]
        ze = kernel.estimate(Z) / h
        err = (f + ze) / den_real
        sc = (ab + rel * kernel.maximum(abs(y), abs(y_new))) / DENSE_MARGIN
        err_norm = kernel.norm(err / sc)
        if rejected and err_norm > 1.0:
            # after a rejection the estimate is filtered once more through
            # the RHS, which keeps it honest on the stiff components
            err = (kernel.call(kernel.rhs, t, y + err) + ze) / den_real
            err_norm = kernel.norm(err / sc)
        safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + it + 1)
        if not err_norm <= 1.0:
            if math.isfinite(err_norm):
                h *= max(0.2, safety * _predict_factor(h, h_old, err_norm, err_old))
            else:
                h *= 0.5
            rejected = True
            continue

        t_new = t + h
        f_new = kernel.call(kernel.rhs, t_new, y_new)
        prev, y_out, f_out = kernel.accepted(t, h, y, Z, y_new, f_new)
        yield prev, t_new, y_out, f_out
        if not math.isfinite(kernel.norm(f_new)):
            return "domain_exit"

        factor = min(8.0, max(0.2, safety * _predict_factor(h, h_old, err_norm, err_old)))
        h_old, err_old = h, err_norm
        t, y, f = t_new, y_new, f_new
        # a slow iteration asks for the Jacobian of the new point
        if rate is not None and it > 1 and rate > 1e-3:
            J = None
        fresh, rejected = None, False
        h *= factor
    return "reached_end"
