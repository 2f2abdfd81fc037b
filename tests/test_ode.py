"""Integrator: accuracy, stops, dense output, determinism, order."""

import math

import numpy as np
import pytest

from translab import ode
from translab.errors import ParameterError
from translab.ode import IntegratorConfig, integrate


def test_exponential():
    tr = integrate(lambda t, y: (y[0],), 0.0, [1.0], 1.0)
    assert tr.ys[-1, 0] == pytest.approx(math.e, abs=1e-9)
    assert tr.termination == "reached_end"


def test_cosine_no_tangential_event():
    # sin t touches 1 at the end without crossing: the stop does not fire
    tr = integrate(
        lambda t, y: (math.cos(t),), 0.0, [0.0], math.pi / 2, stops=[lambda t, y: y[0] - 1.0]
    )
    assert tr.termination == "reached_end"
    assert tr.stop is None
    assert tr.ys[-1, 0] == pytest.approx(1.0, abs=1e-9)


def test_linear_flow_event_location():
    th0 = 0.3
    tr = integrate(
        lambda t, y: (1.0,),
        0.0,
        [th0],
        10.0,
        stops=[lambda t, y: y[0] - math.pi / 2],
    )
    assert tr.termination == "terminal_event"
    assert tr.stop == 0
    assert tr.t_final == pytest.approx(math.pi / 2 - th0, abs=1e-10)
    assert tr.ys[-1, 0] == pytest.approx(math.pi / 2, abs=1e-10)


def test_event_sign_change_bracketing():
    # the stop point really separates signs of the stop function, and the
    # trajectory ends there
    tr = integrate(lambda t, y: (y[0],), 0.0, [1.0], 2.0, stops=[lambda t, y: y[0] - 2.0])
    assert (tr.termination, tr.stop) == ("terminal_event", 0)
    t_ev = tr.t_final
    g_before = math.exp(t_ev - ode._STOP_TOL) - 2.0
    g_after = math.exp(t_ev + ode._STOP_TOL) - 2.0
    assert g_before <= 0 <= g_after or abs(g_before) < 1e-10


def test_stop_past_t_8192_ends():
    # past t = 8192 an ulp of t exceeds the bisection tolerance, so the
    # bisection ends where its midpoint rounds to an end of the bracket
    tr = integrate(lambda t, y: (1.0,), 0.0, [0.0], 2e4, stops=(lambda t, y: y[0] - 1e4,))
    assert (tr.termination, tr.stop) == ("terminal_event", 0)
    assert tr.t_final == pytest.approx(1e4, rel=1e-15)


def test_falling_direction_filter():
    # y = cos t crosses 0.5 falling at t = pi/3: a stop fires on rising
    # crossings only, so y - 0.5 never fires and 0.5 - y does
    tr = integrate(lambda t, y: (-math.sin(t),), 0.0, [1.0], 3.0,
                   stops=[lambda t, y: y[0] - 0.5, lambda t, y: 0.5 - y[0]])
    assert tr.stop == 1
    assert tr.t_final == pytest.approx(math.pi / 3, abs=1e-8)


def test_earliest_stop_fires():
    # two stops crossing inside one step: the earlier crossing ends the run
    tr = integrate(lambda t, y: (1.0,), 0.0, [0.0], 10.0,
                   stops=[lambda t, y: y[0] - 0.4, lambda t, y: y[0] - 0.2])
    last = tr.segments[-1]
    assert last.t0 < 0.2 and last.t0 + last.h > 0.4
    assert tr.stop == 1
    assert tr.t_final == pytest.approx(0.2, abs=1e-10)
    assert tr.fs[-1, 0] == 1.0


def test_resample_accuracy_and_nodes():
    tr = integrate(lambda t, y: (y[0],), 0.0, [1.0], 1.0)
    v = tr.resample([0.5])[0, 0]
    assert v == pytest.approx(math.exp(0.5), abs=1e-9)
    i = len(tr.ts) // 2
    assert tr.resample([tr.ts[i]])[0, 0] == pytest.approx(tr.ys[i, 0], abs=1e-12)
    # the dense output integrates exactly: int_0^t e^x dx = e^t - 1
    nodes = tr.node_integrals(0.0)
    assert nodes == pytest.approx(np.exp(tr.ts) - 1.0, abs=1e-9)
    grid = np.linspace(0.0, 1.0, 97)
    assert tr.integral_at(grid, nodes) == pytest.approx(np.exp(grid) - 1.0, abs=1e-9)
    # the array evaluation equals the per-step one bit for bit
    idx = tr.segment_index(grid)
    per_step = [tr.ys[0] if t <= tr.ts[0] else tr.segments[j].eval(float(t))
                for t, j in zip(grid, idx)]
    assert np.array_equal(tr.resample(grid), np.array(per_step))


def test_resample_out_of_range():
    tr = integrate(lambda t, y: (y[0],), 0.0, [1.0], 1.0)
    with pytest.raises(ParameterError):
        tr.resample([2.0])


def test_empirical_order_at_least_four():
    # fixed-step operation: loose tolerances make the controller accept the
    # max_step; halving it must shrink the error by >= 2^4.  DOP853 is of
    # order 8: the steps are long enough for the error to stay clear of
    # round-off, and the ratio (~2^7.9 here) is held to at least 2^7
    errs = []
    for h in (0.25, 0.125):
        cfg = IntegratorConfig(rel_tol=0.5, abs_tol=0.5, max_step=h)
        tr = integrate(lambda t, y: (y[0],), 0.0, [1.0], 1.0, cfg)
        errs.append(abs(tr.ys[-1, 0] - math.e))
    assert errs[0] / errs[1] >= 2.0**7


def test_tolerance_monotonicity():
    errs = []
    for rt in (1e-6, 1e-8):
        cfg = IntegratorConfig(rel_tol=rt, abs_tol=1e-14)
        tr = integrate(lambda t, y: (y[0],), 0.0, [1.0], 1.0, cfg)
        errs.append(abs(tr.ys[-1, 0] - math.e))
    assert errs[1] < errs[0]


def test_determinism_bit_identical():
    def rhs(t, y):
        return (math.sin(t) * y[0] + 0.1 * y[1], y[0] - y[1] ** 2)

    a = integrate(rhs, 0.0, [1.0, 0.3], 4.0)
    b = integrate(rhs, 0.0, [1.0, 0.3], 4.0)
    assert np.array_equal(a.ts, b.ts)
    assert np.array_equal(a.ys, b.ys)


def test_blowup_gives_partial_trajectory():
    tr = integrate(lambda t, y: (y[0] ** 2,), 0.0, [1.0], 2.0)
    assert tr.termination == "step_underflow"
    assert tr.t_final < 1.0 + 1e-6


def test_nonfinite_rhs_domain_exit():
    def rhs(t, y):
        return (math.nan,) if t > 0.5 else (1.0,)

    tr = integrate(rhs, 0.0, [0.0], 2.0)
    assert tr.termination in ("domain_exit", "step_underflow")
    assert tr.t_final <= 0.75


def test_config_validation():
    with pytest.raises(ParameterError):
        IntegratorConfig(rel_tol=-1)
    with pytest.raises(ParameterError):
        integrate(lambda t, y: (1.0,), 1.0, [0.0], 0.5)


# stiff linear scalar problem: y' = -lam (y - cos t) - sin t, exact solution
# cos t + (y0 - 1) exp(-lam t); lam sets the explicit pair's stability limit
_LAM = 1e4


def _stiff_rhs(t, y):
    return (-_LAM * (y[0] - math.cos(t)) - math.sin(t),)


def _stiff_jac(t, y):
    return (-_LAM,)


def _stiff_exact(t):
    return math.cos(t) + math.exp(-_LAM * t)


# the same equation for every component of a batched state: with jac and
# more than one component, rhs broadcasts over (dim,) and (3, dim) states
def _stiff_batch_rhs(t, y):
    return -_LAM * (y - np.cos(t)) - np.sin(t)


def _stiff_batch_jac(t, y):
    return np.full(len(y), -_LAM)


# a problem that turns stiff as t grows: y' = -100 t^2 (y - cos 10t) -
# 10 sin 10t, exact solution cos 10t + (y0 - 1) exp(-100 t^3 / 3), so a
# run with jac steps explicitly until h |dF/dy| = 100 h t^2 reaches
# STIFF_STEP and Radau IIA after it (at t ~ 0.48 from y0 = 2)
def _ramp_rhs(t, y):
    return (-100.0 * t * t * (y[0] - math.cos(10.0 * t)) - 10.0 * math.sin(10.0 * t),)


def _ramp_jac(t, y):
    return (-100.0 * t * t,)


def _ramp_batch_rhs(t, y):
    return -100.0 * t * t * (y - np.cos(10.0 * t)) - 10.0 * np.sin(10.0 * t)


def _ramp_batch_jac(t, y):
    return np.full(len(y), -100.0 * t * t)


def _step_integral(seg, t):
    """The exact integral of one step's first component from its start to
    t, one step at a time: the reference for the array evaluation."""
    s = (t - seg.t0) / seg.h
    return seg.h * s * (seg.y0[0] + ode._poly_integral(seg.Q[0], s))


def test_stiff_step_matches_exact_solution():
    tr = integrate(_stiff_rhs, 0.0, [2.0], 2.0, jac=_stiff_jac)
    assert tr.termination == "reached_end"
    exact = np.array([_stiff_exact(t) for t in tr.ts])
    assert np.max(np.abs(tr.ys[:, 0] - exact)) <= 1e-9
    grid = np.linspace(0.01, 2.0, 400)
    dense = tr.resample(grid)[:, 0]
    assert np.max(np.abs(dense - [_stiff_exact(t) for t in grid])) <= 1e-8


def test_stiff_dense_output_reproduces_nodes():
    tr = integrate(_stiff_rhs, 0.0, [2.0], 2.0, jac=_stiff_jac)
    assert np.max(np.abs(tr.resample(tr.ts)[:, 0] - tr.ys[:, 0])) <= 1e-14


def test_stiff_step_bit_identical_repeat():
    a = integrate(_stiff_rhs, 0.0, [2.0], 2.0, jac=_stiff_jac)
    b = integrate(_stiff_rhs, 0.0, [2.0], 2.0, jac=_stiff_jac)
    assert np.array_equal(a.ts, b.ts)
    assert np.array_equal(a.ys, b.ys)
    grid = np.linspace(0.0, 2.0, 97)
    assert np.array_equal(a.resample(grid), b.resample(grid))


def test_stiff_step_count_far_below_explicit():
    implicit = integrate(_stiff_rhs, 0.0, [2.0], 2.0, jac=_stiff_jac)
    explicit = integrate(_stiff_rhs, 0.0, [2.0], 2.0)
    # the explicit pair is held below its stability bound, h ~ 6.1 / lam
    # for DOP853, on the whole interval
    assert len(explicit.ts) > 2.0 * _LAM / 6.1
    assert 10 * len(implicit.ts) < len(explicit.ts)


def test_stiff_step_uncoupled_components_share_steps():
    # equal components compute bit-identical values; an ordered pair stays
    # ordered on the shared steps (the dense gap to rounding, once both
    # components sit on the attracting solution)
    tr = integrate(_stiff_batch_rhs, 0.0, [2.0, 2.0, 2.5], 1.0, jac=_stiff_batch_jac)
    assert np.array_equal(tr.ys[:, 0], tr.ys[:, 1])
    grid = np.linspace(0.0, 1.0, 200)
    dense = tr.resample(grid)
    assert np.all(tr.ys[:, 2] - tr.ys[:, 0] >= 0.0)
    assert np.all(dense[:, 2] - dense[:, 0] >= -1e-14)


def test_stiff_array_evaluation_matches_steps():
    # resample, integral_at and node_integrals evaluate the collocation
    # polynomials as arrays; each value equals the per-step evaluation bit for bit
    tr = integrate(_stiff_batch_rhs, 0.0, [2.0, 2.5], 1.0, jac=_stiff_batch_jac)
    grid = np.linspace(tr.ts[0], tr.ts[-1], 777)
    idx = tr.segment_index(grid)
    per_step = [tr.ys[0] if t <= tr.ts[0] else tr.segments[j].eval(float(t))
                for t, j in zip(grid, idx)]
    assert np.array_equal(tr.resample(grid), np.array(per_step))
    nodes = np.cumsum([0.5] + [_step_integral(seg, t) for seg, t in zip(tr.segments, tr.ts[1:])])
    assert np.array_equal(tr.node_integrals(0.5), nodes)
    per_step = [nodes[j] + _step_integral(tr.segments[j], float(t)) for t, j in zip(grid, idx)]
    assert np.array_equal(tr.integral_at(grid, nodes), np.array(per_step))


def test_dop853_tableau():
    # row sums equal the nodes, and the solution weights integrate c^(q-1)
    # exactly up to q = 8: a mistyped coefficient breaks one of these
    c = ode._C
    for row, ci in zip(ode._A, c):
        assert math.fsum(row) == pytest.approx(ci, abs=1e-14)
    b, cb = ode._A[12], [c[j] for j in ode._B_COLS]
    for q in range(1, 9):
        assert math.fsum(w * x ** (q - 1) for w, x in zip(b, cb)) == pytest.approx(1 / q, abs=1e-14)
    # the error estimates weight differences of two consistent rules
    assert math.fsum(ode._E5) == pytest.approx(0.0, abs=1e-14)
    assert math.fsum(ode._E3) == pytest.approx(0.0, abs=1e-14)
    # each row's weights sit on the stages of its columns: from stage 2 on
    # they integrate c and c^2 exactly, which a wrong column index breaks
    assert [len(cols) for cols in ode._A_COLS] == [len(row) for row in ode._A]
    for i in range(2, 16):
        row, cj = ode._A[i], [c[j] for j in ode._A_COLS[i]]
        assert all(j < i for j in ode._A_COLS[i])
        assert math.fsum(a * x for a, x in zip(row, cj)) == pytest.approx(c[i] ** 2 / 2, abs=1e-14)
        assert math.fsum(a * x * x for a, x in zip(row, cj)) == pytest.approx(c[i] ** 3 / 3,
                                                                               abs=1e-14)


def test_mixed_trajectory_array_evaluation_matches_steps():
    # a scalar run with jac: DOP853 steps (7 coefficients) up to the
    # handoff, Radau IIA steps (5) after it; the array evaluation pads the
    # Radau coefficients and still equals the per-step one bit for bit
    tr = integrate(_ramp_rhs, 0.0, [2.0], 2.0, jac=_ramp_jac)
    assert {len(seg.Q[0]) for seg in tr.segments} == {ode._DENSE, ode._RADAU_DENSE} == {7, 5}
    h0 = tr.handoff
    grid = np.sort(np.concatenate([np.linspace(tr.ts[0], tr.ts[-1], 777),
                                   np.linspace(0.0, 2.0 * h0, 101)]))
    idx = tr.segment_index(grid)
    per_step = [tr.ys[0] if t <= tr.ts[0] else tr.segments[j].eval(float(t))
                for t, j in zip(grid, idx)]
    assert np.array_equal(tr.resample(grid), np.array(per_step))
    nodes = np.cumsum([0.5] + [_step_integral(seg, t) for seg, t in zip(tr.segments, tr.ts[1:])])
    assert np.array_equal(tr.node_integrals(0.5), nodes)
    per_step = [nodes[j] + _step_integral(tr.segments[j], float(t)) for t, j in zip(grid, idx)]
    assert np.array_equal(tr.integral_at(grid, nodes), np.array(per_step))
    # continuous at the handoff node
    i = int(np.searchsorted(tr.ts, h0))
    assert tr.ts[i] == h0 == tr.segments[i].t0
    assert tr.segments[i - 1].eval(h0)[0] == pytest.approx(tr.segments[i].y0[0], abs=1e-14)
    around = np.array([h0 - 1e-9, h0, h0 + 1e-9])
    assert np.ptp(tr.resample(around)[:, 0]) <= 1e-9 * abs(tr.fs[i, 0]) * 2.01 + 1e-14
    assert np.ptp(tr.integral_at(around, nodes)) <= 2e-9 * np.max(np.abs(tr.ys)) + 1e-14


def test_batched_core_many_components_exact_solution():
    # 16 components on the ndarray core; each follows its own exact solution
    # cos t + (y0 - 1) exp(-lam t), and equal initial values stay equal bit
    # for bit at the nodes and on the dense output
    y0 = np.array([2.0, 0.5, 2.0, 1.0, 3.0, 0.5, -1.0, 2.0, 1.5, 1.5, 0.0, 2.5, 3.0, 0.25, 1.0, 2.0])
    tr = integrate(_stiff_batch_rhs, 0.0, y0, 2.0, jac=_stiff_batch_jac)
    assert tr.termination == "reached_end"
    assert tr.ys.shape == (len(tr.ts), 16)

    def exact(t):
        t = np.asarray(t)[:, None]
        return np.cos(t) + (y0 - 1.0) * np.exp(-_LAM * t)

    assert np.max(np.abs(tr.ys - exact(tr.ts))) <= 1e-9
    grid = np.linspace(0.01, 2.0, 400)
    dense = tr.resample(grid)
    assert np.max(np.abs(dense - exact(grid))) <= 1e-8
    for i, j in ((0, 2), (0, 7), (0, 15), (1, 5), (4, 12), (3, 14), (8, 9)):
        assert np.array_equal(tr.ys[:, i], tr.ys[:, j])
        assert np.array_equal(dense[:, i], dense[:, j])


def test_batched_max_norm_lets_no_quiet_component_dilute_an_error():
    # one component with a stiff transient among 31 that never move: in the
    # max norm the transient meets the tolerance as it does alone; an RMS
    # norm over 32 components would accept sqrt(32) times its error
    active = np.zeros(32)
    active[0] = 1.0
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-10)

    def jac(t, y):
        return active * _stiff_batch_jac(t, y)

    # the reference run is batched too, two equal active components, so
    # that both runs take the same stepper and norm (Radau IIA from the
    # start); equal components give the max norm of one
    batch = integrate(lambda t, y: active * _stiff_batch_rhs(t, y), 0.0, [2.0] + [1.0] * 31,
                      2.0, cfg, jac=jac)
    alone = integrate(_stiff_batch_rhs, 0.0, [2.0, 2.0], 2.0, cfg, jac=_stiff_batch_jac)

    def error(tr):
        return np.max(np.abs(tr.ys[:, 0] - [_stiff_exact(t) for t in tr.ts]))

    assert batch.step_counts()["explicit_steps"] == 0
    assert np.all(batch.ys[:, 1:] == 1.0)
    assert abs(len(batch.ts) - len(alone.ts)) <= 2
    assert error(batch) <= 1.5 * error(alone)

    # the bound above separates the two norms.  The global error of a run
    # at a looser tolerance rests on where its few long steps fall (the
    # Radau IIA estimate follows the global error on this problem), so the
    # norms are compared on one shared step sequence, the batch's: per
    # component, the step's embedded estimate, rebuilt from its collocation
    # polynomial (the stage values at the nodes _RC) and scaled by the
    # tolerance as the step scales it
    def estimates(seg, y1, f0):
        Z = np.array([seg.eval(seg.t0 + c * seg.h) for c in ode._RC]) - seg.y0
        err = (f0 + np.array(ode._RE) @ Z / seg.h) / (ode._MU_REAL / seg.h - jac(seg.t0, seg.y0))
        return np.abs(err) * ode.DENSE_MARGIN / (cfg.abs_tol + cfg.rel_tol * np.maximum(
            np.abs(seg.y0), np.abs(y1)))

    est = np.array([estimates(*step) for step in zip(batch.segments, batch.ys[1:], batch.fs)])
    max_norm, rms_norm = est.max(axis=1), np.sqrt((est * est).mean(axis=1))
    assert np.all(max_norm > 0.0)
    assert np.all(max_norm > 5 * rms_norm)
    # the rebuilt estimate is the one the steps met: below 1 on all but
    # the steps whose estimate was filtered once more after a rejection
    assert np.sum(max_norm > 1.0) <= 2


@pytest.mark.parametrize(
    "rhs, state0, jac",
    [
        (lambda t, y: (-y[0],), [1.0], None),
        (lambda t, y: (-y[0],), [1.0], lambda t, y: (-1.0,)),
        (lambda t, y: -y, [1.0, 2.0, 3.0], lambda t, y: -np.ones(len(y))),
    ],
    ids=["dopri", "radau", "batched"],
)
def test_max_steps_has_its_own_termination(rhs, state0, jac):
    tr = integrate(rhs, 0.0, state0, 10.0, IntegratorConfig(max_steps=3), jac=jac)
    assert tr.termination == "max_steps"
    assert len(tr.ts) <= 4
    assert tr.t_final < 10.0


def test_explicit_steps_of_a_run_with_jac_stay_below_stiff_step():
    # the handoff test runs before every explicit step, the first included:
    # each explicit step has h |dF/dy| < STIFF_STEP at its start, and a run
    # that starts stiff takes none
    tr = integrate(_ramp_rhs, 0.0, [2.0], 2.0, jac=_ramp_jac)
    explicit = tr.segments[:tr.step_counts()["explicit_steps"]]
    assert len(explicit) > 10 and explicit[0].t0 == 0.0
    assert max(seg.h * abs(_ramp_jac(seg.t0, seg.y0)[0]) for seg in explicit) < ode.STIFF_STEP
    assert tr.handoff == tr.segments[len(explicit)].t0
    stiff = integrate(_stiff_rhs, 0.0, [2.0], 2.0, jac=_stiff_jac)
    assert stiff.step_counts()["explicit_steps"] == 0 and stiff.handoff == 0.0


def test_float_kernel_takes_the_array_kernels_steps_bit_for_bit():
    # the one-component Radau IIA kernel writes out the array kernel's
    # operations in its order, so on a RHS that floats and ndarrays evaluate
    # alike (+, -, * only) a run and a batched run of equal components take
    # the same steps and keep the same dense output, bit for bit
    def rhs(t, y):
        return -200.0 * (y - t) * (1.0 + y * y) + 1.0

    def jac(t, y):
        return -200.0 * (1.0 + y * y) - 200.0 * (y - t) * (2.0 * y)

    one = integrate(lambda t, ys: (rhs(t, ys[0]),), 0.0, [0.5], 3.0,
                    jac=lambda t, ys: (jac(t, ys[0]),))
    grid = np.linspace(0.0, 3.0, 101)
    for dim in (2, 16):  # 16: the size of a comparison run of 8 pairs
        batch = integrate(rhs, 0.0, [0.5] * dim, 3.0, jac=jac)
        assert one.step_counts() == batch.step_counts() == {"handoff": 0.0, "explicit_steps": 0,
                                                             "radau_steps": 104}
        assert np.array_equal(batch.ts, one.ts)
        assert np.array_equal(batch.ys, np.repeat(one.ys, dim, axis=1))
        assert np.array_equal(batch.resample(grid), np.repeat(one.resample(grid), dim, axis=1))
    # unequal components that meet at a node (the tracks from 0.5 and 0.502
    # round to one float at node 98 of 106) take one Newton start from then
    # on (``np.unique``) and stay equal; 16 components repeat the run of the
    # two bit for bit
    two = integrate(rhs, 0.0, [0.5, 0.502], 3.0, jac=jac)
    mixed = integrate(rhs, 0.0, [0.5, 0.502] * 8, 3.0, jac=jac)
    met = np.flatnonzero(two.ys[:, 0] == two.ys[:, 1])
    assert np.array_equal(met, np.arange(98, len(two.ts))) and len(two.ts) == 106
    assert np.array_equal(mixed.ts, two.ts)
    assert np.array_equal(mixed.ys, np.tile(two.ys, 8))
    assert np.array_equal(mixed.resample(grid), np.tile(two.resample(grid), 8))


def test_batched_run_is_radau_iia_from_t0():
    # a batched run takes Radau IIA steps from t0 on, where the one-component
    # run of its equation steps explicitly up to its handoff; the step budget
    # counts Radau IIA attempts: each capped run is a prefix of the full one,
    # dense output included
    one = integrate(_ramp_rhs, 0.0, [2.0], 2.0, jac=_ramp_jac)
    batch = integrate(_ramp_batch_rhs, 0.0, [2.0] * 3, 2.0, jac=_ramp_batch_jac)
    assert one.step_counts()["explicit_steps"] > 10
    assert batch.step_counts() == {"handoff": 0.0, "explicit_steps": 0,
                                   "radau_steps": len(batch.segments)}
    assert np.max(np.abs(batch.ys[-1] - one.ys[-1])) <= 1e-9
    for budget in range(1, 13):
        capped = integrate(_ramp_batch_rhs, 0.0, [2.0] * 3, 2.0,
                           IntegratorConfig(max_steps=budget), jac=_ramp_batch_jac)
        assert capped.termination == "max_steps"
        assert 0 < len(capped.segments) <= budget
        assert capped.handoff == 0.0
        grid = np.linspace(0.0, capped.t_final, 50)
        assert np.array_equal(capped.resample(grid), batch.resample(grid))


def test_stall_rule_ends_a_stability_limited_explicit_run():
    # y' = -1e6 (y - cos t) - sin t, given no Jacobian, keeps DOP853 on its
    # stability boundary at h ~ 6.4e-6: _STALL_STEPS accepted steps advance t
    # by less than a tenth of |t|, and the stall rule ends the run there,
    # on the solution y = cos t
    tr = integrate(lambda t, y: (-1e6 * (y[0] - math.cos(t)) - math.sin(t),),
                   1.0, [math.cos(1.0)], 10.0)
    assert tr.termination == "step_underflow"
    assert tr.step_counts() == {"handoff": None, "explicit_steps": ode._STALL_STEPS,
                                "radau_steps": 0}
    assert 1.0 < tr.t_final < 1.01
    assert np.max(np.abs(tr.ys[:, 0] - np.cos(tr.ts))) <= 1e-9


def _stability(A, b):
    """R(z) = 1 + z b^T (I - z A)^-1 1, the step map of y' = lam y at z = h lam."""
    one = np.ones(len(b))
    return lambda z: 1.0 + z * b @ np.linalg.solve(np.eye(len(b)) - z * A, one)


def test_stability_functions_keep_solutions_in_order():
    # on y' = lam y a step multiplies the gap of two solutions by R(h lam),
    # so a step keeps their order where R > 0.  A comparison run steps on
    # Radau IIA alone, whose R is positive on the whole negative axis;
    # DOP853's R, checked first, is positive only on [-4.35, 0]
    A = np.zeros((12, 12))
    for i in range(1, 12):
        A[i, list(ode._A_COLS[i])] = ode._A[i]
    b = np.zeros(12)
    b[list(ode._B_COLS)] = ode._A[12]
    # the linear order conditions b A^(q-1) 1 = 1/q! up to order 8 pin the
    # stage columns above
    for q in range(1, 9):
        assert b @ np.linalg.matrix_power(A, q - 1) @ np.ones(12) == pytest.approx(
            1 / math.factorial(q), rel=1e-10)
    R = _stability(A, b)
    assert min(R(z) for z in np.linspace(-ode.STIFF_STEP, 0.0, 3001)) > 0.0
    assert R(-3.0) == pytest.approx(0.0497, abs=1e-4)
    assert R(-4.34) > 0.0 > R(-4.36)  # the first sign change

    # Radau IIA's coefficient matrix from the eigenbasis the Newton solve
    # uses: R is the (4, 5) Pade approximant of exp, whose numerator has no
    # real root, so R > 0 for z <= 0
    M = np.zeros((5, 5))
    M[0, 0] = ode._MU_REAL
    for k, mu in zip((1, 3), ode._MU_COMPLEX):
        M[k:k + 2, k:k + 2] = [[mu.real, -mu.imag], [mu.imag, mu.real]]
    A = np.linalg.inv(np.array(ode._RT) @ M @ np.array(ode._RTI))
    R = _stability(A, A[4])  # stiffly accurate: b is the last row
    numerator = np.polynomial.Polynomial([1, 4 / 9, 1 / 12, 1 / 126, 1 / 3024])
    denominator = np.polynomial.Polynomial([1, -5 / 9, 5 / 36, -5 / 252, 5 / 3024, -1 / 15120])
    assert np.all(np.abs(numerator.roots().imag) > 0.5)
    for z in -np.geomspace(1e-6, 1e8, 300):
        assert R(z) == pytest.approx(numerator(z) / denominator(z), rel=1e-9)
        assert R(z) > 0.0


def test_radau_tableau_from_its_definition():
    # every literal of the 5-stage tableau, rebuilt in double precision from
    # its definition
    Poly = np.polynomial.Polynomial
    # the nodes: the zeros of d^4/dx^4 [x^4 (x-1)^5], polished by Newton
    p = (Poly.fromroots([0.0] * 4) * Poly([-1.0, 1.0]) ** 5).deriv(4)
    c = np.sort(p.roots().real)
    for _ in range(3):
        c = c - p(c) / p.deriv()(c)
    # A_ij: the integral from 0 to c_i of the Lagrange polynomial l_j
    ell = [Poly.fromroots(np.delete(c, j)) for j in range(5)]
    A = np.array([[(l / l(c[j])).integ()(ci) for j, l in enumerate(ell)] for ci in c])
    # the eigenbasis of A^-1: a real eigenvector and the real and imaginary
    # parts of one of each complex pair, each with last entry 1; the pairs
    # in the order of their real parts
    lam, V = np.linalg.eig(np.linalg.inv(A))
    real = int(np.argmin(np.abs(lam.imag)))
    pairs = sorted((k for k in range(5) if lam[k].imag > 0), key=lambda k: lam[k].real)
    columns = [V[:, real].real / V[4, real].real]
    for k in pairs:
        columns += [(V[:, k] / V[4, k]).real, (V[:, k] / V[4, k]).imag]
    T = np.array(columns).T
    # _RTI is the inverse of _RT (from the literal: the inverse of the rebuilt
    # basis carries its rounding times the condition number of _RT)
    TI = np.linalg.inv(np.array(ode._RT))
    # the embedded weights bh match the quadrature orders 1-5 with the weight
    # 1 / mu_real on the step's start, so E = mu_real (bh - b)^T A^-1 solves
    # A^T E = -V^-1 e_1, V the Vandermonde matrix of the orders
    V = np.vander(c, 5, increasing=True).T
    E = -np.linalg.solve(A.T, np.linalg.solve(V, np.eye(5)[0]))
    # the monomial map: row i holds the coefficients of s, ..., s^5 of the
    # Lagrange polynomial of c_i on the nodes 0, c_1, ..., c_5
    nodes = np.concatenate(([0.0], c))
    P = [(lambda l: l / l(c[i]))(Poly.fromroots(np.delete(nodes, i + 1))).coef[1:]
         for i in range(5)]

    def close(rebuilt, literal):
        return np.all(np.abs(np.subtract(rebuilt, literal)) <= 1e-13 * np.maximum(np.abs(literal), 1))

    assert close(c, ode._RC) and ode._RC[4] == 1.0
    assert close(lam[real].real, ode._MU_REAL) and np.all(np.abs(lam[real].imag) < 1e-13)
    assert close([lam[k].conjugate() for k in pairs], ode._MU_COMPLEX)
    assert close(T, ode._RT) and ode._RT[4] == (1.0, 1.0, 0.0, 1.0, 0.0)
    assert close(TI, ode._RTI)
    assert close(E, ode._RE)
    assert close(P, ode._RP)


@pytest.mark.parametrize("kernel, y0", [
    (ode._Floats(lambda t, y: (-y[0],), lambda t, y: (-1.0,)), (1.0,)),
    (ode._Arrays(lambda t, y: -y, lambda t, y: -np.ones_like(y)), (1.0, 0.5, 2.0)),
], ids=["floats", "arrays"])
def test_radau_order_on_a_linear_problem(kernel, y0):
    # fixed steps of the Radau IIA core on y' = -y over [0, 4], with the
    # stage arithmetic of one component and of a batch of three (tolerances
    # loose enough for every step to meet them at max_step): halving h cuts
    # the node error by about 2^9 (order 9, 2^8.96 here) and the error of
    # the collocation polynomial inside the steps by about 2^6 (order 5,
    # 2^5.6 here)
    def error(t, y):
        return max(abs(v - v0 * math.exp(-t)) for v, v0 in zip(y, y0))

    node, dense = [], []
    for h in (1.0, 0.5):
        cfg = IntegratorConfig(rel_tol=1.0, abs_tol=1.0, max_step=h)
        steps = list(ode._radau_steps(kernel, 0.0, y0, tuple(-v for v in y0), 4.0, cfg, h, 0))
        assert [seg.h for seg, *_ in steps] == [h] * round(4.0 / h)
        node.append(max(error(t, y) for _, t, y, _ in steps))
        dense.append(max(error(t, seg.eval(t)) for seg, *_ in steps
                         for t in seg.t0 + seg.h * np.linspace(0.0, 1.0, 41)))
    assert node[0] / node[1] >= 2.0**8.5
    assert dense[0] / dense[1] >= 2.0**5
