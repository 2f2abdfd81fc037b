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
    # resample, integral_at and node_integrals evaluate the collocation cubics
    # as arrays; each value equals the per-step evaluation bit for bit
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


def test_mixed_trajectory_array_evaluation_matches_steps():
    # a scalar run with jac: DOP853 steps (7 coefficients) up to the
    # handoff, Radau IIA steps (3) after it; the array evaluation pads the
    # Radau coefficients and still equals the per-step one bit for bit
    tr = integrate(_stiff_rhs, 0.0, [2.0], 2.0, jac=_stiff_jac)
    assert {len(seg.Q[0]) for seg in tr.segments} == {7, 3}
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
    # the reference runs are batched too, two equal active components, so
    # that every run takes the same steppers and norm (DOP853, then Radau
    # IIA past the handoff); equal components give the max norm of one
    batch = integrate(
        lambda t, y: active * _stiff_batch_rhs(t, y),
        0.0,
        [2.0] + [1.0] * 31,
        2.0,
        cfg,
        jac=lambda t, y: active * _stiff_batch_jac(t, y),
    )
    alone = integrate(_stiff_batch_rhs, 0.0, [2.0, 2.0], 2.0, cfg, jac=_stiff_batch_jac)
    diluted = cfg.rel_tol * 32**0.5
    rms_like = integrate(
        _stiff_batch_rhs, 0.0, [2.0, 2.0], 2.0,
        IntegratorConfig(rel_tol=diluted, abs_tol=diluted), jac=_stiff_batch_jac,
    )

    def error(tr):
        return np.max(np.abs(tr.ys[:, 0] - [_stiff_exact(t) for t in tr.ts]))

    assert np.all(batch.ys[:, 1:] == 1.0)
    assert abs(len(batch.ts) - len(alone.ts)) <= 2
    assert error(batch) <= 1.5 * error(alone)
    # the bound above separates the two norms
    assert error(rms_like) > 5 * error(alone)


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


def test_batched_max_norm_on_a_run_that_never_hands_off():
    # the explicit steps of a batched run measure their error in the max
    # norm too: one moving component among 31 quiet ones on a non-stiff
    # problem (t max|lam| <= 10 < STIFF_SPAN) meets the tolerance as alone
    def rhs(t, y):
        return -(y - np.cos(t)) - np.sin(t)

    def jac(t, y):
        return -np.ones(len(y))

    active = np.zeros(32)
    active[0] = 1.0
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-10)
    batch = integrate(lambda t, y: active * rhs(t, y), 0.0, [2.0] + [1.0] * 31, 10.0, cfg,
                      jac=lambda t, y: active * jac(t, y))
    alone = integrate(rhs, 0.0, [2.0, 2.0], 10.0, cfg, jac=jac)
    diluted = cfg.rel_tol * 32**0.5
    rms_like = integrate(rhs, 0.0, [2.0, 2.0], 10.0,
                         IntegratorConfig(rel_tol=diluted, abs_tol=diluted), jac=jac)

    def error(tr):
        return np.max(np.abs(tr.ys[:, 0] - [math.cos(t) + math.exp(-t) for t in tr.ts]))

    assert batch.step_counts() == {"handoff": None, "explicit_steps": len(batch.segments),
                                   "radau_steps": 0}
    assert np.all(batch.ys[:, 1:] == 1.0)
    assert abs(len(batch.ts) - len(alone.ts)) <= 2
    assert error(batch) <= 1.5 * error(alone)
    assert error(rms_like) > 3 * error(alone)


def test_batched_run_hands_off_as_one_component_does():
    # equal components of a batched run take the one-component run's
    # explicit steps bit for bit (max norm, max |lam|) and hand off at the
    # same node; the step budget carries over to the Radau IIA steps
    one = integrate(_stiff_rhs, 0.0, [2.0], 2.0, jac=_stiff_jac)
    batch = integrate(_stiff_batch_rhs, 0.0, [2.0] * 3, 2.0, jac=_stiff_batch_jac)
    counts = one.step_counts()
    assert counts["explicit_steps"] > 10 and counts["radau_steps"] > 10
    assert batch.step_counts() == counts
    n = counts["explicit_steps"] + 1
    assert np.array_equal(batch.ts[:n], one.ts[:n])
    assert np.array_equal(batch.ys[:n], np.repeat(one.ys[:n], 3, axis=1))
    assert np.max(np.abs(batch.ys - one.ys)) <= 1e-12
    # budgets that end the run just before, at and just past the handoff:
    # each capped run is a prefix of the full one, dense output included
    handoffs = set()
    for budget in range(counts["explicit_steps"], counts["explicit_steps"] + 6):
        capped = integrate(_stiff_batch_rhs, 0.0, [2.0] * 3, 2.0,
                           IntegratorConfig(max_steps=budget), jac=_stiff_batch_jac)
        assert capped.termination == "max_steps"
        assert len(capped.segments) <= budget
        handoffs.add(capped.handoff)
        grid = np.linspace(0.0, capped.t_final, 50)
        assert np.array_equal(capped.resample(grid), batch.resample(grid))
    assert handoffs == {None, batch.handoff}


# DOP853's stages 1-11 name their nonzero weights a_ij by these j (see
# _dop853_steps); stage 0 has none
_DOP853_COLS = ([0], [0, 1], [0, 2], [0, 2, 3], [0, 3, 4], [0, 3, 4, 5], [0, 3, 4, 5, 6],
                [0, 3, 4, 5, 6, 7], [0, *range(3, 9)], [0, *range(3, 10)], [0, *range(3, 11)])


def _stability(A, b):
    """R(z) = 1 + z b^T (I - z A)^-1 1, the step map of y' = lam y at z = h lam."""
    one = np.ones(len(b))
    return lambda z: 1.0 + z * b @ np.linalg.solve(np.eye(len(b)) - z * A, one)


def test_stability_functions_keep_solutions_in_order():
    # on y' = lam y a step multiplies the gap of two solutions by R(h lam),
    # so a comparison run keeps their order where R > 0: DOP853 on its
    # explicit steps, held to h max|lam| <= STABLE_STEP, Radau IIA on all
    A = np.zeros((12, 12))
    for i, (row, cols) in enumerate(zip(ode._A[1:12], _DOP853_COLS), start=1):
        A[i, cols] = row
    b = np.zeros(12)
    b[list(ode._B_COLS)] = ode._A[12]
    # the linear order conditions b A^(q-1) 1 = 1/q! up to order 8 pin the
    # stage columns above
    for q in range(1, 9):
        assert b @ np.linalg.matrix_power(A, q - 1) @ np.ones(12) == pytest.approx(
            1 / math.factorial(q), rel=1e-10)
    R = _stability(A, b)
    assert min(R(z) for z in np.linspace(-ode.STABLE_STEP, 0.0, 3001)) > 0.0
    assert R(-3.0) == pytest.approx(0.0497, abs=1e-4)
    assert R(-4.34) > 0.0 > R(-4.36)  # the first sign change

    # Radau IIA's coefficient matrix from the eigenbasis the Newton solve
    # uses: R is the (2, 3) Pade approximant of exp, positive for z <= 0
    mu = ode._MU_COMPLEX
    M = np.array([[ode._MU_REAL, 0, 0], [0, mu.real, -mu.imag], [0, mu.imag, mu.real]])
    A = np.linalg.inv(np.array(ode._RT) @ M @ np.array(ode._RTI))
    R = _stability(A, A[2])  # stiffly accurate: b is the last row
    for z in -np.geomspace(1e-6, 1e8, 300):
        pade = (1 + 2 * z / 5 + z * z / 20) / (1 - 3 * z / 5 + 3 * z * z / 20 - z**3 / 60)
        assert R(z) == pytest.approx(pade, rel=1e-9)
        assert R(z) > 0.0
