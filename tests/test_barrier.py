"""Barriers: cone round trips, margin signs, comparison principle."""

import numpy as np
import pytest

from translab import barrier, ode
from translab.barrier import (
    BarrierSpec,
    admissible_slope_range,
    compare_orderings,
    evaluate_barrier,
    log_grid,
    verify_inequality,
)
from translab.curvature import from_key, registry_keys
from translab.errors import DomainError, ParameterError
from translab.implicit import ImplicitBranch
from translab.ode import IntegratorConfig, integrate


def test_cone_is_line_for_beta_zero():
    spec = BarrierSpec("implicit_cone", m_bar=-0.5, valid_range=(0.1, 100))
    w, wp = evaluate_barrier(spec, 2.0, 0.0)
    assert w == pytest.approx(-1.0, abs=1e-12)
    assert wp == pytest.approx(-0.5, abs=1e-12)


def test_cone_round_trip():
    spec = BarrierSpec("implicit_cone", m_bar=-0.5, valid_range=(0.1, 100))
    for r in (0.5, 2.0, 20.0):
        w, _ = evaluate_barrier(spec, r, 0.25)
        assert w / (r * (1 + w * w) ** 0.25) == pytest.approx(-0.5, abs=1e-12)


def test_power_direct():
    spec = BarrierSpec("power", a=1.0, b=-2.0, valid_range=(0.1, 1e4))
    w, wp = evaluate_barrier(spec, 10.0, 0.25)
    assert w == pytest.approx(-0.01, abs=1e-15)
    assert wp == pytest.approx(0.002, abs=1e-18)


def test_range_and_parameter_errors():
    spec = BarrierSpec("power", a=1.0, b=-2.0, valid_range=(1.0, 10.0))
    with pytest.raises(DomainError):
        evaluate_barrier(spec, 100.0, 0.0)
    with pytest.raises(ParameterError):
        BarrierSpec("implicit_cone", m_bar=0.5)
    with pytest.raises(ParameterError):
        BarrierSpec("power", a=-1.0, b=-2.0)
    with pytest.raises(ParameterError):
        BarrierSpec("nope")


@pytest.mark.parametrize("n,k", [(7, 3), (6, 4)])
def test_power_margins_qk(n, k):
    f = from_key(f"qk:k={k},n={n}")
    b = ImplicitBranch(f).dg_minus_dy_at_zero()
    assert b == pytest.approx(-(n - k + 1) / (k - 1), abs=1e-9)
    grid = log_grid(2.0, 1e3, per_decade=400)
    rep = verify_inequality(
        BarrierSpec("power", a=0.5, b=b, valid_range=(1.0, 1e4)), f, grid
    )
    assert rep.skipped == 0
    # margins approach zero from below; the nonnegative reading settles
    assert rep.margins.max() <= 1e-12
    assert rep.r_star_nonneg is not None
    beyond = rep.margins[rep.grid >= rep.r_star_nonneg]
    assert beyond.min() >= -1e-8
    # and their magnitude decreases along the tail
    tail = np.abs(rep.margins[-50:])
    assert np.all(np.diff(tail) <= 0)


def test_cone_margin_nonpositive_knorm():
    f = from_key("knorm:k=2,n=3")
    m0 = ImplicitBranch(f).endpoint_data().m0_bar
    grid = log_grid(1.0, 100.0, per_decade=400)
    rep = verify_inequality(
        BarrierSpec("implicit_cone", m_bar=m0, valid_range=(0.5, 200)), f, grid
    )
    assert rep.verdict == "verified_sub"
    assert rep.margins.max() <= 1e-9


def test_cone_below_m0_still_subsolution_signed():
    # For families whose g_-(., -1) is positive, the cone margin stays
    # nonpositive even below m0: the m0 restriction guards the admissible
    # initial data of the comparison principle, not the pointwise sign.
    f = from_key("knorm:k=2,n=3")
    m0 = ImplicitBranch(f).endpoint_data().m0_bar
    grid = log_grid(1.0, 50.0, per_decade=200)
    rep = verify_inequality(
        BarrierSpec("implicit_cone", m_bar=0.5 * (m0 - 1.0), valid_range=(0.5, 200)),
        f,
        grid,
    )
    assert rep.verdict == "verified_sub"
    assert rep.margins.max() <= 0


def test_ordering_mean_n3():
    f = from_key("mean:n=3")
    v_lo, v_hi = admissible_slope_range(f, 1.0)
    rng = np.random.default_rng(2)
    pairs = [tuple(sorted(rng.uniform(v_lo, v_hi, 2))) for _ in range(8)]
    rep = compare_orderings(f, pairs, 1.0, 100.0)
    assert rep["min_gap"] >= -1e-9


def test_ordering_identical_initial_data():
    f = from_key("mean:n=3")
    rep = compare_orderings(f, [(0.8, 0.8)], 1.0, 50.0)
    assert rep["min_gap"] == pytest.approx(0.0, abs=1e-13)


def test_solution_vs_own_power_supersolution():
    # descending-slope solution of the minus equation stays above its
    # matched power barrier (subsolution side of the comparison)
    f = from_key("qk:k=3,n=7")
    br = ImplicitBranch(f)
    b = br.dg_minus_dy_at_zero()
    beta = f.beta
    r0, r1 = 5.0, 200.0
    a = 0.3
    from translab.ode import integrate

    def rhs(r, y):
        v = y[0]
        one = 1.0 + v * v
        return (one ** (beta + 1.0) * br.g_minus(v / (r * one**beta)),)

    tr = integrate(rhs, r0, [-a * r0**b], r1)
    rs = np.geomspace(r0, min(r1, tr.t_final), 60)
    v = tr.resample(rs)[:, 0]
    w = -a * rs**b
    assert np.all(v - w >= -1e-9)


@pytest.mark.parametrize("key", ["mean:n=3", "hq:k=2,l=0,n=4"])
def test_ordering_gap_on_shared_steps(key):
    # both members of a pair ride one step sequence, so the gap carries no
    # difference of separately controlled errors (those reached -3e-10)
    f = from_key(key)
    v_lo, v_hi = admissible_slope_range(f, 1.0)
    rng = np.random.default_rng(2)
    pairs = [tuple(sorted(rng.uniform(v_lo, v_hi, 2))) for _ in range(8)]
    rep = compare_orderings(f, pairs, 1.0, 100.0)
    assert rep["pairs"] == 8
    assert rep["min_gap"] >= -1e-12
    assert rep["all_ordered"]


@pytest.mark.parametrize("key", registry_keys())
def test_ordering_every_family(monkeypatch, key):
    # every family's array closed form has a root for every component the
    # batched RHS and Jacobian pass: no element is NaN.  The explicit steps
    # stay inside DOP853's ordering interval h max|dF/dv| <= STABLE_STEP
    f = from_key(key)
    elements, missed, runs = [], [], []
    original = f.solve_x

    def spy(y, z):
        x = original(y, z)
        if isinstance(y, np.ndarray):  # the batched RHS and Jacobian
            elements.append(x.size)
            missed.append(int(np.isnan(x).sum()))
        return x

    def integrate_spy(rhs, t0, state0, t_end, config, jac):
        tr = integrate(rhs, t0, state0, t_end, config, jac=jac)
        runs.append((tr, jac))
        return tr

    monkeypatch.setattr(f, "solve_x", spy)
    monkeypatch.setattr(barrier, "integrate", integrate_spy)
    v_lo, v_hi = admissible_slope_range(f, 1.0)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        pairs = [tuple(sorted(rng.uniform(v_lo, v_hi, 2))) for _ in range(10)]
        rep = compare_orderings(f, pairs, 1.0, 100.0)
        assert rep["pairs"] == 10
        assert rep["termination"] == "reached_end"
        assert rep["r_reached"] == 100.0
        assert rep["min_gap"] >= -1e-9
        assert rep["all_ordered"]
        tr, jac = runs[-1]
        steps = rep["steps"]
        assert steps == tr.step_counts()
        assert steps["explicit_steps"] + steps["radau_steps"] == len(tr.segments)
        explicit = tr.segments[:steps["explicit_steps"]]
        assert all(seg.h * np.abs(jac(seg.t0, np.array(seg.y0))).max() <= ode.STABLE_STEP
                   for seg in explicit)
    assert sum(elements) > 10**4
    assert sum(missed) == 0


def test_ordering_truncated_span_is_not_verified():
    f = from_key("mean:n=3")
    rep = compare_orderings(f, [(0.8, 0.9), (0.5, 1.2)], 1.0, 100.0,
                            config=IntegratorConfig(max_steps=5))
    assert rep["termination"] == "max_steps"
    assert rep["r_reached"] < 100.0
    assert rep["min_gap"] >= 0.0
    assert not rep["all_ordered"]


def test_cone_barrier_solves_each_argument_once(monkeypatch):
    f = from_key("knorm:k=2,n=3")
    branch = ImplicitBranch(f)
    m0 = branch.endpoint_data().m0_bar
    spec = BarrierSpec("implicit_cone", m_bar=m0, valid_range=(0.5, 200))
    grid = log_grid(1.0, 100.0, per_decade=400)
    beta = f.beta
    args, expected = [], []
    for r in grid:
        w, wp = evaluate_barrier(spec, float(r), beta)
        args.append(w / (r * (1 + w * w) ** beta))
        expected.append(wp - (1 + w * w) ** (beta + 1.0) * branch.g_minus(args[-1]))

    solves = []
    original = ImplicitBranch.g_minus

    def spy(self, y):
        solves.append(y)
        return original(self, y)

    monkeypatch.setattr(ImplicitBranch, "g_minus", spy)
    rep = verify_inequality(spec, f, grid)
    assert len(grid) == 800
    assert len(solves) == len(set(args)) <= 3
    assert np.array_equal(rep.margins, expected)
