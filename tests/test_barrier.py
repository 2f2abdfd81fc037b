"""Barriers: cone round trips, margin signs, comparison principle."""

import math
import warnings

import numpy as np
import pytest

from translab import barrier, bowl, catenoid, ode
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


# The power barrier of ``verify --suite barrier``: w = -a r^b with a = 0.5 on
# log_grid(2, 1e3).  On qk (alpha = 1, so beta = 0) with g_-(y, -1) =
# b y + T y^2 + ..., the margin is a^3 b r^(3b-1) - T a^2 r^(2b-2) + ...,
# negative on every qk key: it counts as nonnegative only once it falls
# under SIGN_TOL.
POWER_SPEC = {"a": 0.5, "valid_range": (1.0, 1e4)}


@pytest.mark.parametrize("key, limit, r_star", [
    ("qk:k=3,n=6", -1 / 2, 28.29), ("qk:k=4,n=6", -3 / 8, 139.49), ("qk:k=3,n=7", -35 / 64, 17.74),
])
def test_power_margin_settles_inside_the_sign_band(key, limit, r_star):
    # b = -2, -1, -5/2: margin r^(2-2b) tends to a limit, and the margin
    # enters the band at r_star
    f = from_key(key)
    spec = BarrierSpec("power", b=ImplicitBranch(f).dg_minus_dy_at_zero(), **POWER_SPEC)
    rep = verify_inequality(spec, f, log_grid(2.0, 1e3, per_decade=400))
    assert rep.margins.max() < 0
    assert rep.r_star_nonneg == pytest.approx(r_star, rel=1e-3)
    (m,) = verify_inequality(spec, f, np.array([1e3])).margins
    assert m * 1e3 ** (2 - 2 * spec.b) == pytest.approx(limit, rel=1e-3)


def test_power_margin_of_qk56_stays_outside_the_sign_band():
    # b = -1/2: the (1 + w^2) term a^3 b r^(3b-1) leads, and the margin
    # approaches it as slowly as 1 + 3 r^(-1/2), so it is still -2.2e-9 at the
    # grid end r = 1e3: the barrier reads verified_sub, not verified_super
    f = from_key("qk:k=5,n=6")
    spec = BarrierSpec("power", b=ImplicitBranch(f).dg_minus_dy_at_zero(), **POWER_SPEC)
    assert spec.b == -0.5
    rep = verify_inequality(spec, f, log_grid(2.0, 1e3, per_decade=400))
    assert rep.margins.max() < -barrier.SIGN_TOL
    assert rep.r_star_nonneg is None and rep.verdict == "verified_sub"
    r = np.array([1e3, 1e4])
    lead = spec.a**3 * spec.b * r ** (3 * spec.b - 1)
    assert verify_inequality(spec, f, r).margins / lead == pytest.approx([1.095, 1.030], abs=1e-3)


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
    b = ImplicitBranch(f).dg_minus_dy_at_zero()
    beta = f.beta
    r0, r1 = 5.0, 200.0
    a = 0.3
    from translab.ode import integrate

    def rhs(r, y):
        v = y[0]
        one = 1.0 + v * v
        return (one ** (beta + 1.0) * f.solve_minus(v / (r * one**beta)),)

    tr = integrate(rhs, r0, [-a * r0**b], r1)
    # a NaN root would end the run early on a domain exit
    assert tr.termination == "reached_end"
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
    # batched RHS and Jacobian pass: no element is NaN.  Every step is
    # Radau IIA, from r0 on, whose stability function is positive on the
    # whole negative axis
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
        runs.append(tr)
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
        steps = rep["steps"]
        assert steps == runs[-1].step_counts()
        assert steps["handoff"] == 1.0 and steps["explicit_steps"] == 0
        assert steps["radau_steps"] == len(runs[-1].segments)
    assert sum(elements) > 10**4
    assert sum(missed) == 0


def _explicit_stiffness(tr, jac):
    """h max|dF/dv| at the start of each explicit step of a run with jac."""
    explicit = tr.segments[:tr.step_counts()["explicit_steps"]]
    return [seg.h * np.abs(jac(seg.t0, np.array(seg.y0))).max() for seg in explicit]


def test_profile_charts_step_explicitly_only_below_stiff_step(monkeypatch):
    # the ordering argument above holds on the profile charts with jac too:
    # a bowl is stiff from the axis on and takes no explicit step; an
    # ascending catenoid chart starts non-stiff and takes explicit steps,
    # the first included, only while h |dF/dv| < STIFF_STEP
    runs = []

    def integrate_spy(rhs, t0, state0, t_end, config, stops=(), jac=None):
        tr = integrate(rhs, t0, state0, t_end, config, stops, jac=jac)
        if jac is not None:
            runs.append((tr, jac))
        return tr

    monkeypatch.setattr(bowl, "integrate", integrate_spy)
    monkeypatch.setattr(catenoid, "integrate", integrate_spy)
    catenoid.solve_catenoid(from_key("qk:k=4,n=6"), 1.0, 120.0)
    (bowl_run, bowl_jac), (upper, upper_jac) = runs
    assert bowl_run.handoff == bowl.AXIS_EPS
    assert _explicit_stiffness(bowl_run, bowl_jac) == []
    stiffness = _explicit_stiffness(upper, upper_jac)
    assert len(stiffness) > 10
    assert max(stiffness) < ode.STIFF_STEP


def test_ordering_run_leaves_the_error_state_as_it_found_it():
    # a comparison run ignores numpy's floating-point errors for its run
    # alone, its NaNs being domain exits: knorm:k=4,n=4's run of `verify
    # --suite ordering`, which ends in step_underflow, warns of nothing, and
    # the caller's error state is back after it, also when the run raises:
    # at v = 1e200, v * v overflows, the RHS is not finite at the start
    f = from_key("knorm:k=4,n=4")
    v_lo, v_hi = admissible_slope_range(f, 1.0)
    rng = np.random.default_rng(0)
    pairs = [tuple(sorted(rng.uniform(v_lo, v_hi, 2))) for _ in range(10)]
    with np.errstate(all="warn"), warnings.catch_warnings():
        warnings.simplefilter("error")
        state = np.geterr()
        assert compare_orderings(f, pairs, 1.0, 100.0)["termination"] == "step_underflow"
        assert np.geterr() == state
        with pytest.raises(ParameterError, match="not finite"):
            compare_orderings(f, [(0.8, 1e200)], 1.0, 100.0)
        assert np.geterr() == state


def test_ordering_truncated_span_is_not_verified():
    f = from_key("mean:n=3")
    rep = compare_orderings(f, [(0.8, 0.9), (0.5, 1.2)], 1.0, 100.0,
                            config=IntegratorConfig(max_steps=5))
    assert rep["termination"] == "max_steps"
    assert rep["r_reached"] < 100.0
    assert rep["min_gap"] >= 0.0
    assert not rep["all_ordered"]


def _scalar_invert(target, beta):
    """The per-point reference of ``barrier._invert_scaled``: the scalar
    safeguarded Newton on Python floats, NaN where it finds no w."""
    t = abs(target)

    def phi(w):
        return w / (1 + w * w) ** beta - t

    lo, hi = 0.0, 1.0
    while phi(hi) < 0:
        hi *= 2.0
        if hi > 1e12:
            return math.nan
    w = 0.5 * (lo + hi)
    for _ in range(100):
        fw = phi(w)
        if fw < 0:
            lo = w
        else:
            hi = w
        if abs(fw) <= 1e-14 * max(1.0, t):
            return math.copysign(w, target)
        q = 1 + w * w
        dphi = (1 + (1 - 2 * beta) * w * w) / q ** (beta + 1)
        w_new = w - fw / dphi
        if not lo < w_new < hi:
            w_new = 0.5 * (lo + hi)
        if hi - lo <= 4 * math.ulp(max(abs(lo), abs(hi), 1e-30)):
            return math.copysign(0.5 * (lo + hi), target)
        w = w_new
    return math.nan


def _per_point_report(spec, f, grid, inverse=None):
    """``verify_inequality`` point by point on Python floats and ``**``, with
    the x-solve ``inverse(y, z)`` (``f.solve_float`` by default): a point
    outside the range, with an argument outside (-1, 0) or without a root
    counts as skipped, and r_star is found by a reverse scan."""
    inverse = inverse or f.solve_float
    beta = f.beta
    radii, margins, skipped = [], [], 0
    for r in grid.tolist():
        if not spec.valid_range[0] <= r <= spec.valid_range[1]:
            skipped += 1
            continue
        if spec.kind == "power":
            w = -spec.a * r**spec.b
            wp = -spec.a * spec.b * r ** (spec.b - 1.0)
        else:
            w = _scalar_invert(spec.m_bar * r, beta)
            wp = spec.m_bar * (1 + w * w) ** (beta + 1.0) / (1 + (1 - 2 * beta) * w * w)
        y = w / (r * (1 + w * w) ** beta)
        x = math.nan
        if f.minus_level is not None and -1.0 < y < 0.0:
            x = inverse(-y, 1.0) if f.minus_level == "reflected" else inverse(y, -1.0)
        if math.isnan(x):
            skipped += 1
            continue
        radii.append(r)
        margins.append(wp - (1 + w * w) ** (beta + 1.0) * x)

    def settle_radius(sign):
        idx = len(margins)
        for j in range(len(margins) - 1, -1, -1):
            if not sign * margins[j] >= -barrier.SIGN_TOL:
                break
            idx = j
        return radii[idx] if idx < len(margins) else None

    r_super, r_sub = settle_radius(+1), settle_radius(-1)
    if r_super is not None and (r_sub is None or r_super <= r_sub):
        verdict = "verified_super"
    else:
        verdict = "violated" if r_sub is None else "verified_sub"
    return barrier.BarrierReport(np.array(radii), np.array(margins), min(margins), verdict,
                                 skipped, r_super, r_sub)


def _array_root(f):
    """The family's array inverse at one argument: as ``solve_x`` takes it
    on a whole grid, its np.power rounding included."""
    return lambda y, z: float(f.solve_x(np.array([y]), z)[0])


def _assert_same_report(rep, expected, margins=True):
    assert np.array_equal(rep.grid, expected.grid)
    assert (rep.verdict, rep.skipped, rep.r_star_nonneg, rep.r_star_nonpos) == (
        expected.verdict, expected.skipped, expected.r_star_nonneg, expected.r_star_nonpos)
    if margins:
        assert np.array_equal(rep.margins, expected.margins)
        assert rep.min_margin == expected.min_margin


def _cli_power_spec(f):
    """The power barrier of ``verify --suite barrier``."""
    c, b = f.minus_origin
    return BarrierSpec("power", b=b if math.isfinite(c) and b < 0 else -1.0, **POWER_SPEC)


def test_cone_barrier_takes_one_array_inverse(monkeypatch):
    # the cone barrier's argument is m_bar up to rounding; the whole grid
    # takes one array call of the closed-form inverse
    f = from_key("knorm:k=2,n=3")
    m0 = ImplicitBranch(f).endpoint_data().m0_bar
    spec = BarrierSpec("implicit_cone", m_bar=m0, valid_range=(0.5, 200))
    grid = log_grid(1.0, 100.0, per_decade=400)
    expected = _per_point_report(spec, f, grid)
    calls = []
    original = f.solve_x

    def spy(y, z):
        calls.append(isinstance(y, np.ndarray))
        return original(y, z)

    monkeypatch.setattr(f, "solve_x", spy)
    rep = verify_inequality(spec, f, grid)
    assert len(grid) == 800
    assert calls == [True]
    assert np.array_equal(rep.margins, expected.margins)
    _assert_same_report(rep, expected, margins=False)


@pytest.mark.parametrize("key", ["qk:k=3,n=7", "qk:k=4,n=6"])
def test_bench_power_margins_equal_the_per_point_margins(key):
    # the bench's power barrier jobs keep every margin bit of the per-point
    # loop on solve_float
    f = from_key(key)
    grid = log_grid(2.0, 1e3, per_decade=400)
    spec = _cli_power_spec(f)
    _assert_same_report(verify_inequality(spec, f, grid), _per_point_report(spec, f, grid))


@pytest.mark.parametrize("key", [k for k in registry_keys() if from_key(k).minus_level])
def test_array_margins_equal_the_per_point_margins(key):
    # every margin is the per-point arithmetic on Python floats and ** bit
    # for bit, at the family's array root.  Against solve_float the report
    # is the same, but a margin moves where the array inverse rounds a
    # power as np.power does, an ulp or so away from Python's pow (see
    # test_float_and_array_inverses_agree): one of 1,080 on hq:k=2,l=0,n=3
    f = from_key(key)
    grid = log_grid(2.0, 1e3, per_decade=400)
    spec = _cli_power_spec(f)
    rep = verify_inequality(spec, f, grid)
    _assert_same_report(rep, _per_point_report(spec, f, grid, _array_root(f)))
    on_floats = _per_point_report(spec, f, grid)
    _assert_same_report(rep, on_floats, margins=False)
    assert np.count_nonzero(rep.margins != on_floats.margins) <= 2


# the skip paths: a grid that crosses valid_range (r < 0.5 and r > 5e3),
# arguments at or below -1 (w <= -r at r <= 2.5 for a = 3, b = -0.2), the
# pole horizon of qk:k=2,n=8 (below |y| ~ 1e-16 the quotient's inverse
# decides its piece by rounding, and many radii have no root) and a cone
# barrier with beta = 1/3 without a profile past r ~ 9e3, where
# w / (1+w^2)^(1/3) = 0.9 r needs w > 1e12
SKIP_CASES = {
    "knorm:k=2,n=3": BarrierSpec("power", a=3.0, b=-0.2, valid_range=(0.5, 5e3)),
    "hq:k=2,l=0,n=3": BarrierSpec("power", a=3.0, b=-0.2, valid_range=(0.5, 5e3)),
    "qk:k=2,n=8": BarrierSpec("power", b=-7.0, **POWER_SPEC),
    "sk:k=3,n=5": BarrierSpec("implicit_cone", m_bar=-0.9, valid_range=(0.5, 2e4)),
}


@pytest.mark.parametrize("key", SKIP_CASES)
def test_skipped_points_are_counted_as_per_point(key):
    f, spec = from_key(key), SKIP_CASES[key]
    grid = log_grid(0.3, 3e4, per_decade=50)
    with np.errstate(all="warn"), warnings.catch_warnings():
        warnings.simplefilter("error")
        state = np.geterr()
        rep = verify_inequality(spec, f, grid)
        assert np.geterr() == state
    expected = _per_point_report(spec, f, grid, _array_root(f))
    _assert_same_report(rep, expected)
    assert 0 < rep.skipped < len(grid)
    assert rep.skipped + len(rep.grid) == len(grid)


@pytest.mark.parametrize("key, spec, grid", [
    # a family without a -1 level
    ("mean:n=3", BarrierSpec("power", a=0.5, b=-1.0, valid_range=(1.0, 1e4)),
     log_grid(2.0, 1e3, per_decade=400)),
    # the argument -1/2 at every radius of this grid, where the quotient's
    # denominator vanishes: the closed form divides by zero, no root
    ("qk:k=3,n=6", BarrierSpec("implicit_cone", m_bar=-0.5, valid_range=(0.5, 200)),
     log_grid(0.3, 3e4, per_decade=50)),
])
def test_no_point_solved_raises_domain_error(key, spec, grid):
    with np.errstate(all="warn"), warnings.catch_warnings():
        warnings.simplefilter("error")
        state = np.geterr()
        with pytest.raises(DomainError, match="at every grid point"):
            verify_inequality(spec, from_key(key), grid)
        assert np.geterr() == state


@pytest.mark.parametrize("beta", [0.0, 0.25, 1 / 3, 0.4])
def test_invert_scaled_takes_each_scalar_iteration(beta):
    # elementwise, bit for bit the scalar Newton, NaN where its bracket
    # passes 1e12 (t = 1e4 needs w = 1e12 at beta = 1/3, 1e20 at 0.4)
    rng = np.random.default_rng(3)
    targets = np.concatenate([[0.0, -0.0, 1e-300, -1e4, 1e4, 0.999, -1.001],
                              rng.uniform(-200, 200, 50), -np.geomspace(1e-6, 1e3, 50)])
    w = barrier._invert_scaled(targets, beta)
    expected = np.array([_scalar_invert(t, beta) for t in targets.tolist()])
    assert np.array_equal(w, expected, equal_nan=True)
    assert np.isnan(w).any() == (beta >= 1 / 3)


# the ends of U+ that the comparison runs draw their pairs from, as the
# scalar Newton gave them; sk:k=2,n=4 and sk:k=3,n=5 take Python-float powers
# (beta = 1/4, 1/3)
@pytest.mark.parametrize("key, lo, hi", [
    ("mean:n=3", "0x1.55acb6f46508dp-1", "0x1.ff7ced916872bp-1"),
    ("hq:k=2,l=0,n=4", "0x1.6a6694f8f3b9ap-1", "0x1.ff7ced916872bp-1"),
    ("sk:k=2,n=4", "0x1.9a3bc3eea4a9dp-1", "0x1.452a7e0ae2865p+0"),
    ("sk:k=3,n=5", "0x1.cbf370c2325b6p-1", "0x1.767fa36029d15p+0"),
])
def test_admissible_slope_range_bits(key, lo, hi):
    v_lo, v_hi = admissible_slope_range(from_key(key), 1.0)
    assert (v_lo.hex(), v_hi.hex()) == (lo, hi)


@pytest.mark.parametrize("key", ["mean:n=1000", "kconv:k=2,n=1000", "hq:k=2,l=0,n=800"])
def test_admissible_slope_range_never_empty(key):
    # lambda0 > 0.998 puts the inset lower end 1.001 lambda0 past 0.999
    with pytest.raises(DomainError, match="inside U\\+"):
        admissible_slope_range(from_key(key), 1.0)
