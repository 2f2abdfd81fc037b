"""Bowl profiles: axis start, residuals, coefficient formulas, tail fits."""

import math
import time

import numpy as np
import pytest

from translab import bowl, catenoid, ode
from translab.barrier import admissible_slope_range, compare_orderings
from translab.bowl import (
    AXIS_EPS,
    _slope_field,
    _slope_scalar,
    coeffs_degenerate,
    coeffs_nondegenerate,
    default_window,
    fit_tail,
    growth_exponent,
    solve_bowl,
)
from translab.catenoid import solve_catenoid
from translab.curvature import from_key
from translab.errors import FitError, ParameterError

# profiles reused across tests (solves are pure)
_CACHE = {}
# the oracles' own start: the linear series v = lambda0 r at r 1e-6, whose
# truncation c3 r^2 / lambda0 (~1e-13 relative) decays along the attracting
# slope, independent of the three-term series at AXIS_EPS
_ORACLE_EPS = 1e-6


def profile(key, r_max):
    tag = (key, r_max)
    if tag not in _CACHE:
        _CACHE[tag] = solve_bowl(from_key(key), r_max)
    return _CACHE[tag]


def test_axis_start_mean_n3():
    f = from_key("mean:n=3")
    assert f.value(1.0, 1.0) == pytest.approx(1.5)
    p = profile("mean:n=3", 50.0)
    assert f.lambda0 == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert p.v[0] / p.r[0] == pytest.approx(f.lambda0, abs=1e-6)


@pytest.mark.parametrize("key,rmax", [("mean:n=4", 30.0), ("gauss:n=4", 30.0), ("sk:k=3,n=5", 8.0)])
def test_axis_umbilic_start(key, rmax):
    f = from_key(key)
    p = profile(key, rmax)
    lam0 = f.value(1.0, 1.0) ** (-1.0 / f.alpha_float)
    assert p.v[0] / p.r[0] == pytest.approx(lam0, abs=1e-6)


def test_gauss_profile_reaches_and_residual():
    p = profile("gauss:n=4", 1e3)
    assert p.trajectory.termination == "reached_end"
    assert p.r[-1] >= 1e3 - 1e-9
    assert p.residuals.max() <= 1e-8


def test_height_matches_high_order_oracle():
    # exact quadrature of the collocation polynomials against DOP853 at
    # rtol 1e-13 on the (v, u) system; a trapezoid sum over the nodes is
    # off by 1.0e-5 here
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    f = from_key("gauss:n=4")
    p = profile("gauss:n=4", 1e3)
    rhs, _ = _slope_scalar(f, None)
    grid = np.geomspace(1.0, 1e3, 25)
    sol = solve_ivp(
        lambda r, y: [rhs(r, (y[0],))[0], y[0]],
        (_ORACLE_EPS, 1e3),
        [f.lambda0 * _ORACLE_EPS, 0.5 * f.lambda0 * _ORACLE_EPS**2],
        method="DOP853",
        rtol=1e-13,
        atol=1e-20,
        t_eval=grid,
    )
    assert sol.status == 0
    assert p.u[-1] == pytest.approx(sol.y[1, -1], rel=1e-10)
    # dense height between the nodes
    assert p.u_at(grid) == pytest.approx(sol.y[1], rel=1e-10)


def test_u_at_reproduces_node_heights():
    p = profile("mean:n=3", 500.0)
    assert p.u_at(p.r) == pytest.approx(p.u, rel=1e-15, abs=0.0)


def test_alpha_three_reaches_r100():
    t0 = time.perf_counter()
    p = solve_bowl(from_key("sk:k=3,n=5"), 100.0)
    dt = time.perf_counter() - t0
    assert p.trajectory.termination == "reached_end"
    assert dt < 5.0
    assert fit_tail(p).rel_errors["a"] <= 0.01
    assert growth_exponent(p) == pytest.approx(4.0, rel=0.02)


def test_v_strictly_increasing():
    p = profile("mean:n=4", 50.0)
    assert np.all(np.diff(p.v) > 0)


def test_slope_argument_in_domain_closure():
    # nondegenerate: y = v/(r (1+v^2)^beta) never exceeds the cylinder value
    p = profile("mean:n=4", 50.0)
    y = p.v / (p.r * (1 + p.v**2) ** p.curvature.beta)
    assert np.all(y <= 1.0 + 1e-12)
    lam0 = p.curvature.lambda0
    assert np.all(y >= lam0 - 1e-9)


def test_alpha_below_third_rejected():
    # no registered family has alpha <= 1/3; the radius check comes first
    with pytest.raises(ParameterError):
        solve_bowl(from_key("mean:n=3"), 5e-6)


# ---------------------------------------------------------------------------
# coefficient formulas
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_coeffs_mean(n):
    a, b = coeffs_nondegenerate(from_key(f"mean:n={n}"))
    assert a == pytest.approx(1.0 / (n - 1), abs=1e-12)
    assert b == pytest.approx((n - 4) / (n - 1) ** 2, abs=1e-12)


def test_coeffs_mean_n4_pair():
    a, b = coeffs_nondegenerate(from_key("mean:n=4"))
    assert (a, b) == (pytest.approx(1 / 3, abs=1e-12), pytest.approx(0.0, abs=1e-12))


def test_coeffs_hq204():
    # by hand: normalized sqrt(S_2) slice for n=4 gives g(y) = (1 - y^2)/y,
    # so g'(1) = -2, g''(1) = 2, a = 1/2, b = -1/8
    a, b = coeffs_nondegenerate(from_key("hq:k=2,l=0,n=4"))
    assert a == pytest.approx(0.5, abs=1e-9)
    assert b == pytest.approx(-0.125, abs=1e-8)


@pytest.mark.parametrize("n", [4, 5])
def test_coeffs_gauss(n):
    k, c, d, A, boundary = coeffs_degenerate(from_key(f"gauss:n={n}"))
    assert k == pytest.approx(n - 1, abs=1e-6)
    assert c == pytest.approx(1.0, abs=1e-6)
    assert d == pytest.approx(n / (n - 2), rel=1e-6)
    assert A == pytest.approx((n / (n - 2)) ** (1.0 / (2 - n)), rel=1e-6)
    assert not boundary


def test_coeffs_regime_mismatch():
    with pytest.raises(ParameterError):
        coeffs_degenerate(from_key("mean:n=3"))
    with pytest.raises(ParameterError):
        coeffs_nondegenerate(from_key("gauss:n=4"))


# ---------------------------------------------------------------------------
# tail fits
# ---------------------------------------------------------------------------


def test_fit_mean_n3_window():
    p = profile("mean:n=3", 500.0)
    rep = fit_tail(p, window=(100.0, 500.0))
    assert rep.rel_errors["a"] <= 1e-2
    assert abs(rep.fitted["a"] - 0.5) / 0.5 <= 1e-2


def test_fit_mean_n4_b_zero():
    p = profile("mean:n=4", 500.0)
    rep = fit_tail(p, window=(100.0, 500.0))
    assert abs(rep.fitted["b"]) <= 1e-2


def test_fit_gauss_degenerate():
    p = profile("gauss:n=4", 1e4)
    rep = fit_tail(p, window=(1e3, 1e4))
    assert abs(rep.fitted["d_gamma"] - 2.0) <= 0.02


def test_window_stability_of_a():
    p = profile("mean:n=3", 500.0)
    r1 = fit_tail(p, window=(50.0, 250.0)).fitted["a"]
    r2 = fit_tail(p, window=(100.0, 500.0)).fitted["a"]
    assert abs(r1 - r2) / abs(r1) <= 1e-3


def test_bad_window_rejected():
    p = profile("mean:n=4", 50.0)
    with pytest.raises(FitError):
        fit_tail(p, window=(40.0, 400.0))
    with pytest.raises(FitError):
        growth_exponent(p, window=(30.0, 20.0))
    with pytest.raises(FitError):
        growth_exponent(p, window=(1e-9, 20.0))


# ---------------------------------------------------------------------------
# growth exponents
# ---------------------------------------------------------------------------


def test_growth_exponent_mean_n3():
    assert growth_exponent(profile("mean:n=3", 500.0)) == pytest.approx(2.0, abs=0.02)


def test_growth_exponent_hq204():
    assert growth_exponent(profile("hq:k=2,l=0,n=4", 300.0)) == pytest.approx(2.0, abs=0.02)


def test_growth_exponent_gauss_degenerate():
    # slope w = A r^d integrates to d+1 = 3 for n = 4
    assert growth_exponent(profile("gauss:n=4", 1e4), window=(1e3, 1e4)) == pytest.approx(
        3.0, abs=0.05
    )


def test_default_window():
    p = profile("mean:n=4", 50.0)
    assert default_window(p) == (pytest.approx(5.0), pytest.approx(25.0))


# ---------------------------------------------------------------------------
# barrier comparison
# ---------------------------------------------------------------------------


def test_bowl_below_cylinder_cone():
    # positive-branch cone with unit slope ratio dominates the bowl slope
    f = from_key("mean:n=3")
    p = profile("mean:n=3", 50.0)
    beta = f.beta

    def cone_w(r):
        lo, hi = 0.0, max(2.0, 4.0 * r)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid / (1 + mid * mid) ** beta < r:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    for r, v in zip(p.r[:: max(1, len(p.r) // 40)], p.v[:: max(1, len(p.r) // 40)]):
        assert v <= cone_w(r) + 1e-9


@pytest.mark.parametrize(
    "key,r,v",
    [
        ("mean:n=3", 5.0, 4.0),
        ("hq:k=2,l=0,n=4", 3.0, 2.0),
        ("sk:k=3,n=5", 2.0, 1.0),
        ("mean:n=3", 1.0, 1.5),  # y-argument held at the cylinder clamp
    ],
)
def test_slope_derivative_matches_differences(key, r, v):
    f = from_key(key)
    rhs, _ = _slope_scalar(f, 1.0)
    _, derivative = _slope_field(f, 1.0)
    h = 1e-6 * v
    fd = (rhs(r, (v + h,))[0] - rhs(r, (v - h,))[0]) / (2 * h)
    assert derivative(r, v) == pytest.approx(fd, rel=1e-7)


def test_slope_rhs_maps_overflow_to_nan():
    # (1 + v^2)^(beta+1) of sk:k=3,n=5 overflows at v = 1e150, a state an
    # explicit stage can probe: the RHS gives NaN, not an OverflowError
    f = from_key("sk:k=3,n=5")
    rhs, jac = _slope_scalar(f, None)
    assert math.isnan(rhs(4.5, (1e150,))[0])
    assert math.isnan(rhs(4.5, (-1e150,))[0])
    (d,) = jac(4.5, (1e150,))
    assert isinstance(d, float)


def test_mean_profile_hands_off_once_to_radau():
    # the slope field is stiff from the axis on (h |dF/dv| >= STIFF_STEP
    # before the first step), so the run hands off at AXIS_EPS: Radau IIA
    # steps (5 coefficients) on the whole profile, no explicit step
    tr = profile("mean:n=3", 500.0).trajectory
    assert {len(seg.Q[0]) for seg in tr.segments} == {ode._RADAU_DENSE}
    assert tr.handoff == AXIS_EPS == tr.ts[0] == tr.segments[0].t0
    assert tr.step_counts() == {"handoff": AXIS_EPS, "explicit_steps": 0,
                                "radau_steps": len(tr.segments)}


def test_gauss_n5_tail_node_count():
    # a non-stiff degenerate tail, on Radau IIA from the axis as every bowl
    # is: 291 nodes, where DOP853 on the tail took 330
    tr = profile("gauss:n=5", 1e4).trajectory
    assert tr.handoff == AXIS_EPS
    assert tr.step_counts()["explicit_steps"] == 0
    assert len(tr.ts) < 1000  # any stepper on a non-stiff tail
    assert len(tr.ts) <= 300  # this one's count, pinned


def _count_slope_calls(monkeypatch, module, builder="_slope_scalar"):
    """Wrap the maps that ``module``'s ``builder`` (``_slope_scalar`` unless
    named) builds so that they count their calls: one {"rhs": n, "jac": n}
    per chart, in the order built."""
    charts = []
    scalar = getattr(module, builder)

    def counted(calls, name, fn):
        def wrapped(r, vs):
            calls[name] += 1
            return fn(r, vs)
        return wrapped

    def counted_scalar(f, clamp_y):
        rhs, jac = scalar(f, clamp_y)
        charts.append({"rhs": 0, "jac": 0})
        return counted(charts[-1], "rhs", rhs), counted(charts[-1], "jac", jac)

    monkeypatch.setattr(module, builder, counted_scalar)
    return charts


def test_mean_profile_layer_counts(monkeypatch):
    # the one-component Radau IIA path pinned call by call: mean:n=3 to r 500
    # takes 163 steps, 2,405 RHS calls (integrate's first one included) and
    # 58 Jacobian calls (the stiffness test's included), so a change to the
    # stage kernel that moves a single Newton iteration fails here
    charts = _count_slope_calls(monkeypatch, bowl)
    tr = solve_bowl(from_key("mean:n=3"), 500.0).trajectory
    assert tr.step_counts() == {"handoff": AXIS_EPS, "explicit_steps": 0, "radau_steps": 163}
    assert charts == [{"rhs": 2405, "jac": 58}]


def test_ordering_pairs_layer_counts(monkeypatch):
    # the batched path pinned call by call on the ordering-pairs bench jobs
    # at seed 1: 8 seeded pairs each on mean:n=3 and hq:k=2,l=0,n=4, r from
    # 1 to 100, each family one 16-component run on the ndarray Radau IIA
    # kernel from r 1 on.  An RHS call evaluates every component (one per
    # Newton iteration for all five stages; integrate's first one and the
    # first step's probe included).  The pairs meet on the attracting tail:
    # mean:n=3's minimum gap is exactly +0.0, hq's one rounding, -2^-50
    charts = _count_slope_calls(monkeypatch, bowl, "_slope_field")
    rng = np.random.default_rng([1, 4])
    reports = []
    for key in ("mean:n=3", "hq:k=2,l=0,n=4"):
        f = from_key(key)
        v_lo, v_hi = admissible_slope_range(f, 1.0)
        pairs = [tuple(sorted(rng.uniform(v_lo, v_hi, 2))) for _ in range(8)]
        reports.append(compare_orderings(f, pairs, 1.0, 100.0))
    assert [(rep["steps"]["explicit_steps"], rep["steps"]["radau_steps"])
            for rep in reports] == [(0, 108), (0, 101)]
    assert charts == [{"rhs": 414, "jac": 45}, {"rhs": 391, "jac": 43}]
    assert [rep["min_gap"].hex() for rep in reports] == ["0x0.0p+0", "-0x1.0000000000000p-50"]


def test_catenoid_graph_chart_layer_counts(monkeypatch):
    # the one-component DOP853 path pinned call by call on the graph charts
    # of qk:k=3,n=6 (R 1, r 200): the descending lower chart steps
    # explicitly throughout, the upper chart explicitly up to its handoff
    # to Radau IIA; RHS calls include integrate's first one and the stop's
    # final one, Jacobian calls the stiffness tests'.  A change to the
    # explicit stage kernel that moves a single step or rejection fails here
    charts = _count_slope_calls(monkeypatch, catenoid)
    res = solve_catenoid(from_key("qk:k=3,n=6"), 1.0, 200.0)
    counts = {name: (c["explicit_steps"], c["radau_steps"]) for name, c in res.charts.items()
              if name in ("lower", "upper")}
    assert counts == {"lower": (139, 0), "upper": (36, 52)}
    assert charts == [{"rhs": 2098, "jac": 0}, {"rhs": 1181, "jac": 42}]


def test_neck_chart_layer_counts(monkeypatch):
    # the several-component DOP853 path pinned call by call on the 2-state
    # neck charts of the catenoid bench jobs at R 1: explicit steps, RHS
    # calls (integrate's first one and the stop's final one included), the
    # stop that ended the chart and its exit row (r, u, phi) bit for bit.  A
    # change to the tableau loop that moves a single rounding fails here
    calls = []

    def integrate_spy(rhs, *args, **kwargs):
        calls.append(0)

        def counted(s, y):
            calls[-1] += 1
            return rhs(s, y)
        return ode.integrate(counted, *args, **kwargs)

    monkeypatch.setattr(catenoid, "integrate", integrate_spy)
    found = {}
    for key in ("qk:k=3,n=6", "qk:k=4,n=6", "qk:k=5,n=6", "sk:k=3,n=5"):
        neck = catenoid.solve_neck(from_key(key), 1.0)
        counts = neck.charts["neck_up"]
        assert counts["handoff"] is None and counts["radau_steps"] == 0
        found[key] = (counts["explicit_steps"], calls[-1], neck.up_exit_reason,
                      tuple(float(v).hex() for v in neck.up[-1, 1:4]))
    assert found == {
        "qk:k=3,n=6": (7, 108, "handoff",
                       ("0x1.19eb7d817133ap+0", "0x1.dee7b1c68dc72p-2", "0x1.2d97c7f3321f9p+0")),
        "qk:k=4,n=6": (8, 123, "handoff",
                       ("0x1.37a0ff1076ea7p+0", "0x1.f6059e61385a1p-1", "0x1.2d97c7f332177p+0")),
        "qk:k=5,n=6": (14, 213, "handoff",
                       ("0x1.c8d0e645502dap+0", "0x1.93a73bd5f0367p+1", "0x1.2d97c7f33220ap+0")),
        "sk:k=3,n=5": (12, 194, "curvature_zero",
                       ("0x1.4a5fc1d776802p+0", "0x1.19ae712d19d6bp+0", "0x1.308687b7475e1p+0")),
    }


@pytest.mark.parametrize("key, r_max", [("mean:n=3", 500.0), ("sk:k=3,n=5", 100.0)])
def test_bowl_at_tight_tolerance_reaches_r_max(key, r_max):
    # at rel_tol 1e-14 the Newton tolerance is capped at 0.03, where the floor
    # 100 eps / rel_tol alone is 2.2, more than the tolerance that scales the
    # iteration's norm: uncapped, these runs end in step_underflow at r 455.7
    # and 14.28; capped, they take 354 and 544 nodes and agree with the
    # profile at 3.0e-13 and 1.6e-13
    f = from_key(key)
    rhs, jac = _slope_scalar(f, 1.0)
    tr = ode.integrate(rhs, _ORACLE_EPS, [f.lambda0 * _ORACLE_EPS], r_max,
                       ode.IntegratorConfig(rel_tol=1e-14, abs_tol=1e-16), jac=jac)
    assert tr.termination == "reached_end"
    assert len(tr.ts) < 1000
    ref = profile(key, r_max)
    far = ref.r > 1
    assert np.max(np.abs(tr.resample(ref.r[far])[:, 0] / ref.v[far] - 1)) < 1e-12


@pytest.mark.parametrize("key, r_max", [("mean:n=3", 500.0), ("kconv:k=2,n=4", 200.0),
                                        ("qk:k=3,n=6", 200.0), ("hq:k=2,l=0,n=3", 200.0),
                                        ("gauss:n=4", 1e4), ("sk:k=3,n=5", 100.0)])
def test_axis_series_start_matches_a_tight_rerun(key, r_max):
    # the three-term series at AXIS_EPS against a rel_tol 1e-14 run from the
    # oracles' start: the slope and its integral, the height, within 1e-14
    # relative (1.1e-15 and 3.3e-16 at most on these six bowls)
    f = from_key(key)
    p = profile(key, r_max)
    rhs, jac = _slope_scalar(f, None if f.is_one_degenerate else 1.0)
    ref = ode.integrate(rhs, _ORACLE_EPS, [f.lambda0 * _ORACLE_EPS], 0.1,
                        ode.IntegratorConfig(rel_tol=1e-14, abs_tol=1e-30), jac=jac)
    assert ref.termination == "reached_end"
    assert p.r[0] == AXIS_EPS
    assert p.v[0] == pytest.approx(ref.resample([AXIS_EPS])[0, 0], rel=1e-14, abs=0.0)
    u_ref = ref.integral_at(np.array([AXIS_EPS]),
                            ref.node_integrals(0.5 * f.lambda0 * _ORACLE_EPS**2))[0]
    assert p.u[0] == pytest.approx(u_ref, rel=1e-14, abs=0.0)


def test_mean_bowl_reaches_r_1e6():
    # the Jacobian at the step's midpoint stalls this bowl at r 5.9e5 unless a
    # step on which Newton fails is retried with the Jacobian at its start
    p = solve_bowl(from_key("mean:n=3"), 1e6)
    assert p.trajectory.termination == "reached_end" and p.r[-1] == 1e6
