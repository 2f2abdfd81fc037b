"""Bowl profiles: axis start, residuals, coefficient formulas, tail fits."""

import math
import time

import numpy as np
import pytest

from translab import ode
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
from translab.curvature import from_key
from translab.errors import FitError, ParameterError

# profiles reused across tests (solves are pure)
_CACHE = {}


def profile(key, r_max):
    tag = (key, r_max)
    if tag not in _CACHE:
        _CACHE[tag] = solve_bowl(from_key(key), r_max)
    return _CACHE[tag]


def test_axis_start_mean_n3():
    f = from_key("mean:n=3")
    assert f.value(1.0, 1.0) == pytest.approx(1.5)
    p = profile("mean:n=3", 50.0)
    assert p.lambda0 == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert p.v[0] / p.r[0] == pytest.approx(p.lambda0, abs=1e-6)


@pytest.mark.parametrize("key,rmax", [("mean:n=4", 30.0), ("gauss:n=4", 30.0), ("sk:k=3,n=5", 8.0)])
def test_axis_umbilic_start(key, rmax):
    f = from_key(key)
    p = profile(key, rmax)
    lam0 = f.value(1.0, 1.0) ** (-1.0 / f.alpha_float)
    assert p.v[0] / p.r[0] == pytest.approx(lam0, abs=1e-6)


def test_gauss_profile_reaches_and_residual():
    p = profile("gauss:n=4", 1e3)
    assert p.termination == "reached_end"
    assert p.r[-1] >= 1e3 - 1e-9
    assert p.residuals.max() <= 1e-8


def test_height_matches_high_order_oracle():
    # exact quadrature of the collocation polynomials against DOP853 at
    # rtol 1e-13 on the (v, u) system; a trapezoid sum over the nodes is
    # off by 1.0e-5 here
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    f = from_key("gauss:n=4")
    p = profile("gauss:n=4", 1e3)
    value, _ = _slope_field(f, None)
    grid = np.geomspace(1.0, 1e3, 25)
    sol = solve_ivp(
        lambda r, y: [value(r, y[0]), y[0]],
        (AXIS_EPS, 1e3),
        [p.lambda0 * AXIS_EPS, 0.5 * p.lambda0 * AXIS_EPS**2],
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
    assert p.termination == "reached_end"
    assert dt < 5.0
    assert fit_tail(p).rel_errors["a"] <= 0.01
    assert growth_exponent(p) == pytest.approx(4.0, rel=0.02)


def test_v_strictly_increasing():
    p = profile("mean:n=4", 50.0)
    assert np.all(np.diff(p.v) > 0)


def test_slope_argument_in_domain_closure():
    # nondegenerate: y = v/(r (1+v^2)^beta) never exceeds the cylinder value
    p = profile("mean:n=4", 50.0)
    y = p.v / (p.r * (1 + p.v**2) ** p.beta)
    assert np.all(y <= 1.0 + 1e-12)
    lam0 = p.lambda0
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
    value, derivative = _slope_field(f, 1.0)
    h = 1e-6 * v
    fd = (value(r, v + h) - value(r, v - h)) / (2 * h)
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
    # DOP853 steps (7 coefficients) through the near-axis transition, then
    # Radau IIA steps (5) on the whole stiff tail: one handoff, one way
    tr = profile("mean:n=3", 500.0).trajectory
    kinds = [len(seg.Q[0]) for seg in tr.segments]
    n = kinds.index(ode._RADAU_DENSE)
    assert set(kinds[:n]) == {ode._DENSE} and set(kinds[n:]) == {ode._RADAU_DENSE}
    assert tr.handoff == tr.segments[n].t0 == tr.ts[n]
    assert 1.0 < tr.handoff < 10.0
    assert tr.step_counts() == {"handoff": tr.handoff, "explicit_steps": n,
                                "radau_steps": len(kinds) - n}


def test_gauss_n5_tail_stays_explicit():
    # a non-stiff degenerate tail: the handoff rule never fires (330 nodes;
    # Radau IIA from the axis takes 292)
    tr = profile("gauss:n=5", 1e4).trajectory
    assert tr.handoff is None
    assert tr.step_counts()["radau_steps"] == 0
    assert len(tr.ts) < 1000
