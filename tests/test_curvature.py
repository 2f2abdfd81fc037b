"""Slice evaluators, normalization, degeneracy, zero rays, homogeneity."""

import math
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translab.curvature import (
    build_family,
    check_homogeneity,
    from_key,
    registry_keys,
    zero_ray,
)
from translab.errors import DomainError, ParameterError, TranslabError, UnsupportedError
from translab.implicit import ImplicitBranch

ALL_KEYS = registry_keys()


def sym_poly_direct(vals, k):
    """Independent oracle: elementary symmetric polynomial by enumeration."""
    return sum(math.prod(c) for c in combinations(vals, k))


# ---------------------------------------------------------------------------
# construction and normalization
# ---------------------------------------------------------------------------


def test_mean_raw_value_at_ones():
    f = build_family("mean", 3)
    assert f._raw_value(1.0, 1.0) == pytest.approx(3.0, abs=1e-15)


def test_gauss_root_value_at_ones():
    f = build_family("gauss", 4)
    assert f.value(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_hq_normalization_contract():
    f = build_family("hq", 3, k=2, l=0)
    assert abs(f.value(0.0, 1.0) - 1.0) <= 1e-12


@pytest.mark.parametrize("key", ALL_KEYS)
def test_normalized_at_01(key):
    f = from_key(key)
    if not f.is_one_degenerate:
        assert abs(f.value(0.0, 1.0) - 1.0) <= 1e-12


def test_invalid_parameters_rejected():
    with pytest.raises(ParameterError):
        build_family("hq", 3, k=2, l=2)
    with pytest.raises(ParameterError):
        build_family("hq", 3, k=5, l=0)
    with pytest.raises(ParameterError):
        build_family("sk", 4, k=9)
    with pytest.raises(ParameterError):
        build_family("nosuch", 3)
    with pytest.raises(ParameterError):
        from_key("mean:k=3")
    # a key gives each parameter of its family once, and no other
    for key in ("qk:k=3,l=0,n=6", "mean:k=5,n=3", "sk:k=3,k=4,n=5", "hq:k=2,n=3"):
        with pytest.raises(ParameterError):
            from_key(key)


@pytest.mark.parametrize("key", ["qk:k=3,n=7", "sk:k=3,n=5"])
def test_analytic_second_partials_match_differences(key, monkeypatch):
    # at (g_+(1, 1), 1), where coeffs_nondegenerate takes them: g_+(1, 1) = 0
    # lies on the right end of U+, reached by the unrestricted solve
    f = from_key(key)
    y = 1.0
    x = ImplicitBranch(f).solve_extended(y, 1.0)
    assert abs(x) < 1e-12
    analytic = f.second_partials(x, y)
    monkeypatch.setattr(f, "_raw_second", lambda x, y: None)
    differenced = f.second_partials(x, y)
    scale = max(abs(v) for v in analytic)
    assert scale > 0
    for a, d in zip(analytic, differenced):
        assert abs(a - d) <= 1e-6 * scale


def test_kconv_k1_rejected_with_reason():
    # 1/(1/x + (n-1)/y) has no value at x = 0, where families are normalized
    with pytest.raises(ParameterError, match=r"undefined at \(0, 1\)"):
        from_key("kconv:k=1,n=3")


# ---------------------------------------------------------------------------
# degeneracy classification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_mean_nondegenerate(n):
    assert not build_family("mean", n).is_one_degenerate


@pytest.mark.parametrize("n", [3, 4, 5])
def test_gauss_degenerate(n):
    assert build_family("gauss", n).is_one_degenerate


def test_knorm_nondegenerate_by_direct_evaluation():
    # oracle: (0^2 + 1^2 + 1^2)^(1/2) > 0
    direct = math.sqrt(0.0**2 + 1.0**2 + 1.0**2)
    assert direct > 0
    assert not build_family("knorm", 3, k=2).is_one_degenerate
    f = build_family("knorm", 3, k=2)
    assert f.value_at_01 == pytest.approx(direct, abs=1e-14)


def test_sk_equals_n_degenerate():
    f = build_family("sk", 4, k=4)
    assert f.is_one_degenerate
    assert f.value_at_01 == 0.0


# ---------------------------------------------------------------------------
# homogeneity
# ---------------------------------------------------------------------------


def test_mean_homogeneity_exact():
    rep = check_homogeneity(from_key("mean:n=3"), samples=100, seed=0)
    assert rep["max_defect"] <= 1e-12


def test_hq_homogeneity():
    rep = check_homogeneity(from_key("hq:k=2,l=0,n=3"), samples=100, seed=0)
    assert rep["max_defect"] <= 1e-10


def test_gauss_degree_one_scaling():
    f = from_key("gauss:n=4")
    assert f.value(2.0, 2.0) == pytest.approx(2.0 * f.value(1.0, 1.0), abs=1e-14)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_homogeneity_all_families(key):
    rep = check_homogeneity(from_key(key), samples=60, seed=3)
    assert rep["max_defect"] <= 1e-10
    assert rep["tested"] > 0


def test_homogeneity_deterministic():
    a = check_homogeneity(from_key("sk:k=3,n=5"), samples=50, seed=11)
    b = check_homogeneity(from_key("sk:k=3,n=5"), samples=50, seed=11)
    assert a == b


@given(st.floats(0.1, 4.0), st.floats(0.1, 4.0), st.floats(0.2, 3.0))
@settings(max_examples=60, deadline=None)
def test_mean_homogeneity_property(x, y, c):
    f = from_key("mean:n=4")
    assert f.value(c * x, c * y) == pytest.approx(c * f.value(x, y), rel=1e-12)


# ---------------------------------------------------------------------------
# monotonicity and gradients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", ALL_KEYS)
def test_gradient_positive_and_matches_differences(key):
    f = from_key(key)
    rng = np.random.default_rng(5)
    for _ in range(100):
        x, y = f.sample_cone_point(rng)
        gx, gy = f.grad(x, y)
        assert gx > 0 and gy > 0
        h = 1e-6 * max(1.0, abs(x), abs(y))
        fx = (f.value(x + h, y) - f.value(x - h, y)) / (2 * h)
        fy = (f.value(x, y + h) - f.value(x, y - h)) / (2 * h)
        scale = max(1.0, abs(gx), abs(gy))
        assert abs(gx - fx) / scale < 1e-6
        assert abs(gy - fy) / scale < 1e-6


@pytest.mark.parametrize("key", ALL_KEYS + ["knorm:k=3,n=3", "kconv:k=3,n=3"])
def test_solve_x_floats_and_arrays(key):
    # one formula serves both: a float stays a float, an array keeps its
    # shape (kconv:k=3,n=3 has no y-term, so its root test is a float), and
    # NaN stands for "no root" instead of an exception, at zero levels too
    f = from_key(key)
    ys = np.array([-1.0, 0.0, 0.5, 2.0])
    for z in (-1.0, 0.0, 1.0):
        floats = [f.solve_x(y, z) for y in ys.tolist()]
        assert all(type(x) is float for x in floats)
        with np.errstate(all="ignore"):
            xs = f.solve_x(ys, z)
        assert xs.shape == ys.shape
        assert np.array_equal(np.isfinite(xs), np.isfinite(floats))


@pytest.mark.parametrize("key", ALL_KEYS + [
    "gauss:n=5", "hq:k=3,l=1,n=5", "knorm:k=3,n=3", "kconv:k=3,n=3"])
def test_grad_floats_and_arrays(key):
    # the batched Jacobian's one call: the array gradient equals the float
    # one, and is NaN where the float one raises DomainError
    f = from_key(key)
    pts = np.array([-2.0, -0.5, 0.0, 0.3, 1.0, 2.5])
    x, y = (a.ravel() for a in np.meshgrid(pts, pts))
    with np.errstate(all="ignore"):
        gx, gy, _ = np.broadcast_arrays(*f.grad(x, y), x)  # mean: constants
    undefined = 0
    for i, (xi, yi) in enumerate(zip(x.tolist(), y.tolist())):
        try:
            fx, fy = f.grad(xi, yi)
        except DomainError:
            undefined += 1
            assert math.isnan(gx[i]) and math.isnan(gy[i])
            continue
        except ZeroDivisionError:
            continue
        for a, b in ((gx[i], fx), (gy[i], fy)):
            assert a == pytest.approx(b, rel=1e-13, abs=1e-300)
    assert undefined > 0 or key.startswith(("mean", "sk", "qk"))


@pytest.mark.parametrize("k,n", [(2, 4), (3, 5), (3, 7)])
def test_sk_slice_matches_direct_symmetric_polynomial(k, n):
    f = build_family("sk", n, k=k)
    rng = np.random.default_rng(1)
    for _ in range(25):
        x, y = f.sample_cone_point(rng)
        vals = [x] + [y] * (n - 1)
        direct = sym_poly_direct(vals, k)
        assert f._raw_value(x, y) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("k,l,n", [(2, 0, 3), (2, 1, 4), (3, 1, 5)])
def test_hq_slice_matches_direct_ratio(k, l, n):
    f = build_family("hq", n, k=k, l=l)
    rng = np.random.default_rng(2)
    for _ in range(25):
        x, y = f.sample_cone_point(rng)
        vals = [x] + [y] * (n - 1)
        direct = (sym_poly_direct(vals, k) / sym_poly_direct(vals, l)) ** (1.0 / (k - l))
        assert f._raw_value(x, y) == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# zero rays
# ---------------------------------------------------------------------------


def test_zero_ray_qk():
    f = from_key("qk:k=3,n=7")
    x0, y0 = zero_ray(f)
    # oracle: first slice symmetric polynomial root is linear in x
    expected = -comb(6, 3) / comb(6, 2)  # -(n-k)/k
    assert x0 / y0 == pytest.approx(expected, rel=1e-12)
    assert abs(math.hypot(x0, y0) - 1.0) < 1e-12


def test_zero_ray_sk():
    f = from_key("sk:k=3,n=5")
    x0, y0 = zero_ray(f)
    expected = -comb(4, 3) / comb(4, 2)
    assert x0 / y0 == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(-(5 - 3) / 3)


def test_zero_ray_mean_unsupported():
    with pytest.raises(UnsupportedError):
        zero_ray(from_key("mean:n=3"))


def test_signed_sign_change_and_bisection():
    f = from_key("sk:k=3,n=5")
    x0, y0 = zero_ray(f)
    # segment from (1,1) toward the zero ray: value changes sign beyond it
    p1 = np.array([1.0, 1.0]) / math.hypot(1, 1)
    p2 = np.array([x0, y0])
    pbeyond = p2 + 0.15 * (p2 - p1)
    assert f.value(*p1) > 0
    assert f.value(*pbeyond) < 0
    lo, hi = 0.0, 1.15
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        p = p1 + mid * (p2 + 0.15 * (p2 - p1) - p1)
        if f.value(*p) > 0:
            lo = mid
        else:
            hi = mid
    p = p1 + 0.5 * (lo + hi) * (pbeyond - p1)
    assert abs(f.value(*p)) < 1e-10


def test_signed_odd_scaling_rule():
    f = from_key("sk:k=3,n=5")
    x, y = 1.2, 0.9
    for c in (-0.5, -2.0):
        assert f.value(c * x, c * y) == pytest.approx(
            -abs(c) ** 3 * f.value(x, y), rel=1e-12
        )


def test_kconv_inverse_has_no_root_outside_its_domain():
    # at y < 0 the k-fold sum k y is negative, where value raises: the
    # closed form gives NaN there, for floats and arrays, and solve_level
    # no longer returns the formula's x = 1.5 at (y, z) = (-1, 1)
    f = from_key("kconv:k=2,n=4")
    assert math.isnan(f.solve_x(-1.0, 1.0))
    with np.errstate(all="ignore"):
        xs = f.solve_x(np.array([-1.0, -0.25, 0.5, 1.0]), 1.0)
    assert np.isnan(xs[:2]).all() and np.isfinite(xs[2:]).all()
    assert xs[3] == pytest.approx(0.0, abs=1e-12)  # gamma(0, 1) = 1
    with pytest.raises(TranslabError):
        ImplicitBranch(f).solve_level(-1.0, 1.0)
