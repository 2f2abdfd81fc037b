"""Implicit branches: closed forms vs the bisection oracle, derivatives, endpoints."""

import math
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translab.barrier import BarrierSpec, log_grid, verify_inequality
from translab.catenoid import classify_case
from translab.cli import main
from translab.curvature import from_key
from translab.errors import ConvergenceError, DomainError, TranslabError, UnsupportedError
from translab.implicit import ImplicitBranch

HQ_CASES = ["hq:k=2,l=0,n=3", "hq:k=2,l=1,n=4", "hq:k=3,l=1,n=5"]


def branch(key):
    return ImplicitBranch(from_key(key))


# ---------------------------------------------------------------------------
# g_plus
# ---------------------------------------------------------------------------


def test_g_plus_mean_linear_inversion():
    # oracle: (x + 2y)/2 = 1  =>  x = 2 - 2y
    b = branch("mean:n=3")
    assert b.g_plus(0.5, 1.0) == pytest.approx(2 - 2 * 0.5, abs=1e-11)


@pytest.mark.parametrize("key", ["mean:n=3", "sk:k=3,n=5", "knorm:k=2,n=3", "kconv:k=2,n=4"])
def test_g_plus_at_right_endpoint(key):
    # g_+ -> 0 at the right endpoint of U+; knorm approaches like the square
    # root of the distance (6.3e-7 here), the others linearly
    b = branch(key)
    assert abs(b.g_plus(1.0 - 1e-13, 1.0)) < 2e-5


@pytest.mark.parametrize("key", HQ_CASES)
def test_hq_closed_form_grid(key):
    f = from_key(key)
    b = ImplicitBranch(f)
    worst = 0.0
    count = 0
    for y in np.linspace(0.05, 3.0, 50):
        for z in np.linspace(0.05, 3.0, 50):
            if not b.in_u_plus(float(y), float(z)):
                continue
            x = b.g_plus(float(y), float(z))
            worst = max(worst, abs(x - b.bisect_level(float(y), float(z))))
            count += 1
    assert count > 100
    assert worst <= 1e-10


def test_g_plus_outside_domain_right():
    b = branch("mean:n=3")
    with pytest.raises(DomainError) as err:
        b.g_plus(2.0, 1.0)
    assert err.value.violated == "right"


def test_g_plus_increasing_in_z():
    b = branch("sk:k=3,n=5")
    zs = np.linspace(0.4, 3.0, 20)
    xs = [b.g_plus(0.6, float(z)) for z in zs]
    assert all(x2 > x1 for x1, x2 in zip(xs, xs[1:]))


@given(st.floats(0.3, 0.95), st.floats(0.5, 2.0))
@settings(max_examples=50, deadline=None)
def test_g_plus_roundtrip_fuzz(y, z):
    f = from_key("hq:k=2,l=0,n=4")
    b = ImplicitBranch(f)
    if not b.in_u_plus(y, z):
        return
    x = b.g_plus(y, z)
    assert abs(f.value(x, y) - z) <= 1e-12 * max(1.0, abs(z))


def test_scaling_law_grid():
    for key in ["mean:n=3", "sk:k=3,n=5", "hq:k=2,l=1,n=4"]:
        f = from_key(key)
        b = ImplicitBranch(f)
        a = f.alpha_float
        for c in (0.5, 2.0, 5.0):
            for y in np.linspace(0.45, 0.95, 8):
                lhs = c * b.g_plus(float(y), 1.0)
                rhs = b.g_plus(c * float(y), c**a)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# g_minus
# ---------------------------------------------------------------------------


def test_g_minus_qk_closed_form_value():
    # reference closed form for Q_k with n=7, k=3 at y = -0.1
    n, k = 7, 3
    b = branch(f"qk:k={k},n={n}")
    Bk, Bk1, Bk2 = comb(n - 1, k), comb(n - 1, k - 1), comb(n - 1, k - 2)
    y = -0.1
    expected = Bk * y * (-1 - y) / (Bk1 * y + Bk * Bk2 / Bk1)
    assert b.g_minus(y) == pytest.approx(expected, abs=1e-10)


def test_g_minus_qk_limit_zero():
    b = branch("qk:k=3,n=7")
    assert abs(b.g_minus(-1e-7)) < 1e-5
    assert b.source.minus_origin[0] == 0.0


def test_g_minus_mean_unsupported():
    with pytest.raises(UnsupportedError):
        branch("mean:n=3").g_minus(-0.5)


def test_g_minus_outside_interval():
    with pytest.raises(DomainError):
        branch("qk:k=3,n=7").g_minus(-1.5)


def test_g_minus_has_no_decreasing_branch():
    # S_k has gamma_x = a y^(k-1), negative at y < 0 for even k
    b = branch("sk:k=2,n=4")
    for solve in (b.g_minus, lambda y: b.bisect_level(y, -1.0)):
        with pytest.raises(ConvergenceError, match="no root"):
            solve(-0.5)


def test_g_minus_decreasing_in_y():
    b = branch("qk:k=3,n=7")
    ys = np.linspace(-0.5, -0.01, 40)
    gs = [b.g_minus(float(y)) for y in ys]
    assert all(g1 > g2 for g1, g2 in zip(gs, gs[1:]))


@pytest.mark.parametrize("key,y_lo", [("hq:k=2,l=1,n=4", -0.45), ("hq:k=3,l=1,n=5", -0.40)])
def test_g_minus_hq_closed_form_grid(key, y_lo):
    f = from_key(key)
    b = ImplicitBranch(f)
    worst = 0.0
    for y in np.linspace(y_lo, -0.01, 50).tolist():
        x = b.g_minus(y)
        x_bis = b.bisect_level(y, -1.0)
        residual = abs(f.value(x, y) + 1.0)
        assert residual <= 1e-10
        if 0.5 * math.ulp(1.0) / f.grad(x, y)[0] > 1e-9:
            # half an ulp of the level fixes x only to more than 1e-9 here
            # (hq:k=2,l=1,n=4 at y = -0.33327, where gamma_x = 6.25e-8): the
            # closed form solves the level at least as well as the oracle
            assert residual <= abs(f.value(x_bis, y) + 1.0)
        else:
            worst = max(worst, abs(x - x_bis))
    assert worst <= 1e-9


@pytest.mark.parametrize(
    "y,residual_bound",
    # the root sits 2.5e-11 (1.2e-21) above the pole at 8.45e-6 (5.7e-11); the
    # residuals are those of the bisect-then-Newton solver that preceded the
    # closed form, and the oracle meets them
    [(-3.4e-6, 4.37e-11), (-2.3e-11, 4.24e-6)],
)
def test_g_minus_pole_hugging_root(y, residual_bound):
    f = from_key("qk:k=3,n=7")
    b = ImplicitBranch(f)
    x_bis = b.bisect_level(y, -1.0)
    assert abs(f.value(x_bis, y) + 1.0) <= residual_bound
    # next to the pole one ulp of x moves gamma by up to 7.4e-6, so the
    # closed form is held to ulps of x, not to the residual
    assert abs(b.g_minus(y) - x_bis) <= 2 * math.ulp(x_bis)


@pytest.mark.parametrize("k", [3, 5])
def test_g_minus_odd_knorm(k):
    # oracle: x^k + 2 y^k = -2 on the slice of n = 3, so x < 0 at y in (-1, 0)
    f = from_key(f"knorm:k={k},n=3")
    b = ImplicitBranch(f)
    for y in (-0.9, -0.5, -0.1, -1e-3):
        x = b.g_minus(y)
        assert abs(f.value(x, y) + 1.0) <= 1e-13
        assert x == pytest.approx(-((2.0 + 2.0 * y**k) ** (1.0 / k)), abs=1e-12)


@pytest.mark.parametrize(
    "key,expected",
    # values of the bisection on the mirrored chart that this solve replaced
    [
        ("knorm:k=2,n=3", (0.6164414002969152, 1.2247448713915787, 1.407124727947064,
                           1.4142128552661575)),
        ("knorm:k=4,n=3", (0.9106794631837349, 1.1701736596604064, 1.1891773837099322,
                           1.1892071150023753)),
    ],
)
def test_g_minus_even_knorm(key, expected):
    b = branch(key)
    for y, x in zip((-0.9, -0.5, -0.1, -1e-3), expected):
        assert b.g_minus(y) == pytest.approx(x, abs=1e-12)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_dg_dy_mean(n):
    b = branch(f"mean:n={n}")
    assert b.dg_dy(1.0, 1.0, 1) == pytest.approx(-(n - 1), abs=1e-8)
    assert b.dg_dy(1.0, 1.0, 2) == pytest.approx(0.0, abs=1e-8)


def test_dg_minus_dy_at_zero_qk():
    # the slope of g_- at the origin is -(n-k+1)/(k-1) on Q_k, exactly: b = -1
    # for k = 4, n = 6 decides the logarithmic lower end of criterion 7
    for k, n in ((3, 6), (4, 6), (5, 6), (3, 7)):
        assert branch(f"qk:k={k},n={n}").dg_minus_dy_at_zero() == -(n - k + 1) / (k - 1)


@pytest.mark.parametrize("key", ["mean:n=3", "sk:k=2,n=4", "sk:k=3,n=5", "hq:k=2,l=0,n=3"])
def test_dg_minus_dy_at_zero_needs_a_finite_limit(key):
    # no -1 level at the origin, or one that diverges there: no slope
    with pytest.raises(TranslabError):
        branch(key).dg_minus_dy_at_zero()


def test_dg_dy_matches_differences():
    b = branch("sk:k=3,n=5")
    y, z = 0.8, 1.0
    h = 1e-6
    fd = (b.g_plus(y + h, z) - b.g_plus(y - h, z)) / (2 * h)
    assert b.dg_dy(y, z, 1) == pytest.approx(fd, rel=1e-6)
    fd2 = (b.g_plus(y + h, z) - 2 * b.g_plus(y, z) + b.g_plus(y - h, z)) / h**2
    assert b.dg_dy(y, z, 2) == pytest.approx(fd2, rel=1e-3)


# ---------------------------------------------------------------------------
# endpoints
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", ["mean:n=3", "sk:k=3,n=5", "hq:k=2,l=0,n=3", "knorm:k=2,n=3"])
def test_endpoint_identities(key):
    f = from_key(key)
    b = ImplicitBranch(f)
    ep = b.endpoint_data()
    a = f.alpha_float
    assert ep.left_value == pytest.approx(f.value(1.0, 1.0) ** (-1.0 / a), abs=1e-12)
    # the interior solve at a relative distance 1e-8 from the left endpoint
    assert b.g_plus(f.lambda0 * (1 + 1e-8), 1.0) == pytest.approx(ep.left_value, abs=1e-6)
    if not f.is_one_degenerate:
        assert ep.right_value == 0.0


def test_m0_bar_knorm_identity():
    f = from_key("knorm:k=2,n=3")
    b = ImplicitBranch(f)
    ep = b.endpoint_data()
    assert ep.m0_bar is not None
    assert ep.m0_bar == pytest.approx(-f.value(-1.0, 1.0) ** -1.0, abs=1e-12)
    # g_-(m0, -1) = -m0 within 1e-8 (interior solve)
    gm = b.g_minus(ep.m0_bar * (1 - 1e-12))
    assert gm == pytest.approx(-ep.m0_bar, abs=1e-8)


def test_m0_bar_absent_for_sk():
    # gamma(-1, 1) < 0 for S_3 on the slice of n=5
    b = branch("sk:k=3,n=5")
    assert b.endpoint_data().m0_bar is None


# ---------------------------------------------------------------------------
# Laurent tails
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 5])
def test_laurent_tail_gauss(n):
    # oracle: (x y^(n-1))^(1/n) = 1  =>  x = y^(1-n)
    b = branch(f"gauss:n={n}")
    assert b.source.laurent == (n - 1, 1.0)
    for y in (1e3, 1e6):
        assert b.g_plus(y, 1.0) == pytest.approx(y ** (1 - n), rel=1e-14)


def test_laurent_tail_rejects_nondegenerate():
    assert from_key("mean:n=3").laurent is None


# ---------------------------------------------------------------------------
# closed-form inverses, scalar and array
# ---------------------------------------------------------------------------


# ulps of the scale max(|x|, |y|): the Hessian quotient's closed form takes
# the difference of two near-equal terms where x crosses 0, and its scalar
# form squares y with libm pow, which can be one ulp off the correctly
# rounded square that numpy takes
@pytest.mark.parametrize(
    "key, ulps",
    [("mean:n=3", 2), ("gauss:n=4", 2), ("hq:k=2,l=0,n=4", 4), ("qk:k=3,n=7", 2),
     ("sk:k=3,n=5", 2), ("knorm:k=2,n=3", 2), ("knorm:k=3,n=3", 2), ("kconv:k=2,n=4", 2),
     ("kconv:k=3,n=3", 2)],
)
@pytest.mark.parametrize("z", [1.0, 2.5])
def test_solve_levels_matches_scalar(key, ulps, z):
    # the array inverse equals the scalar one, and where it has no root,
    # neither has solve_level nor the bisection oracle: no root is missed
    b = branch(key)
    f = b.source
    ys = np.concatenate([[0.0, 1.0], np.linspace(-3.0, 3.0, 600), np.geomspace(1e-3, 1e2, 400)])
    with np.errstate(all="ignore"):
        levels = f.solve_x(ys.reshape(2, -1), z).ravel()
    scalar = np.array([f.solve_x(y, z) for y in ys.tolist()])

    # where there is no root both forms give NaN, never +-inf (a vanishing
    # denominator raises on floats and divides to inf on arrays)
    finite = np.isfinite(scalar)
    assert finite.any()
    assert np.array_equal(np.isnan(levels), ~finite)
    assert np.array_equal(np.isnan(scalar), ~finite)
    for y in ys[~finite].tolist():
        with pytest.raises(ConvergenceError):
            b.solve_level(y, z)
        with pytest.raises(TranslabError):
            b.bisect_level(y, z)
    scale = np.spacing(np.maximum(np.abs(scalar), np.abs(ys)))
    bound = np.full(ys.shape, float(ulps))
    if key.startswith("knorm"):
        # x = s^(1/k) with s = z^k - (n-1) y^k: numpy's array power and
        # libm's pow may round y^k one ulp apart, which moves s by (n-1) ulps
        # of y^k and x by that over ds/dx = k x^(k-1); where s cancels
        # (knorm:k=3,n=3 near y = 2.499 at z = 2.5) that is ~27 ulps of x
        k, n = f.k, f.dimension_n
        with np.errstate(divide="ignore"):
            bound += (n - 1) * np.spacing(np.abs(ys) ** k) / (k * np.abs(scalar) ** (k - 1)) / scale
    assert np.all(np.abs(levels - scalar) / scale <= bound, where=finite)
    # the closed forms solve the level wherever gamma is defined, to a
    # residual on the scale of the alpha-homogeneous terms
    for x, y in zip(scalar[finite].tolist(), ys[finite].tolist()):
        try:
            residual = abs(f.value(x, y) - z)
        except DomainError:
            continue
        assert residual <= 1e-10 * max(1.0, z) * max(1.0, abs(x), abs(y)) ** f.alpha_float


@pytest.mark.parametrize("key", ["qk:k=3,n=7", "qk:k=3,n=6"])
def test_qk_has_no_root_at_y_zero(key):
    # gamma(x, 0) = 0 for every x off the pole: no level has a root at y = 0
    b = branch(key)
    f = b.source
    for z in (-2.0, -0.3, 0.3, 1.0):
        assert math.isnan(f.solve_x(0.0, z))
        with np.errstate(all="ignore"):
            assert np.isnan(f.solve_x(np.array([0.0]), z)).all()
        for solve in (b.solve_level, b.bisect_level):
            with pytest.raises(ConvergenceError, match="no root"):
                solve(0.0, z)


@pytest.mark.parametrize("key", ["qk:k=3,n=7", "qk:k=5,n=6"])
def test_qk_vanishing_denominator_gives_nan(key):
    # the m = 1 inverse divides by B_{k-1} y - B_{k-2} z, which vanishes at
    # the limit level: NaN for an array of y, as for a float, not +-inf
    f = from_key(key)
    zeros = 0
    for z in np.linspace(-3.0, 3.0, 61).tolist():
        z_raw = z * f.normalization
        y0 = f._bl1 * z_raw / f._bk1
        ys = y0 + np.spacing(abs(y0)) * np.arange(-6, 7)
        ys = ys[f._bk1 * ys - f._bl1 * z_raw == 0]
        zeros += ys.size
        with np.errstate(all="ignore"):
            assert np.isnan(f.solve_x(ys, z)).all()
        assert all(math.isnan(f.solve_x(y, z)) for y in ys.tolist())
    assert zeros > 10


# every registry family, the Hessian quotients with m = k - l = 2, 3, 4
# without a pole (l = 0) and with one (l = 1), the m = 1 quotients (qk), odd
# and even roots and k-norms
@pytest.mark.parametrize("key", [
    "hq:k=2,l=0,n=3", "hq:k=3,l=0,n=5", "hq:k=4,l=0,n=5", "hq:k=3,l=1,n=5", "hq:k=4,l=1,n=5",
    "hq:k=5,l=1,n=6", "mean:n=3", "gauss:n=4", "gauss:n=5", "qk:k=3,n=7", "qk:k=2,n=4",
    "qk:k=5,n=6", "sk:k=3,n=5", "knorm:k=2,n=3", "knorm:k=3,n=3", "knorm:k=4,n=4",
    "kconv:k=2,n=4", "kconv:k=3,n=3"])
def test_hq_power_inverse_exact(key):
    # the closed-form inverse, scalar or array, is finite only at a root
    # strictly inside x_chart; where it is NaN the bisection oracle finds none
    b = branch(key)
    f = b.source
    mag = np.geomspace(1e-3, 1e3, 31)
    ys = np.concatenate([-mag, mag])
    finite = []

    def check_root(x, y, z):
        lo, hi = f.x_chart(y, z)
        assert lo < x < hi
        # the residual bound of test_solve_levels_matches_scalar plus the
        # change of gamma over a few ulps of x: near the numerator root
        # (|z/y| small) gamma is steep and no float x meets the first
        tol = 1e-10 * max(1.0, abs(z)) * max(1.0, abs(x), abs(y)) ** f.alpha_float
        gx, gy = f.grad(x, y)
        slack = gx * math.ulp(x)
        if key.startswith("knorm"):
            # where the power sum cancels (|z| << |y|), gamma's own rounding
            # of y^k moves it as much
            slack += abs(gy) * math.ulp(y)
        assert abs(f.value(x, y) - z) <= tol + 8 * slack
        finite.append(x)

    def check_levels(y, zs):
        for z in zs:
            with np.errstate(all="ignore"):
                x_array = f.solve_x(np.array([y]), z)[0]
            for x in (f.solve_x(y, z), x_array):
                if math.isfinite(x):
                    check_root(x, y, z)

    for z in (-1e3, -2.5, -1.0, -0.3, -1e-3, 1e-3, 0.3, 1.0, 2.5, 1e3):
        with np.errstate(all="ignore"):
            xs = f.solve_x(ys, z)
        for y, x_array in zip(ys.tolist(), xs.tolist()):
            x_scalar = f.solve_x(y, z)
            if not math.isfinite(x_scalar):
                with pytest.raises(TranslabError):
                    b.bisect_level(y, z)
            for x in (x_scalar, x_array):
                if math.isfinite(x):
                    check_root(x, y, z)
    if key.startswith(("hq", "qk")):
        # levels whose root lies within a few ulps of the numerator root x_n,
        # where the computed root may round onto x_n or next to it
        for y in ys.tolist():
            check_levels(y, [ratio * y for ratio in np.geomspace(1e-12, 1e-2, 21).tolist()])
    if key.startswith("qk"):
        # levels within 40 ulps of the limit y B_{k-1}/B_{l-1} at x = +-inf,
        # where the root may round onto the other piece of the pole
        for y in ys.tolist():
            limit = y * f._limit / f.normalization
            check_levels(y, [limit + i * math.ulp(limit) for i in range(-40, 41)])
    assert finite


# ---------------------------------------------------------------------------
# the bisection oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key,y,z", [
    # levels gamma only approaches: qk:k=5,n=6's limit at x = -inf,
    # knorm:k=4,n=4's value at the chart end x = 0 and kconv:k=2,n=4's limit
    # at x = +inf.  gamma comes within round-off of them at finite x (a
    # residual-stopped Newton solve returned x = -1.1e15 and 1.5e-5 on the
    # first two; kconv rounds to the level exactly from x = 3.4e15 on)
    ("qk:k=5,n=6", -1.0, -2.5), ("knorm:k=4,n=4", 1.0, 1.0), ("knorm:k=4,n=4", -1.0, 1.0),
    ("kconv:k=2,n=4", 0.1, 0.3),
])
def test_no_root_where_gamma_only_approaches_the_level(key, y, z):
    b = branch(key)
    with pytest.raises(TranslabError):
        b.solve_extended(y, z)
    with pytest.raises(ConvergenceError, match="no root"):
        b.bisect_level(y, z)


@pytest.mark.parametrize("key", ["kconv:k=2,n=4", "kconv:k=3,n=3"])
def test_oracle_keeps_to_the_kconv_domain(key):
    # the root lies at x < 0, and x_chart keeps the probes where the k-fold
    # sums containing x are positive, so that value is defined
    b = branch(key)
    x = b.solve_extended(1.0, 1e-3)
    assert x < 0
    assert b.bisect_level(1.0, 1e-3) == pytest.approx(x, rel=1e-15)


def test_no_solve_path_reaches_the_oracle(monkeypatch, tmp_path):
    def oracle(self, y, z):
        raise AssertionError("bisect_level called")

    monkeypatch.setattr(ImplicitBranch, "bisect_level", oracle)
    b = branch("qk:k=4,n=6")
    assert b.in_u_plus(0.9, 1.0)
    b.g_plus(0.9, 1.0)
    b.g_minus(-0.1)
    b.dg_dy(1.0, 1.0, order=2)
    b.dg_minus_dy_at_zero()
    classify_case(b.source)
    spec = BarrierSpec("power", a=0.5, b=-1.0, valid_range=(1.0, 1e4))
    verify_inequality(spec, b.source, log_grid(2.0, 1e3, per_decade=40))
    assert main(["bowl", "--curvature", "gauss:n=4", "--out", str(tmp_path / "b"), "--quiet"]) == 0
    assert main(["catenoid", "--curvature", "qk:k=4,n=6", "--R", "1",
                 "--out", str(tmp_path / "c"), "--quiet"]) == 0
    # the implicit suite of verify does call it, so the spy is in place
    with pytest.raises(AssertionError, match="bisect_level called"):
        main(["verify", "--suite", "implicit", "--curvature", "qk:k=4,n=6",
              "--out", str(tmp_path / "v"), "--quiet"])
