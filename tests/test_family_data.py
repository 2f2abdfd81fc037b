"""The asymptotic family constants: exact values, and the bisection oracle's
estimates of them (``asymptotic_oracle``)."""

import math
from math import comb

import pytest
from asymptotic_oracle import ORIGIN_STEPS, g_minus_probe, laurent_fit, origin_estimate

from translab.curvature import from_key, registry_keys
from translab.implicit import ImplicitBranch

DIVERGES = (-math.inf, math.nan)


def _same(data, expected):
    # NaN equals NaN here: a diverging g_- has no slope
    if data is None or expected is None:
        return data is expected
    return all(a == b or math.isnan(a) and math.isnan(b) for a, b in zip(data, expected))


# ---------------------------------------------------------------------------
# the origin data of g_-(y, -1)
# ---------------------------------------------------------------------------


def _expected_origin(key):
    f = from_key(key)
    n, c = f.dimension_n, f.normalization
    family = key.partition(":")[0]
    if family in ("hq", "qk"):
        if f.l >= 1:
            return (0.0, -(n - f.l) / f.l)
        return (-(n - 1.0), -(n - 1.0)) if f.m == 1 else DIVERGES
    if family == "sk":
        if f.k % 2 == 0:
            return None
        return (-(n - 1.0), -(n - 1.0)) if f.k == 1 else DIVERGES
    if family == "knorm":
        if f.k == 1:
            return (-(n - 1.0), -(n - 1.0))
        return (-c if f.k % 2 else c, 0.0)
    return None


@pytest.mark.parametrize("key", [
    "hq:k=2,l=1,n=4", "hq:k=3,l=1,n=5", "hq:k=4,l=2,n=6", "hq:k=5,l=2,n=5", "hq:k=2,l=0,n=3",
    "hq:k=3,l=0,n=3", "hq:k=3,l=0,n=5", "qk:k=1,n=4", "qk:k=3,n=7", "qk:k=6,n=6",
    "sk:k=1,n=4", "sk:k=2,n=4", "sk:k=3,n=5", "sk:k=4,n=4", "sk:k=5,n=5",
    "knorm:k=1,n=3", "knorm:k=2,n=3", "knorm:k=3,n=3", "knorm:k=4,n=5",
    "mean:n=3", "gauss:n=3", "gauss:n=4", "kconv:k=2,n=4",
])
def test_minus_origin_exact(key):
    assert _same(from_key(key).minus_origin, _expected_origin(key))


@pytest.mark.parametrize("key", [
    "hq:k=2,l=1,n=4", "hq:k=3,l=1,n=5", "hq:k=4,l=2,n=6", "hq:k=4,l=1,n=4", "hq:k=5,l=2,n=5",
    "hq:k=4,l=1,n=6", *(f"qk:k={k},n=6" for k in range(1, 7)), "qk:k=3,n=7", "sk:k=1,n=4",
    *(f"knorm:k={k},n={n}" for k in range(1, 6) for n in range(3, 7)),
])
def test_minus_origin_matches_extrapolation(key):
    # Neville's error here is at most 3.3e-9 (the slope on hq:k=2,l=1,n=4)
    branch = ImplicitBranch(from_key(key))
    limit, slope = origin_estimate(branch)
    assert branch.source.minus_origin == (pytest.approx(limit, abs=1e-8),
                                          pytest.approx(slope, abs=1e-8))


@pytest.mark.parametrize("key", ["hq:k=3,l=0,n=3", "sk:k=3,n=5", "sk:k=5,n=5"])
def test_minus_origin_divergence(key):
    branch = ImplicitBranch(from_key(key))
    assert _same(branch.source.minus_origin, DIVERGES)
    probes = [g_minus_probe(branch, -h) for h in ORIGIN_STEPS]
    assert all(abs(nearer) > 2 * abs(farther) for farther, nearer in zip(probes, probes[1:]))


# ---------------------------------------------------------------------------
# the Laurent pair of g_+(y, 1) and the degeneracy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key,expected", [
    *((f"gauss:n={n}", (n - 1, 1)) for n in (3, 4, 5)),
    ("sk:k=4,n=4", (3, 1)), ("sk:k=5,n=5", (4, 1)),
    ("hq:k=3,l=0,n=3", (2, 1)), ("hq:k=4,l=1,n=4", (2, comb(3, 1))),
    ("hq:k=5,l=2,n=5", (2, comb(4, 2))), ("qk:k=6,n=6", (0, 1)),
])
def test_laurent_exact(key, expected):
    f = from_key(key)
    assert f.is_one_degenerate
    # floats, as the bowl report writes them
    assert all(type(v) is float for v in f.laurent)
    assert f.laurent == expected


@pytest.mark.parametrize("key", [
    "gauss:n=3", "gauss:n=4", "gauss:n=5", "sk:k=5,n=5", "hq:k=4,l=1,n=4", "hq:k=5,l=2,n=5",
    "hq:k=3,l=0,n=3",
])
def test_laurent_matches_loglog_fit(key):
    # the fit is off by at most 1.3e-8 here (c on hq:k=5,l=2,n=5)
    branch = ImplicitBranch(from_key(key))
    k, c = laurent_fit(branch)
    assert branch.source.laurent == (pytest.approx(k, abs=1e-6), pytest.approx(c, abs=1e-6))


def test_laurent_k_zero_tends_to_c():
    # g_+(y, 1) = y/(y - 5) on qk:k=6,n=6: k = 0 with a 1/y correction,
    # which biases the log-log fit by 5.6e-3; g_+ tends to c instead
    branch = ImplicitBranch(from_key("qk:k=6,n=6"))
    _, c = branch.source.laurent
    for y in (1e4, 1e6, 1e8):
        assert abs(branch.bisect_level(y, 1.0) - c) <= 6.0 / y


@pytest.mark.parametrize("key", [
    "mean:n=3", "gauss:n=2", "gauss:n=4", "hq:k=2,l=0,n=3", "hq:k=3,l=0,n=3", "hq:k=4,l=2,n=4",
    "qk:k=3,n=7", "qk:k=4,n=4", "sk:k=3,n=5", "sk:k=4,n=4", "knorm:k=2,n=3", "knorm:k=5,n=4",
    "kconv:k=2,n=4", "kconv:k=3,n=3",
])
def test_degeneracy_is_an_exact_zero(key):
    # 1-degenerate exactly where the raw value at (0, 1) is 0.0, far from
    # every other family's, and only the 1-degenerate families carry a
    # Laurent pair
    f = from_key(key)
    assert f.is_one_degenerate == (f.value_at_01 == 0.0) == (f.laurent is not None)
    assert f.is_one_degenerate or abs(f.value_at_01) > 0.1


@pytest.mark.parametrize("key", registry_keys())
def test_umbilic_slope_of_g_plus(key):
    # X'(lambda0) = -gamma_y / gamma_x = -(n-1) at the umbilic (lambda0,
    # lambda0), where every partial of the symmetric function is equal: the
    # bowl's axis series (``axis_series``) takes it as exact
    f = from_key(key)
    gx, gy = f.grad(f.lambda0, f.lambda0)
    assert -gy / gx == pytest.approx(1.0 - f.dimension_n, rel=1e-12, abs=0.0)
