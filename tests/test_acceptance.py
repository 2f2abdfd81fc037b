"""Acceptance suite: one test per criterion, one printed verdict line each.

Profiles are shared across criteria through module-scoped fixtures; every
tolerance is stated inline next to its assertion.
"""

import json
import math
import time

import numpy as np
import pytest
from asymptotic_oracle import in_u_plus, laurent_fit

from translab.barrier import (
    BarrierSpec,
    admissible_slope_range,
    compare_orderings,
    log_grid,
    verify_inequality,
)
from translab.bowl import fit_tail, growth_exponent, solve_bowl
from translab.catenoid import solve_catenoid, solve_neck, upper_growth_exponent
from translab.cli import main as cli_main
from translab.curvature import from_key
from translab.implicit import ImplicitBranch

MEAN_NS = (3, 4, 5, 6, 7, 8)
GAUSS_NS = (4, 5)
SK_KEY = "sk:k=3,n=5"
SK_RMAX = 12.0
CAT_RS = (0.5, 1.0, 2.0)


def _verdict(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def mean_profiles():
    out = {}
    for n in MEAN_NS:
        t0 = time.perf_counter()
        p = solve_bowl(from_key(f"mean:n={n}"), 500.0)
        out[n] = (p, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def gauss_profiles():
    out = {}
    for n in GAUSS_NS:
        t0 = time.perf_counter()
        p = solve_bowl(from_key(f"gauss:n={n}"), 1e4)
        out[n] = (p, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def sk_bowl():
    return solve_bowl(from_key(SK_KEY), SK_RMAX)


@pytest.fixture(scope="module")
def sk_catenoids(sk_bowl):
    f = from_key(SK_KEY)
    out = {}
    for R in CAT_RS:
        t0 = time.perf_counter()
        res = solve_catenoid(f, R, SK_RMAX, bowl=sk_bowl)
        out[R] = (res, time.perf_counter() - t0)
    return out


def test_criterion_1_nondegenerate_asymptotics(mean_profiles):
    details = []
    ok = True
    for n in MEAN_NS:
        p, dt = mean_profiles[n]
        rep = fit_tail(p, window=(500.0 / 10, 500.0 / 2))
        a_ok = rep.rel_errors["a"] <= 0.01
        if n == 4:
            b_ok = abs(rep.fitted["b"]) <= 1e-2
        else:
            b_ok = abs(rep.fitted["b"] - rep.formula["b"]) / abs(rep.formula["b"]) <= 0.05
        t_ok = dt <= 10.0
        ok &= a_ok and b_ok and t_ok
        details.append(f"n={n}: da={rep.rel_errors['a']:.1e} b^={rep.fitted['b']:+.4f} {dt:.1f}s")
    _verdict(1, ok, "; ".join(details))


def test_criterion_2_degenerate_asymptotics(gauss_profiles):
    details = []
    ok = True
    for n in GAUSS_NS:
        p, dt = gauss_profiles[n]
        rep = fit_tail(p, window=(1e3, 1e4))
        d_f, A_f = n / (n - 2), (n / (n - 2)) ** (1.0 / (2 - n))
        # the family's Laurent pair (n-1, 1) feeds the formulas; the tail of
        # g_+ itself is fitted from the bisection oracle
        k_hat, c_hat = laurent_fit(ImplicitBranch(from_key(f"gauss:n={n}")))
        ok &= abs(rep.formula["d_gamma"] - d_f) <= 1e-9
        ok &= abs(rep.formula["A_gamma"] - A_f) <= 1e-9
        ok &= rep.rel_errors["d_gamma"] <= 0.02
        ok &= rep.rel_errors["A_gamma"] <= 0.02
        ok &= abs(k_hat - (n - 1)) / (n - 1) <= 0.01
        ok &= abs(c_hat - 1.0) <= 0.01
        ok &= dt <= 30.0
        details.append(
            f"n={n}: dd={rep.rel_errors['d_gamma']:.1e} dA={rep.rel_errors['A_gamma']:.1e} "
            f"k^={k_hat:.4f} c^={c_hat:.4f} {dt:.1f}s"
        )
    _verdict(2, ok, "; ".join(details))


def test_criterion_3_implicit_branch_correctness():
    cases = [("hq:k=2,l=0,n=3", None), ("hq:k=2,l=1,n=4", -0.45), ("hq:k=3,l=1,n=5", -0.40)]
    worst_cf = 0.0
    worst_rt = 0.0
    worst_scale = 0.0
    for key, y_lo in cases:
        f = from_key(key)
        b = ImplicitBranch(f)
        for y in np.linspace(0.05, 3.0, 50):
            for z in np.linspace(0.05, 3.0, 50):
                if not in_u_plus(f, float(y), float(z)):
                    continue
                x = b.g_plus(float(y), float(z))
                worst_cf = max(worst_cf, abs(x - b.bisect_level(float(y), float(z))))
                worst_rt = max(worst_rt, abs(f.value(x, float(y)) - float(z)))
        if y_lo is not None:
            ys = np.linspace(y_lo, -0.02, 50)
            with np.errstate(all="ignore"):
                xs = f.solve_minus(ys)
            # the -1 level one float at a time and as one array; max() would
            # pass over a NaN root, so each must be finite to be compared
            for y, x_array in zip(ys.tolist(), xs.tolist()):
                for x in (f.solve_minus(y), x_array):
                    assert math.isfinite(x), f"{key}: no root of the -1 level at y={y}"
                    worst_cf = max(worst_cf, abs(x - b.bisect_level(y, -1.0)))
                    worst_rt = max(worst_rt, abs(f.value(x, y) + 1.0))
        a = f.alpha_float
        for c in (0.5, 2.0, 5.0):
            for y in np.linspace(0.45, 0.95, 10):
                lhs = c * b.g_plus(float(y), 1.0)
                rhs = b.g_plus(c * float(y), c**a)
                worst_scale = max(worst_scale, abs(lhs - rhs))
    ok = worst_cf <= 1e-10 and worst_rt <= 1e-12 and worst_scale <= 1e-10
    _verdict(3, ok, f"closed-form {worst_cf:.1e}; roundtrip {worst_rt:.1e}; scaling {worst_scale:.1e}")


def test_criterion_4_comparison_principle():
    t0 = time.perf_counter()
    min_gap = math.inf
    for key in ("mean:n=3", "hq:k=2,l=0,n=4"):
        f = from_key(key)
        v_lo, v_hi = admissible_slope_range(f, 1.0)
        rng = np.random.default_rng(42)
        pairs = [tuple(sorted(rng.uniform(v_lo, v_hi, 2))) for _ in range(50)]
        rep = compare_orderings(f, pairs, 1.0, 100.0)
        min_gap = min(min_gap, rep["min_gap"])
    dt = time.perf_counter() - t0
    ok = min_gap >= -1e-9 and dt <= 20.0
    _verdict(4, ok, f"min gap {min_gap:.2e} over 2x50 pairs in {dt:.1f}s")


def test_criterion_5_barriers():
    details = []
    ok = True
    for n, k in ((7, 3), (6, 4)):
        f = from_key(f"qk:k={k},n={n}")
        br = ImplicitBranch(f)
        b = br.dg_minus_dy_at_zero()
        grid = log_grid(2.0, 1e3, per_decade=400)
        rep = verify_inequality(BarrierSpec("power", a=0.5, b=b, valid_range=(1.0, 1e4)), f, grid)
        power_ok = rep.r_star_nonneg is not None
        if power_ok:
            beyond = rep.margins[rep.grid >= rep.r_star_nonneg]
            power_ok = beyond.min() >= -1e-8
        ok &= power_ok and rep.skipped == 0
        # m0_bar exists only when gamma(-1,1) > 0 and lands in (-1, 0); for
        # these quotients it does not, so the cone case is exercised on the
        # k-norm slice where the equality identity is available
        ep = br.endpoint_data()
        m0_defined = ep.m0_bar is not None and -1.0 < ep.m0_bar < 0.0
        details.append(
            f"qk({k},{n}): power r*={rep.r_star_nonneg:.1f} min={rep.min_margin:.1e} "
            f"m0={'absent' if not m0_defined else ep.m0_bar}"
        )
    kn = from_key("knorm:k=2,n=3")
    m0 = ImplicitBranch(kn).endpoint_data().m0_bar
    rep = verify_inequality(
        BarrierSpec("implicit_cone", m_bar=m0, valid_range=(0.5, 200)),
        kn,
        log_grid(1.0, 100.0, per_decade=400),
    )
    cone_ok = rep.margins.max() <= 1e-9 and rep.skipped == 0
    ok &= cone_ok
    details.append(f"knorm cone max margin {rep.margins.max():.2e}")
    _verdict(5, ok, "; ".join(details))


def test_criterion_6_catenoid_construction(sk_catenoids):
    n, k = 5, 3
    details = []
    ok = True
    for R in CAT_RS:
        res, dt = sk_catenoids[R]
        neck = solve_neck(from_key(SK_KEY), R)
        kappa_ok = abs(neck.kappa_at_neck - (n - k) / (k * R)) <= 1e-8
        # one pi/2 event at one angle minimum: the folded angle falls to its
        # minimum and never falls after it
        th = res.lower.theta
        i0 = int(np.argmin(th))
        events_ok = bool(np.all(np.diff(th[: i0 + 1]) < 0) and np.all(np.diff(th[i0:]) >= 0))
        emb = res.embeddedness
        emb_ok = emb["conclusive"] and emb["min_gap"] > 0
        ge = upper_growth_exponent(res)
        ge_ok = abs(ge - 4.0) / 4.0 <= 0.02
        t_ok = dt <= 60.0
        ok &= kappa_ok and events_ok and emb_ok and ge_ok and t_ok
        details.append(
            f"R={R}: kappa_ok={kappa_ok} events_ok={events_ok} "
            f"gap={emb['min_gap']:.2f} ge={ge:.3f} {dt:.0f}s"
        )
    _verdict(6, ok, "; ".join(details))


def test_criterion_7_lower_end_classification():
    expected = {3: ("power_law", -1.0), 4: ("logarithmic", 0.0), 5: ("power_law", 0.5)}
    details = []
    ok = True
    for k, (kind, exp_u) in expected.items():
        res = solve_catenoid(from_key(f"qk:k={k},n=6"), 1.0, 200.0)
        eb = res.end_behavior
        kind_ok = eb["kind"] == kind
        exp_ok = eb["exponent_u"] == exp_u  # b is family data, so b + 1 is exact
        fit_ok = abs(eb["b_fitted"] - eb["b"]) <= 0.05 * abs(eb["b"])
        ok &= kind_ok and exp_ok and fit_ok
        details.append(f"k={k}: {eb['kind']} exp={eb['exponent_u']:+.3f} b^={eb['b_fitted']:.4f}")
    _verdict(7, ok, "; ".join(details))


def test_criterion_8_height_growth_window(mean_profiles):
    details = []
    ok = True
    for n in MEAN_NS:
        p, _ = mean_profiles[n]
        ge = growth_exponent(p, window=(50.0, 250.0))
        good = 2.0 - 0.05 <= ge <= 2.0 + 0.05
        ok &= good
        details.append(f"n={n}: {ge:.4f}")
    _verdict(8, ok, "; ".join(details))


def test_criterion_9_chart_independence(sk_bowl, sk_catenoids):
    f = from_key(SK_KEY)
    r8, _ = sk_catenoids[1.0]
    r6 = solve_catenoid(f, 1.0, SK_RMAX, handoff_tan=math.tan(math.pi / 6), bowl=sk_bowl)
    rel_s0 = abs(r8.s0 - r6.s0) / abs(r8.s0)
    rel_cp = abs(r8.upper.offset - r6.upper.offset) / max(abs(r8.upper.offset), 1e-12)
    rel_cm = abs(r8.lower.offset - r6.lower.offset) / abs(r8.lower.offset)
    q8 = solve_catenoid(from_key("qk:k=3,n=6"), 1.0, 200.0)
    q6 = solve_catenoid(from_key("qk:k=3,n=6"), 1.0, 200.0, handoff_tan=math.tan(math.pi / 6))
    rel_b = abs(q8.end_behavior["b_fitted"] - q6.end_behavior["b_fitted"]) / abs(
        q8.end_behavior["b_fitted"]
    )
    ok = max(rel_s0, rel_cp, rel_cm, rel_b) < 1e-4
    _verdict(
        9,
        ok,
        f"s0 {rel_s0:.1e}; C+ {rel_cp:.1e}; C- {rel_cm:.1e}; exponent {rel_b:.1e}",
    )


def test_criterion_10_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = cli_main(
            ["bowl", "--curvature", "gauss:n=4", "--rmax", "1000",
             "--out", str(out), "--seed", "11", "--quiet"]
        )
        assert code == 0
        outs.append(out)
    same = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("profile.csv", "bowl.json", "bowl_plot.gp")
    )
    ma = json.loads((outs[0] / "manifest.json").read_text())["files"]
    mb = json.loads((outs[1] / "manifest.json").read_text())["files"]
    ok = same and ma == mb
    _verdict(10, ok, "byte-identical outputs and matching manifest hashes")
