"""Catenoidal translators: neck, branches, events, classification."""

import math
import time

import numpy as np
import pytest

from translab.bowl import PROFILE_CONFIG, _slope_scalar, solve_bowl
from translab.catenoid import (
    HANDOFF_TAN,
    check_embeddedness,
    solve_catenoid,
    solve_neck,
    upper_growth_exponent,
)
from translab.curvature import CurvatureFunction, from_key
from translab.errors import FitError, ParameterError, UnsupportedError
from translab.ode import integrate

_CACHE = {}


def catenoid(key, R, rmax, **kw):
    tag = (key, R, rmax, tuple(sorted(kw.items())))
    if tag not in _CACHE:
        f = from_key(key)
        btag = ("bowl", key, rmax)
        if btag not in _CACHE:
            _CACHE[btag] = solve_bowl(f, rmax)
        _CACHE[tag] = solve_catenoid(f, R, rmax, bowl=_CACHE[btag], **kw)
    return _CACHE[tag]


# ---------------------------------------------------------------------------
# neck
# ---------------------------------------------------------------------------


def test_neck_kappa_qk():
    neck = solve_neck(from_key("qk:k=3,n=7"), 1.0)
    assert neck.kappa_at_neck == pytest.approx((7 - 3) / (3 * 1.0), abs=1e-8)


def test_neck_kappa_sk_R2():
    neck = solve_neck(from_key("sk:k=3,n=5"), 2.0)
    assert neck.kappa_at_neck == pytest.approx((5 - 3) / (3 * 2.0), abs=1e-8)


def _lower_arc_rows(res):
    """The lower profile's rows on the lower arc, the chart before its tail:
    columns s, r, u, theta, kappa, residual."""
    lo = res.lower
    return np.column_stack([lo.s, lo.r, lo.u, lo.theta, lo.kappa, lo.residuals])[:lo.tail_start]


def test_neck_initial_condition_exact():
    neck = solve_neck(from_key("sk:k=3,n=5"), 1.5)
    assert tuple(neck.up[0, :4]) == (0.0, 1.5, 0.0, math.pi / 2)  # s, r, u, phi
    rows = _lower_arc_rows(catenoid("sk:k=3,n=5", 1.5, 12.0))
    assert tuple(rows[0, :4]) == (0.0, 1.5, 0.0, math.pi)  # s, r, u, theta


@pytest.mark.parametrize("key, R, rmax", [("sk:k=3,n=5", 1.5, 12.0), ("qk:k=5,n=6", 2.0, 30.0)])
def test_lower_branch_starts_at_the_neck(key, R, rmax):
    # the lower arc starts on the neck itself, psi = 0, where D = 1/kappa_neck
    # is regular: its first row is the neck, with the neck's curvature
    # X(1/R, 0), which equals -kappa_neck up to the rounding of either
    f = from_key(key)
    s, r, u, theta, kappa = _lower_arc_rows(catenoid(key, R, rmax))[0, :5]
    assert (s, r, u, theta, kappa) == (0.0, R, 0.0, math.pi, f.solve_x(1.0 / R, 0.0))
    assert kappa == pytest.approx(-solve_neck(f, R).kappa_at_neck, rel=1e-15)


@pytest.mark.parametrize("key, tail", [("sk:k=3,n=5", "lower_tail"), ("qk:k=3,n=6", "lower")])
def test_lower_branch_leaves_the_neck_on_the_arc(key, tail):
    # both lower ends leave the neck on the scalar tilt chart, and no neck
    # chart runs down
    res = catenoid(key, 1.0, 12.0)
    assert set(res.charts) == {"neck_up", "upper", "lower_arc", tail, "bowl"}
    assert set(res.lower.charts) == {"lower_arc", tail}


def test_neck_strictly_convex_and_residual():
    neck = solve_neck(from_key("sk:k=3,n=5"), 1.0)
    arc = _lower_arc_rows(catenoid("sk:k=3,n=5", 1.0, 12.0))
    for rows in (neck.up, arc):
        assert rows[:, 5].max() <= 1e-8
        r = rows[:, 1]
        assert np.all(r >= rows[0, 1] - 1e-12)  # the neck is the r minimum


def test_neck_curvature_matches_quadratic_start():
    # r(u) = R + kappa u^2 / 2 + O(u^3) near the neck
    neck = solve_neck(from_key("qk:k=3,n=6"), 1.0)
    u = neck.up[:, 2]
    r = neck.up[:, 1]
    small = u < 0.05
    fitted = np.polyfit(u[small], r[small], 3)
    assert 2 * fitted[1] == pytest.approx(neck.kappa_at_neck, rel=1e-3)


@pytest.mark.parametrize(
    "key, reason, r_exit",
    [("qk:k=3,n=6", "handoff", 1.1012495461482097),
     ("sk:k=3,n=5", "curvature_zero", 1.2905236388238688)],
)
def test_neck_stop_reason(key, reason, r_exit):
    # the upper neck chart ends on whichever stop crosses first: the handoff
    # tangent, or the profile curvature changing sign before it (s_3)
    neck = solve_neck(from_key(key), 1.0)
    assert neck.up_exit_reason == reason
    assert neck.up[-1, 1] == pytest.approx(r_exit, rel=1e-12)


@pytest.mark.parametrize("key, R", [("qk:k=3,n=6", 1e4), ("qk:k=3,n=6", 1e5), ("qk:k=4,n=6", 1e6)])
def test_large_neck_reaches_handoff(key, R):
    # the curvature-zero stop is measured in the neck's own curvature scale,
    # so it clears the graze band at any R instead of letting the neck chart
    # grind to its cap; the lower arc runs in the tilt, whose span does not
    # grow with R, so it takes as few steps at any R
    t0 = time.perf_counter()
    neck = solve_neck(from_key(key), R)
    res = solve_catenoid(from_key(key), R, 5 * R)
    assert time.perf_counter() - t0 < 2.0
    assert neck.up_exit_reason == "curvature_zero"
    assert neck.up[-1, 0] < 0.01 * R  # far short of the cap s = 6 R
    assert res.case == "derivative_origin"
    assert res.charts["lower_arc"]["explicit_steps"] <= 20


# past these R one DOP853 step crosses the pole z = 2y of X onto the other
# piece of solve_x, and the chart rides X near the pole to the handoff tilt
# (CHANGES.md FOUND: large-R necks)
_POLE_CROSSED = {(3, 12), (4, 13), (5, 13), (5, 14)}


@pytest.mark.parametrize("k, e", [
    pytest.param(k, e, marks=pytest.mark.xfail((k, e) in _POLE_CROSSED, strict=True,
                                               reason="a neck chart step crosses the pole of X"))
    for k in (3, 4, 5) for e in range(3, 15)])
def test_large_neck_ends_at_its_curvature_zero(k, e):
    # on a neck of radius R the curvature X(sin phi / r, cos phi) vanishes
    # where gamma(0, y) = y meets z = cos phi, at the tilt 1 / R from the
    # vertical, well before the handoff tilt pi/8
    R = 10.0**e
    neck = solve_neck(from_key(f"qk:k={k},n=6"), R)
    assert neck.up_exit_reason == "curvature_zero"
    assert (math.pi / 2 - neck.up[-1, 3]) * R == pytest.approx(1.0, rel=0.03)


def test_neck_requires_signed():
    with pytest.raises(UnsupportedError):
        solve_neck(from_key("mean:n=3"), 1.0)
    with pytest.raises(ParameterError):
        solve_neck(from_key("sk:k=3,n=5"), -1.0)


# ---------------------------------------------------------------------------
# full catenoid, case 1 (s_3)
# ---------------------------------------------------------------------------


def test_sk_case_and_events():
    res = catenoid("sk:k=3,n=5", 1.0, 12.0)
    assert res.case == "continuous_origin"
    assert res.s0 is not None and res.s0 > 0
    # one pi/2 event at one angle minimum: the folded angle falls to its
    # minimum and rises after it, but for the row repeated where the lower
    # arc hands over to the tail
    th = res.lower.theta
    i0 = int(np.argmin(th))
    assert np.all(np.diff(th[: i0 + 1]) < 0)
    rise = np.diff(th[i0:])
    assert np.all(rise >= 0)
    assert (np.flatnonzero(rise == 0) + i0).tolist() == [res.lower.tail_start - 1]


def test_sk_lower_theta_structure():
    res = catenoid("sk:k=3,n=5", 1.0, 12.0)
    th = res.lower.theta
    s = res.lower.s
    assert th[0] == pytest.approx(math.pi, abs=1e-9)
    assert np.all((th >= math.pi / 2 - 1e-9) & (th <= math.pi + 1e-9))
    i0 = int(np.argmin(th))
    assert s[i0] == pytest.approx(res.s0, abs=0.05)
    # falling to the bottom, rising after
    assert np.all(np.diff(th[: i0 + 1]) <= 1e-9)
    assert np.all(np.diff(th[i0:]) >= -1e-9)


def test_sk_upper_theta_in_quarter():
    res = catenoid("sk:k=3,n=5", 1.0, 12.0)
    th = res.upper.theta
    assert np.all((th > 0) & (th <= math.pi / 2 + 1e-12))
    # after its single dip the angle increases monotonically
    i0 = int(np.argmin(th))
    assert np.all(np.diff(th[i0:]) >= -1e-9)


def test_sk_embeddedness_and_gap():
    res = catenoid("sk:k=3,n=5", 1.0, 12.0)
    emb = res.embeddedness
    assert emb["conclusive"]
    assert emb["min_gap"] > 0
    assert emb["widening"]


def test_sk_upper_growth_exponent():
    res = catenoid("sk:k=3,n=5", 1.0, 12.0)
    ge = upper_growth_exponent(res)
    assert ge == pytest.approx(4.0, rel=0.02)


def test_sk_arc_length_consistency():
    res = catenoid("sk:k=3,n=5", 1.0, 12.0)
    for prof in (res.upper, res.lower):
        ds = np.diff(prof.s)
        chord = np.hypot(np.diff(prof.r), np.diff(prof.u))
        mask = ds > 1e-9
        assert np.all(chord[mask] <= ds[mask] * (1 + 1e-6))
        # chord/arc -> 1 on fine segments
        fine = mask & (ds < 1e-3)
        if fine.any():
            assert np.max(1 - chord[fine] / ds[fine]) < 1e-4


def test_sk_residuals():
    res = catenoid("sk:k=3,n=5", 1.0, 12.0)
    for prof in (res.upper, res.lower):
        r = prof.residuals[np.isfinite(prof.residuals)]
        assert r.max() <= 1e-8


def test_u_at_reproduces_node_heights():
    res = catenoid("sk:k=3,n=5", 1.0, 12.0)
    for prof in (res.upper, res.lower):
        assert prof.u_at(prof.r) == pytest.approx(prof.u, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("chart", ["upper", "descending", "turning"])
def test_upper_height_against_dop853_oracle(chart):
    # the profile against scipy's DOP853 on 3-state systems in charts that
    # the code does not use, from the neck on: (r, r_u, s) in u on the neck
    # (in tau = -u going down), (v, u, s) in r on the graph charts, and
    # (r, u, s) in the slope w through the bottom on a turning chart
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    key, rmax = ("sk:k=3,n=5", 12.0) if chart == "turning" else ("qk:k=3,n=6", 200.0)
    f = from_key(key)
    res = catenoid(key, 1.0, rmax)
    slope, _ = _slope_scalar(f, None)
    sign = 1.0 if chart == "upper" else -1.0  # tau = sign u

    def neck(tau, y):
        # p = dr/dtau = sign r_u, and d2r/dtau2 = r_uu =
        # -(1 + r_u^2)^(beta+1) X(1 / (r (1+r_u^2)^beta), r_u)
        r, p, _ = y
        one_plus = 1.0 + p * p
        x = f.solve_x(1.0 / (r * one_plus**f.beta), sign * p)
        return [p, -(one_plus ** (f.beta + 1.0)) * x, math.sqrt(one_plus)]

    def neck_exit(tau, y):
        return y[1] - HANDOFF_TAN

    def graph(r, y):
        return [slope(r, (y[0],))[0], y[0], math.sqrt(1.0 + y[0] ** 2)]

    def oracle(rhs, span, y0, **kw):
        sol = solve_ivp(rhs, span, y0, method="DOP853", rtol=1e-13, atol=1e-20, **kw)
        assert sol.success
        return sol

    neck_exit.terminal = True
    top = oracle(neck, (0.0, 6.0), [1.0, 0.0, 0.0], events=neck_exit)
    # both necks end on the handoff tilt, the upper one before its curvature
    # crosses zero
    assert top.status == 1
    r_h, p_h, s_h = top.y[:, -1]
    u_h, v_h = sign * top.t[-1], sign / p_h  # the slope du/dr

    if chart != "turning":
        prof = res.upper if chart == "upper" else res.lower
        grid = np.geomspace(r_h, rmax, 25)
        sol = oracle(graph, (r_h, rmax), [v_h, u_h, s_h], t_eval=grid)
        # node heights, the dense height between the nodes and the arc length
        assert prof.u[-1] == pytest.approx(sol.y[1, -1], rel=1e-10)
        assert prof.u_at(grid) == pytest.approx(sol.y[1], rel=1e-10)
        assert prof.s[-1] == pytest.approx(sol.y[2, -1], rel=1e-10)
        return

    def turn_enter(r, y):
        return y[0] + HANDOFF_TAN

    turn_enter.terminal = True
    down = oracle(graph, (r_h, rmax), [v_h, u_h, s_h], events=turn_enter)
    r1, (w1, u1, s1) = down.t[-1], down.y[:, -1]

    def turning(w, y):
        drdw = 1.0 / slope(y[0], (w,))[0]
        return [drdw, w * drdw, math.sqrt(1.0 + w * w) * drdw]

    sol = oracle(turning, (w1, HANDOFF_TAN), [r1, u1, s1], t_eval=[0.0, HANDOFF_TAN])
    # the bottom at w = 0, and the chart's end, which starts the tail
    lo = res.lower
    end = lo.tail_start
    assert res.s0 == pytest.approx(sol.y[2, 0], rel=1e-10)
    assert lo.r[end] == pytest.approx(sol.y[0, -1], rel=1e-10)
    assert lo.u[end] == pytest.approx(sol.y[1, -1], rel=1e-10)
    assert lo.u_at([lo.r[end]])[0] == pytest.approx(sol.y[1, -1], rel=1e-10)
    assert lo.s[end] == pytest.approx(sol.y[2, -1], rel=1e-10)


def test_alpha_three_catenoid_reaches_r100():
    t0 = time.perf_counter()
    res = solve_catenoid(from_key("sk:k=3,n=5"), 1.0, 100.0)
    dt = time.perf_counter() - t0
    assert dt < 5.0
    assert upper_growth_exponent(res) == pytest.approx(4.0, rel=0.02)


def test_upper_growth_window_rejected():
    res = catenoid("sk:k=3,n=5", 1.0, 12.0)
    for window in [(8.0, 4.0), (4.0, 20.0), (0.5, 4.0)]:
        with pytest.raises(FitError):
            upper_growth_exponent(res, window)


def test_c_plus_window_stability():
    res = catenoid("sk:k=3,n=5", 1.0, 12.0)
    up = res.upper
    bowl = _CACHE[("bowl", "sk:k=3,n=5", 12.0)]
    for w in [(4.0, 8.0), (6.0, 11.0)]:
        grid = np.geomspace(*w, 100)
        c = float(np.mean(up.u_at(grid) - bowl.u_at(grid)))
        assert c == pytest.approx(up.offset, rel=1e-3)


@pytest.mark.parametrize("key, R, rmax", [
    ("qk:k=3,n=6", 1.0, 200.0), ("qk:k=4,n=6", 1.0, 200.0), ("qk:k=5,n=6", 1.0, 200.0),
    ("sk:k=3,n=5", 1.0, 6.0), ("qk:k=3,n=6", 10.0, 400.0)])
def test_ascending_ends_merge_into_the_bowl(key, R, rmax):
    res = catenoid(key, R, rmax)
    bowl = _CACHE[("bowl", key, rmax)]
    ends = [res.upper] + ([res.lower] if res.case == "continuous_origin" else [])
    assert res.lower.r_merge is None or res.case == "continuous_origin"
    for prof in ends:
        C = prof.offset
        assert 0 < prof.r_merge < 15 * R
        # the chart's last node is the merge; the rows past it are the
        # bowl's, moved up by C, and reach r_max
        last = prof.tail_start + len(prof.tail.ts) - 1
        assert prof.r[last] == prof.r_merge == prof.tail.t_final
        past = slice(last + 1, None)
        assert np.array_equal(prof.r[past], bowl.r[bowl.r > prof.r_merge])
        assert np.array_equal(prof.u[past], bowl.u[bowl.r > prof.r_merge] + C)
        assert prof.r[-1] == rmax
        assert np.all(np.diff(prof.s[last:]) > 0)
        assert C == pytest.approx(prof.u[last] - bowl.u_at([prof.r_merge])[0], rel=1e-15)


def test_small_neck_merges_into_a_bowl_started_below_it():
    # at R 1e-9 every chart starts far below AXIS_EPS, so the catenoid starts
    # its bowl at R / 2, below the merge stop's first query.  C+ is the
    # difference of heights of about 2.6e-6 at the merge radius r 0.0028,
    # where the slope is below 1e-2 and abs_tol sets the scale: against a
    # rerun at abs_tol 1e-20 it reads 6e-11 off here, and 5e-11 off with the
    # Jacobian at each step's start and the bowl from r 1e-6, the value pinned
    res = solve_catenoid(from_key("qk:k=3,n=6"), 1e-9, 12.0)
    assert res.charts["bowl"]["handoff"] == 5e-10
    assert res.upper.r_merge == pytest.approx(0.0028, rel=0.01)
    assert res.upper.offset == pytest.approx(1.1069130488441787e-08, rel=1e-10)


def test_offsets_at_the_merge_match_the_window_mean():
    # on sk:k=3,n=5 at R 2, the window (r_max / 3, 0.9 r_max) = (3.33, 9) lies
    # past both merges; there the mean of u - u_b on a chart run on to r_max
    # gives C+- as read at r_m
    f = from_key("sk:k=3,n=5")
    res = catenoid("sk:k=3,n=5", 2.0, 10.0)
    bowl = _CACHE[("bowl", "sk:k=3,n=5", 10.0)]
    rhs, jac = _slope_scalar(f, None)
    grid = np.geomspace(10.0 / 3.0, 9.0, 200)
    for prof in (res.upper, res.lower):
        assert prof.r_merge < grid[0]
        i = prof.tail_start
        chart = integrate(rhs, prof.r[i], prof.tail.ys[0], 10.0, PROFILE_CONFIG, jac=jac)
        assert chart.termination == "reached_end"
        u = chart.integral_at(grid, chart.node_integrals(prof.u[i]))
        assert np.mean(u - bowl.u_at(grid)) == pytest.approx(prof.offset, rel=1e-9)


# ---------------------------------------------------------------------------
# case 2 (Q_k)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "k,kind,exp_u",
    [(3, "power_law", -1.0), (4, "logarithmic", 0.0), (5, "power_law", 0.5)],
)
def test_qk_lower_end_classification(k, kind, exp_u):
    res = catenoid(f"qk:k={k},n=6", 1.0, 200.0)
    eb = res.end_behavior
    assert res.case == "derivative_origin"
    assert eb["kind"] == kind
    assert eb["exponent_u"] == exp_u
    assert abs(eb["b_fitted"] - eb["b"]) <= 0.05 * abs(eb["b"])
    assert res.s0 is None


def test_lower_end_classified_once(monkeypatch):
    # the limit and slope of g_- at the origin are family data: no solve
    calls = []
    solve_minus = CurvatureFunction.solve_minus

    def counted(self, y):
        calls.append(y)
        return solve_minus(self, y)

    monkeypatch.setattr(CurvatureFunction, "solve_minus", counted)
    res = solve_catenoid(from_key("qk:k=3,n=6"), 1.0, 20.0)
    assert res.case == "derivative_origin"
    assert len(calls) == 0


def test_qk_theta_prime_vanishes():
    res = catenoid("qk:k=3,n=6", 1.0, 200.0)
    assert res.end_behavior["theta_prime_end"] <= 1e-5


def test_qk_embeddedness():
    res = catenoid("qk:k=3,n=6", 1.0, 200.0)
    assert res.embeddedness["conclusive"]
    assert res.embeddedness["min_gap"] > 0


def test_qk_a_R_positive_and_finite():
    res = catenoid("qk:k=5,n=6", 1.0, 200.0)
    assert res.end_behavior["a_R"] > 0
    assert math.isfinite(res.end_behavior["a_R"])


# ---------------------------------------------------------------------------
# chart independence
# ---------------------------------------------------------------------------


def test_chart_independence_sk():
    r8 = catenoid("sk:k=3,n=5", 1.0, 12.0)
    r6 = catenoid("sk:k=3,n=5", 1.0, 12.0, handoff_tan=math.tan(math.pi / 6))
    assert abs(r8.s0 - r6.s0) / r8.s0 < 1e-4
    c8, c6 = r8.upper.offset, r6.upper.offset
    assert abs(c8 - c6) / max(abs(c8), 1e-12) < 1e-4
    assert abs(r8.lower.offset - r6.lower.offset) / abs(r8.lower.offset) < 1e-4


@pytest.mark.parametrize("k", [3, 4, 5])
def test_chart_independence_qk_exponent(k):
    # the lower-end fit reads the dense slope on a fixed geometric grid, so
    # moving the chart switch moves b^ only by the integration error
    q8 = catenoid(f"qk:k={k},n=6", 1.0, 200.0)
    q6 = catenoid(f"qk:k={k},n=6", 1.0, 200.0, handoff_tan=math.tan(math.pi / 6))
    b8, b6 = q8.end_behavior["b_fitted"], q6.end_behavior["b_fitted"]
    assert abs(b8 - b6) <= 1e-8 * abs(b8)
    assert (
        abs(q8.end_behavior["a_R"] - q6.end_behavior["a_R"]) / q8.end_behavior["a_R"]
        < 1e-4
    )
