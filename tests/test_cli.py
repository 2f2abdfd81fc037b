"""CLI: exit codes, file contracts, config handling, reproducibility."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import translab
from translab.catenoid import solve_catenoid, solve_neck
from translab.cli import main
from translab.curvature import from_key, registry_keys


def run(args):
    return main(args)


def test_list():
    assert run(["list"]) == 0


def test_cli_import_loads_no_scipy():
    # the runtime depends on numpy alone (pyproject.toml); scipy is a test oracle
    env = {**os.environ, "PYTHONPATH": str(Path(translab.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", "import sys, translab.cli; print('scipy' in sys.modules)"],
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_bowl_files_and_exit(tmp_path):
    out = tmp_path / "b"
    assert run(["bowl", "--curvature", "mean:n=3", "--rmax", "60", "--out", str(out), "--quiet"]) == 0
    for name in ("profile.csv", "bowl.json", "bowl_plot.gp", "manifest.json"):
        assert (out / name).exists()
    header = (out / "profile.csv").read_text().splitlines()[0]
    assert header == "r,u,v,residual"
    payload = json.loads((out / "bowl.json").read_text())
    assert payload["curvature_key"] == "mean:n=3"
    assert set(payload["formula"]) == {"a", "b"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert {f["name"] for f in manifest["files"]} >= {"profile.csv", "bowl.json"}
    assert all(len(f["sha256"]) == 64 for f in manifest["files"])


def test_bowl_bad_rmax_exit2(tmp_path):
    assert run(["bowl", "--curvature", "mean:n=3", "--rmax", "-1", "--out", str(tmp_path)]) == 2


def test_bowl_non_number_env_exit2(tmp_path, monkeypatch):
    monkeypatch.setenv("TRANSLAB_BOWL_RMAX", "abc")
    assert run(["bowl", "--curvature", "mean:n=3", "--out", str(tmp_path)]) == 2


def test_non_integer_seed_exit2(tmp_path, monkeypatch):
    monkeypatch.setenv("TRANSLAB_GLOBAL_SEED", "abc")
    assert run(["bowl", "--curvature", "mean:n=3", "--out", str(tmp_path)]) == 2
    monkeypatch.delenv("TRANSLAB_GLOBAL_SEED")
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("[global]\nseed = 1.5\n")
    assert run(["bowl", "--config", str(cfg), "--curvature", "mean:n=3", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["bowl", "--curvature", "mean:n=3", "--rmax", "nan"],
        ["bowl", "--curvature", "mean:n=3", "--rmax", "inf"],
        ["bowl", "--curvature", "mean:n=3", "--fit-lo", "nan", "--fit-hi", "30"],
        ["bowl", "--curvature", "mean:n=3", "--fit-lo", "5", "--fit-hi", "inf"],
        ["catenoid", "--curvature", "qk:k=3,n=6", "--R", "nan"],
    ],
)
def test_non_finite_option_exit2(tmp_path, args):
    assert run(args + ["--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["catenoid", "--curvature", "sk:k=3,n=5", "--R", "1", "--rmax", "0.5"],
        ["bowl", "--curvature", "mean:n=3", "--rmax", "1e-6"],
    ],
)
def test_solver_parameter_error_exit2(tmp_path, args):
    # rejected inside the solver, after the run directory was started
    assert run(args + ["--out", str(tmp_path), "--quiet"]) == 2
    assert json.loads((tmp_path / "error.json").read_text())["error"] == "ParameterError"


@pytest.mark.parametrize(
    "key, rmax, bound",
    [("qk:k=3,n=6", "2.5", 3.0), ("qk:k=3,n=6", "2", 3.0), ("qk:k=5,n=6", "3", 3.0),
     ("qk:k=7,n=8", "3.1", 2 * 1.6046398648914741)],
)
def test_catenoid_rmax_near_neck_exit2(tmp_path, key, rmax, bound):
    # the upper growth fit starts at rmax/3, which must lie past the neck at
    # R = 1, and the derivative_origin lower end fit at twice the lower
    # chart's start (1.6046 for qk:k=7,n=8)
    assert run(["catenoid", "--curvature", key, "--R", "1", "--rmax", rmax,
                "--out", str(tmp_path), "--quiet"]) == 2
    error = json.loads((tmp_path / "error.json").read_text())
    assert error["error"] == "ParameterError"
    head, _, tail = error["message"].partition("the fit windows need r_max > ")
    assert head == f"r_max={float(rmax)} lies too close to the neck: "
    assert float(tail) == pytest.approx(bound, rel=1e-12)


def test_knorm_fold_bowl_fails_fast(tmp_path):
    # knorm:k=4,n=4's slope reaches the clamped cylinder y = 1, where the
    # root x = 0 lies on the chart end and the closed form has none: the
    # run ends with a classified StructureError within seconds
    t0 = time.perf_counter()
    assert run(["bowl", "--curvature", "knorm:k=4,n=4", "--rmax", "200",
                "--out", str(tmp_path), "--quiet"]) == 3
    assert time.perf_counter() - t0 < 5.0
    assert json.loads((tmp_path / "error.json").read_text())["error"] == "StructureError"


def test_bowl_bad_curvature_exit2(tmp_path):
    assert run(["bowl", "--curvature", "bogus:n=3", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "key",
    ["qk:k=3,l=0,n=6", "mean:k=5,n=3", "mean:family=1,n=3", "mean:n=3,n=4", "hq:k=2,n=3",
     "gauss_root:n=4"],
    ids=["unused-l", "unused-k", "unused-family", "repeated-n", "missing-l", "alias"],
)
def test_strict_curvature_key_exit2(tmp_path, key):
    # a key names every parameter its family takes, once, and no other
    out = tmp_path / "o"
    assert run(["verify", "--suite", "homogeneity", "--curvature", key, "--out", str(out)]) == 2
    assert not out.exists()


def test_regime_option_gone(tmp_path):
    # the bowl regime is the family's: 1-degenerate or not
    with pytest.raises(SystemExit) as exc:
        run(["bowl", "--curvature", "gauss:n=4", "--regime", "degenerate", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_catenoid_not_signed_exit2(tmp_path):
    assert run(["catenoid", "--curvature", "mean:n=3", "--R", "1", "--out", str(tmp_path)]) == 2


def test_catenoid_files(tmp_path):
    out = tmp_path / "c"
    code = run([
        "catenoid", "--curvature", "qk:k=4,n=6", "--R", "1", "--rmax", "120",
        "--out", str(out), "--quiet",
    ])
    assert code == 0
    for name in ("upper.csv", "lower.csv", "catenoid.json", "catenoid_plot.gp", "manifest.json"):
        assert (out / name).exists()
    header = (out / "upper.csv").read_text().splitlines()[0]
    assert header == "s,r,u,theta,kappa,residual"
    payload = json.loads((out / "catenoid.json").read_text())
    assert payload["case"] == "derivative_origin"
    assert payload["end_behavior"]["kind"] == "logarithmic"


@pytest.mark.parametrize("key, R, rmax", [("qk:k=3,n=6", 1.0, 200.0), ("qk:k=4,n=6", 1.0, 200.0),
                                          ("qk:k=5,n=6", 1.0, 200.0), ("sk:k=3,n=5", 1.0, 6.0)])
def test_catenoid_csv_kappa_is_the_exact_curvature(tmp_path, key, R, rmax):
    # every row's kappa is d theta / ds, the curvature X(sin phi / r, cos phi)
    # at the row's tangent angle phi: theta on the upper branch; the lower
    # branch reports theta = 3 pi/2 - phi, and past its bottom phi - pi/2,
    # where kappa is -X
    assert run(["catenoid", "--curvature", key, "--R", repr(R), "--rmax", repr(rmax),
                "--out", str(tmp_path), "--quiet"]) == 0
    f = from_key(key)
    s0 = json.loads((tmp_path / "catenoid.json").read_text())["s0"]
    kappa_neck = solve_neck(f, R).kappa_at_neck
    res = solve_catenoid(f, R, rmax)
    for side, prof in (("upper", res.upper), ("lower", res.lower)):
        s, r, _, theta, kappa, residual = np.loadtxt(tmp_path / f"{side}.csv", delimiter=",",
                                                     skiprows=1, unpack=True)
        sign = np.ones_like(s)
        if side == "upper":
            phi = theta
        else:
            past = s > s0 if s0 is not None else np.zeros(len(s), dtype=bool)
            phi = np.where(past, theta + np.pi / 2, 1.5 * np.pi - theta)
            sign[past] = -1.0
        x = f.solve_x(np.sin(phi) / r, np.cos(phi))
        assert np.all(np.abs(kappa - sign * x) <= 1e-10 * np.maximum(np.abs(x), kappa_neck))
        # the rows before the closing graph chart come from the angle charts,
        # each with its own residual, not one number repeated
        assert len(s) == len(prof.s)
        assert len(set(residual[:prof.tail_start])) > 1


@pytest.mark.parametrize("key", ["qk:k=1,n=4", "hq:k=1,l=0,n=4"])
def test_catenoid_first_quotient_is_normalized_s1(tmp_path, key):
    # Q_1 = S_1/S_0 normalizes to H/(n-1), as S_1 does: the same translator,
    # with a continuous origin
    payloads = []
    for curvature in (key, "sk:k=1,n=4"):
        out = tmp_path / curvature.replace(":", "_")
        assert run(["catenoid", "--curvature", curvature, "--R", "1",
                    "--out", str(out), "--quiet"]) == 0
        payloads.append(json.loads((out / "catenoid.json").read_text()))
    quotient, s1 = payloads
    assert quotient["case"] == s1["case"] == "continuous_origin"
    for field in ("s0", "C_plus", "C_minus"):
        assert quotient[field] == pytest.approx(s1[field], abs=1e-9)


def test_verify_suites(tmp_path):
    assert run(["verify", "--suite", "implicit", "--curvature", "hq:k=2,l=0,n=3",
                "--out", str(tmp_path / "v1"), "--quiet"]) == 0
    assert run(["verify", "--suite", "ordering", "--curvature", "mean:n=4",
                "--out", str(tmp_path / "v2"), "--quiet"]) == 0
    assert run(["verify", "--suite", "homogeneity", "--curvature", "gauss:n=4",
                "--out", str(tmp_path / "v3"), "--quiet"]) == 0


@pytest.mark.parametrize("key", registry_keys())
def test_verify_all_suites_pass_on_registry(tmp_path, key):
    assert run(["verify", "--suite", "all", "--curvature", key,
                "--out", str(tmp_path), "--quiet"]) == 0


def test_verify_barrier_even_knorm_is_sub(tmp_path):
    # g_- of knorm:k=2 tends to sqrt(2) > 0 at the origin with zero slope, so
    # every decaying power profile has margin -> -sqrt(2): a subsolution
    out = tmp_path / "v"
    assert run(["verify", "--suite", "barrier", "--curvature", "knorm:k=2,n=3",
                "--out", str(out), "--quiet"]) == 0
    check = json.loads((out / "manifest.json").read_text())["checks"]["barrier_power"]
    assert "verdict=verified_sub" in check["detail"]
    assert "1.414 at the origin: verified_sub expected" in check["detail"]


def test_verify_barrier_odd_knorm(tmp_path):
    # the -1 level of an odd k-norm lies at x < 0 and g_- tends to a negative
    # constant at the origin, so the power barrier is a supersolution
    out = tmp_path / "v"
    assert run(["verify", "--suite", "barrier", "--curvature", "knorm:k=3,n=3",
                "--out", str(out), "--quiet"]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["suites"]["barrier"]["verdict"] == "verified_super"


@pytest.mark.parametrize(
    "argv, names",
    [
        (["bowl", "--curvature", "gauss:n=4", "--rmax", "300"],
         ("profile.csv", "bowl.json", "bowl_plot.gp")),
        (["catenoid", "--curvature", "sk:k=3,n=5", "--R", "1", "--rmax", "6"],
         ("upper.csv", "lower.csv", "catenoid.json")),
    ],
    ids=["bowl", "catenoid"],
)
def test_reproducible_outputs(tmp_path, argv, names):
    a, b = tmp_path / "r1", tmp_path / "r2"
    for out in (a, b):
        assert run(argv + ["--out", str(out), "--seed", "7", "--quiet"]) == 0
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    assert ma["files"] == mb["files"]


def test_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[bowl]\ncurvature = mean:n=3\nrmax = 50\n\n[global]\nseed = 3\n")
    out = tmp_path / "cfg_out"
    assert run(["bowl", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    payload = json.loads((out / "bowl.json").read_text())
    assert payload["seed"] == 3


def test_env_overrides_config(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[bowl]\ncurvature = mean:n=3\nrmax = 40\n")
    monkeypatch.setenv("TRANSLAB_BOWL_RMAX", "60")
    out = tmp_path / "env_out"
    assert run(["bowl", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    payload = json.loads((out / "bowl.json").read_text())
    assert payload["fit_window"] == [6.0, 30.0]


def test_config_unknown_key_rejected(tmp_path, monkeypatch):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[bowl]\nwibble = 3\n")
    assert run(["bowl", "--config", str(cfg), "--curvature", "mean:n=3",
                "--out", str(tmp_path / "x")]) == 2
    # a misspelt key under a known section's environment prefix, too
    monkeypatch.setenv("TRANSLAB_BOWL_RMAXX", "5")
    assert run(["bowl", "--curvature", "mean:n=3", "--rmax", "60",
                "--out", str(tmp_path / "y")]) == 2


def test_missing_required_exit2(tmp_path):
    assert run(["bowl", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("out", ["afile", "afile/x"])
def test_out_not_a_directory_exit2(tmp_path, capsys, out):
    # --out naming a file, or a path through one: no run directory, no traceback
    (tmp_path / "afile").write_text("")
    assert run(["bowl", "--curvature", "mean:n=3", "--rmax", "60",
                "--out", str(tmp_path / out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "args",
    [
        ["bowl", "--curvature", "kconv:k=1,n=3"],
        ["catenoid", "--curvature", "kconv:k=1,n=3", "--R", "1"],
        ["verify", "--suite", "homogeneity", "--curvature", "kconv:k=1,n=3"],
    ],
    ids=["bowl", "catenoid", "verify"],
)
def test_constructor_error_exit2(tmp_path, capsys, args):
    # the constructor normalizes at (0, 1), where the k = 1 sum vanishes
    assert run(args + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_ordering_records_termination(tmp_path):
    out = tmp_path / "v"
    assert run(["verify", "--suite", "ordering", "--curvature", "mean:n=3",
                "--out", str(out), "--quiet"]) == 0
    ordering = json.loads((out / "verify.json").read_text())["suites"]["ordering"]
    assert ordering["termination"] == "reached_end"
    assert ordering["r_reached"] == 100.0
    assert ordering["pairs"] == 10
    # the run's steps: explicit DOP853 up to the handoff, Radau IIA after it
    steps = ordering["steps"]
    assert 1.0 < steps["handoff"] < 100.0
    assert steps["explicit_steps"] > 0 and steps["radau_steps"] > 0


def test_verify_ordering_solver_failure_exit3(tmp_path):
    # the k = 4 norm's comparison run underflows its step before r = 100; a
    # truncated span proves nothing, so it is a solver error, not a failed check,
    # and it ends within seconds
    out = tmp_path / "v"
    t0 = time.perf_counter()
    assert run(["verify", "--suite", "all", "--curvature", "knorm:k=4,n=4",
                "--out", str(out), "--quiet"]) == 3
    assert time.perf_counter() - t0 < 5.0
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "ConvergenceError"
    assert "step_underflow" in error["message"] and "at r=" in error["message"]


@pytest.mark.parametrize("key, suite", [("sk:k=2,n=4", "all"), ("sk:k=4,n=5", "barrier")])
def test_verify_barrier_even_sk_skipped(tmp_path, key, suite):
    # the -1 level of an even S_k does not reach the origin: no power barrier
    out = tmp_path / "v"
    assert run(["verify", "--suite", suite, "--curvature", key, "--out", str(out),
                "--quiet"]) == 0
    check = json.loads((out / "manifest.json").read_text())["checks"]["barrier_power"]
    assert check == {"passed": True, "detail": "no -1 level at the origin; skipped"}


def test_catenoid_reports_merge_radii(tmp_path):
    out = tmp_path / "c"
    assert run(["catenoid", "--curvature", "sk:k=3,n=5", "--R", "1", "--rmax", "6",
                "--out", str(out), "--quiet"]) == 0
    merge = json.loads((out / "catenoid.json").read_text())["r_merge"]
    assert 2.0 < merge["upper"] < 3.0 and 2.0 < merge["lower"] < 3.0


def test_catenoid_unmerged_chart_reports_null_merge(tmp_path):
    # r_max 4 lies before the upper chart's merge (r 4.93): the chart runs to
    # r_max and C+ is read there.  The growth exponent on (4/3, 3.6), short of
    # the r^2 regime, reads 1.911 and fails its 2% band, as it does with the
    # chart integrated to r_max; only that check fails
    out = tmp_path / "c"
    assert run(["catenoid", "--curvature", "qk:k=3,n=6", "--R", "1", "--rmax", "4",
                "--out", str(out), "--quiet"]) == 1
    payload = json.loads((out / "catenoid.json").read_text())
    assert payload["r_merge"] == {"upper": None, "lower": None}
    assert math.isfinite(payload["C_plus"])
    checks = json.loads((out / "manifest.json").read_text())["checks"]
    assert [name for name, chk in checks.items() if not chk["passed"]] == ["growth_exponent"]


@pytest.mark.parametrize("source", ["flag", "config", "env"])
def test_negative_seed_exit2(tmp_path, monkeypatch, source):
    args = ["verify", "--suite", "homogeneity", "--curvature", "mean:n=3", "--out", str(tmp_path)]
    if source == "flag":
        args += ["--seed", "-5"]
    elif source == "config":
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("[global]\nseed = -5\n")
        args += ["--config", str(cfg)]
    else:
        monkeypatch.setenv("TRANSLAB_GLOBAL_SEED", "-5")
    assert run(args) == 2


@pytest.mark.parametrize(
    "env, args",
    [
        ({"TRANSLAB_VERIFY_SUITE": "foo"}, ["verify", "--curvature", "mean:n=3"]),
    ],
    ids=["suite"],
)
def test_bad_choice_from_env_exit2_before_solve(tmp_path, monkeypatch, env, args):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    out = tmp_path / "o"
    assert run(args + ["--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("handoff", ["nan", "-1", "0", "inf", "abc"])
def test_bad_handoff_exit2(tmp_path, handoff):
    out = tmp_path / "o"
    assert run(["catenoid", "--curvature", "sk:k=3,n=5", "--R", "1", "--rmax", "8",
                "--handoff", handoff, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "window",
    [["--fit-lo", "5"], ["--fit-hi", "30"], ["--fit-lo", "0", "--fit-hi", "30"],
     ["--fit-lo", "30", "--fit-hi", "6"], ["--fit-lo", "6", "--fit-hi", "80"]],
    ids=["lo-only", "hi-only", "lo-zero", "inverted", "beyond-rmax"],
)
def test_bad_fit_window_exit2(tmp_path, window):
    out = tmp_path / "o"
    assert run(["bowl", "--curvature", "mean:n=3", "--rmax", "60", "--out", str(out)]
               + window) == 2
    assert not out.exists()


def test_fit_window_used(tmp_path):
    out = tmp_path / "o"
    assert run(["bowl", "--curvature", "mean:n=3", "--rmax", "60", "--fit-lo", "8",
                "--fit-hi", "40", "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "bowl.json").read_text())["fit_window"] == [8.0, 40.0]


def test_json_reports_each_charts_steppers(tmp_path):
    # per chart: where the explicit steps handed off to Radau IIA (null if
    # they did not) and the accepted steps of each kind
    out = tmp_path / "b"
    assert run(["bowl", "--curvature", "mean:n=3", "--rmax", "60", "--out", str(out), "--quiet"]) == 0
    charts = json.loads((out / "bowl.json").read_text())["charts"]
    rows = len((out / "profile.csv").read_text().splitlines()) - 1
    assert set(charts) == {"bowl"}
    bowl = charts["bowl"]
    assert bowl["explicit_steps"] > 0 and bowl["radau_steps"] > 0
    assert bowl["explicit_steps"] + bowl["radau_steps"] == rows - 1
    assert 1.0 < bowl["handoff"] < 60.0
    out = tmp_path / "c"
    assert run(["catenoid", "--curvature", "qk:k=4,n=6", "--R", "1", "--rmax", "120",
                "--out", str(out), "--quiet"]) == 0
    charts = json.loads((out / "catenoid.json").read_text())["charts"]
    assert set(charts) == {"neck_up", "lower_arc", "upper", "lower", "bowl"}
    for name in ("neck_up", "lower_arc", "lower"):  # no jac: explicit throughout
        assert charts[name]["handoff"] is None and charts[name]["radau_steps"] == 0
    for name in ("upper", "bowl"):
        assert charts[name]["handoff"] > 1.0 and charts[name]["radau_steps"] > 0
