"""Command-line front end: bowl, catenoid, verify, list.

Exit codes: 0 success, 1 check failure, 2 usage/config error, 3 solver error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .barrier import (
    BarrierSpec,
    admissible_slope_range,
    compare_orderings,
    log_grid,
    verify_inequality,
)
from .bowl import fit_tail, growth_exponent, solve_bowl
from .catenoid import solve_catenoid, upper_growth_exponent
from .cliio import RunManifest, emit_plot_script, load_config, write_csv, write_json
from .curvature import check_homogeneity, family_patterns, from_key, registry_keys
from .errors import ParameterError, TranslabError
from .implicit import ImplicitBranch


_SUITES = ("homogeneity", "implicit", "ordering", "barrier", "all")


def _parse_args(argv):
    p = argparse.ArgumentParser(prog="translab", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, help="key=value config file")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--quiet", action="store_true")

    b = sub.add_parser("bowl", help="bowl-type translator profile and asymptotics")
    b.add_argument("--curvature", default=None)
    b.add_argument("--rmax", type=float, default=None)
    b.add_argument("--fit-lo", type=float, default=None)
    b.add_argument("--fit-hi", type=float, default=None)
    common(b)

    c = sub.add_parser("catenoid", help="catenoidal translator W_R")
    c.add_argument("--curvature", default=None)
    c.add_argument("--R", type=float, default=None)
    c.add_argument("--rmax", type=float, default=None)
    c.add_argument("--handoff", default=None, help="pi8, pi6, or tangent value")
    common(c)

    v = sub.add_parser("verify", help="property suites")
    v.add_argument("--suite", default=None, choices=_SUITES)
    v.add_argument("--curvature", default=None)
    common(v)

    ls = sub.add_parser("list", help="enumerate registry keys")
    common(ls)
    return p.parse_args(argv)


# per command, the default of each option; None marks a required option
_DEFAULTS = {
    "global": {"out": "out", "seed": 0},
    "bowl": {"curvature": None, "rmax": 500.0},
    "catenoid": {"curvature": None, "R": None, "rmax": 50.0, "handoff": "pi8"},
    "verify": {"curvature": None, "suite": None},
}
_FLOAT_KEYS = ("rmax", "fit_lo", "fit_hi", "R")
_HANDOFFS = {"pi8": math.tan(math.pi / 8), "pi6": math.tan(math.pi / 6)}


def _merge_config(args, cfg: dict) -> None:
    """Fill the options not given on the command line from the config (file
    and environment, whose keys ``cliio._KNOWN_KEYS`` are the lower-case
    option names), then from the defaults, and check their values."""
    for section in (args.command, "global"):
        values = cfg.get(section, {})
        for attr in vars(args):
            if getattr(args, attr) is None and attr.lower() in values:
                setattr(args, attr, values[attr.lower()])
    for attr, default in {**_DEFAULTS["global"], **_DEFAULTS.get(args.command, {})}.items():
        if getattr(args, attr) is None:
            if default is None:
                raise ParameterError(f"missing required option --{attr}")
            setattr(args, attr, default)
    try:
        args.seed = int(args.seed)
    except ValueError:
        raise ParameterError(f"seed must be an integer, got {args.seed!r}") from None
    if args.seed < 0:
        raise ParameterError(f"seed must be non-negative, got {args.seed}")
    if getattr(args, "suite", None) not in (None, *_SUITES):
        raise ParameterError(f"--suite must be one of {', '.join(_SUITES)}, got {args.suite!r}")
    for attr in _FLOAT_KEYS:
        raw = getattr(args, attr, None)
        if raw is None:
            continue
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ParameterError(f"--{attr.replace('_', '-')} must be a finite number, got {raw!r}")
        setattr(args, attr, value)


def _echo(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("command",) and v is not None}


def _emit(manifest: RunManifest, path: Path, writer, *data) -> None:
    """Write one output file and list it in the manifest."""
    writer(path, *data)
    manifest.record_file(path)


def _run(args, command) -> int:
    """Run a solving command and return its exit code.

    ``command(args)`` builds the curvature function and checks the options;
    a TranslabError there exits 2 before the run directory is made.  It
    returns the solve step ``solve(out, manifest)``, which writes the data
    files, records the checks and returns the JSON sidecar payload.  A
    TranslabError raised by the solve step is recorded in error.json; it
    exits 2 when it is a rejected parameter (ParameterError), 3 otherwise.
    """
    try:
        solve = command(args)
    except TranslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    manifest = RunManifest(out, args.command, _echo(args))
    try:
        payload = solve(out, manifest)
    except TranslabError as exc:
        write_json(out / "error.json", {"error": type(exc).__name__, "message": str(exc)})
        rejected = isinstance(exc, ParameterError)
        print(f"{'error' if rejected else 'solver error'}: {exc}", file=sys.stderr)
        return 2 if rejected else 3
    _emit(manifest, out / f"{args.command}.json", write_json, {**payload, "seed": args.seed})
    manifest.write()
    if not args.quiet:
        for name, chk in manifest.checks.items():
            print(f"{'PASS' if chk['passed'] else 'FAIL'} {name} {chk['detail']}")
    return 0 if manifest.all_passed else 1


def cmd_bowl(args):
    f = from_key(args.curvature)
    if args.rmax <= 0:
        raise ParameterError(f"rmax must be positive, got {args.rmax}")
    window = None
    if args.fit_lo is not None or args.fit_hi is not None:
        window = (args.fit_lo, args.fit_hi)
        if None in window:
            raise ParameterError("--fit-lo and --fit-hi must be given together")
        if not 0 < args.fit_lo < args.fit_hi <= args.rmax:
            raise ParameterError(
                f"the fit window needs 0 < fit-lo < fit-hi <= rmax, got {window} at rmax {args.rmax}"
            )

    def solve(out, manifest):
        profile = solve_bowl(f, args.rmax)
        report = fit_tail(profile, window)
        gexp = growth_exponent(profile, window)

        _emit(manifest, out / "profile.csv", write_csv, "r,u,v,residual",
              [profile.r, profile.u, profile.v, profile.residuals])
        _emit(manifest, out / "bowl_plot.gp", emit_plot_script, f"bowl profile {f.name}",
              [("profile.csv", "1:2", "u(r)"), ("profile.csv", "1:3", "v(r)")])
        manifest.record_check("residual", profile.residuals.max() <= 1e-8,
                              f"max={profile.residuals.max():.2e}")
        tol = {"a": 0.01, "b": 0.05, "d_gamma": 0.02, "A_gamma": 0.02}
        for key, rel in report.rel_errors.items():
            manifest.record_check(f"fit_{key}", rel <= tol.get(key, 0.05), f"rel={rel:.2e}")
        return {
            "curvature_key": f.name,
            "alpha": f.alpha_float,
            "beta": f.beta,
            "lambda0": profile.lambda0,
            "termination": profile.termination,
            "regime": report.regime,
            "formula": report.formula,
            "fitted": report.fitted,
            "rel_errors": report.rel_errors,
            "fit_window": list(report.fit_window),
            "growth_exponent_u": gexp,
            "max_residual": float(profile.residuals.max()),
            "charts": {"bowl": profile.trajectory.step_counts()},
        }

    return solve


def cmd_catenoid(args):
    f = from_key(args.curvature)
    if not f.is_signed:
        raise ParameterError(f"curvature function {f.name} is not signed")
    if args.R <= 0 or args.rmax <= 0:
        raise ParameterError("R and rmax must be positive")
    handoff = _HANDOFFS.get(args.handoff)
    if handoff is None:
        try:
            handoff = float(args.handoff)
        except ValueError:
            handoff = math.nan
        if not 0 < handoff < math.inf:
            raise ParameterError(
                f"--handoff must be pi8, pi6 or a finite positive tangent, got {args.handoff!r}"
            )

    def solve(out, manifest):
        res = solve_catenoid(f, args.R, args.rmax, handoff_tan=handoff)
        gexp = upper_growth_exponent(res)

        for side, prof in (("upper", res.upper), ("lower", res.lower)):
            _emit(manifest, out / f"{side}.csv", write_csv, "s,r,u,theta,kappa,residual",
                  [prof.s, prof.r, prof.u, prof.theta, prof.kappa, prof.residuals])
        _emit(manifest, out / "catenoid_plot.gp", emit_plot_script,
              f"catenoidal translator {f.name} R={args.R}",
              [("upper.csv", "2:3", "upper branch"), ("lower.csv", "2:3", "lower branch")])
        emb = res.embeddedness
        manifest.record_check(
            "embeddedness", bool(emb.get("min_gap", 0) > 0) if emb.get("conclusive") else True,
            str(emb),
        )
        manifest.record_check("growth_exponent",
                              abs(gexp - (f.alpha_float + 1)) <= 0.02 * (f.alpha_float + 1),
                              f"fitted={gexp:.4f}")
        return {
            "curvature_key": f.name,
            "alpha": f.alpha_float,
            "R": res.R,
            "case": res.case,
            "s0": res.s0,
            "s1": res.s1,
            "n_pi2_events": res.n_pi2_events,
            "n_theta_min_events": res.n_theta_min_events,
            "C_plus": res.C_plus,
            "C_minus": res.C_minus,
            "end_behavior": res.end_behavior,
            "embeddedness": res.embeddedness,
            "upper_growth_exponent": gexp,
            "handoff_tan": res.handoff_tan,
            "charts": res.charts,
        }

    return solve


def cmd_verify(args):
    f = from_key(args.curvature)
    suites = _SUITES[:-1] if args.suite == "all" else [args.suite]  # all but "all"

    def solve(out, manifest):
        results = {}
        branch = ImplicitBranch(f)
        if "homogeneity" in suites:
            rep = check_homogeneity(f, samples=200, seed=args.seed)
            ok = rep["max_defect"] <= 1e-10
            manifest.record_check("homogeneity", ok, f"max_defect={rep['max_defect']:.2e}")
            results["homogeneity"] = rep
            rng = np.random.default_rng(args.seed + 1)
            mono_ok = True
            for _ in range(100):
                xx, yy = f.sample_cone_point(rng)
                gx, gy = f.grad(xx, yy)
                mono_ok &= gx > 0 and gy > 0
            manifest.record_check("monotonicity", bool(mono_ok), "grad > 0 on cone samples")
        if "implicit" in suites:
            rng = np.random.default_rng(args.seed)
            worst_rt = 0.0
            worst_cf = 0.0
            n_cf = 0
            for _ in range(200):
                xx, yy = f.sample_cone_point(rng)
                z = f.value(xx, yy)
                try:
                    x_num = branch.g_plus(yy, z)
                except TranslabError:
                    continue
                worst_rt = max(worst_rt, abs(f.value(x_num, yy) - z))
                x_cf = f.solve_x(yy, z)
                if math.isfinite(x_cf):
                    worst_cf = max(worst_cf, abs(x_num - x_cf))
                    n_cf += 1
            manifest.record_check("roundtrip", worst_rt <= 1e-10, f"max={worst_rt:.2e}")
            if n_cf:
                manifest.record_check("closed_form", worst_cf <= 1e-9, f"max={worst_cf:.2e}")
            results["implicit"] = {"roundtrip": worst_rt, "closed_form": worst_cf}
        if "ordering" in suites:
            rng = np.random.default_rng(args.seed)
            v_lo, v_hi = admissible_slope_range(f, 1.0)
            pairs = [tuple(sorted(rng.uniform(v_lo, v_hi, 2))) for _ in range(10)]
            rep = compare_orderings(f, pairs, 1.0, 100.0)
            manifest.record_check("ordering", rep["all_ordered"],
                                  f"min_gap={rep['min_gap']:.2e} {rep['termination']}")
            results["ordering"] = {key: rep[key] for key in
                                   ("min_gap", "pairs", "termination", "r_reached")}
        if "barrier" in suites:
            if f.minus_level is not None:
                try:
                    b = branch.dg_minus_dy_at_zero()
                except TranslabError:
                    b = -1.0  # divergent g_- at the origin: any b < 0 works
                expect, note = "verified_super", ""
                if b >= -1e-10:
                    # no decaying power, the slope being zero to the accuracy
                    # of its extrapolation (k-norms): g_- tends to a constant c,
                    # so with b = -1 as for a divergent g_- the margins tend to
                    # -c, and the sign of c forces the verdict
                    b = -1.0
                    c = branch.g_minus_limit_at_zero()
                    if c > 0:
                        expect = "verified_sub"
                    note = f" (g_- tends to {c:.4g} at the origin: {expect} expected)"
                grid = log_grid(2.0, 1e3, per_decade=400)
                rep = verify_inequality(
                    BarrierSpec("power", a=0.5, b=b, valid_range=(1.0, 1e4)), f, grid
                )
                settled = rep.r_star_nonneg if expect == "verified_super" else rep.r_star_nonpos
                manifest.record_check(
                    "barrier_power", settled is not None,
                    f"verdict={rep.verdict} min_margin={rep.min_margin:.2e}{note}",
                )
                results["barrier"] = {"verdict": rep.verdict, "min_margin": rep.min_margin}
            else:
                manifest.record_check("barrier_power", True, "no -1 level; skipped")
        return {
            "curvature_key": f.name,
            "degeneracy": "one_degenerate" if f.is_one_degenerate else "one_nondegenerate",
            "value_at_01": f.value_at_01,
            "suites": results,
        }

    return solve


def cmd_list(args) -> int:
    print("family patterns (each parameter given once):")
    for pattern in family_patterns():
        print(f"  {pattern}")
    print("registered examples:")
    for key in registry_keys():
        f = from_key(key)
        tags = []
        tags.append("degenerate" if f.is_one_degenerate else "nondegenerate")
        if f.is_signed:
            tags.append("signed")
        print(f"  {key:20s} alpha={f.alpha}  [{', '.join(tags)}]")
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    try:
        cfg = load_config(args.config)
        _merge_config(args, cfg)
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "list":
        return cmd_list(args)
    return _run(args, {"bowl": cmd_bowl, "catenoid": cmd_catenoid, "verify": cmd_verify}[args.command])


if __name__ == "__main__":
    raise SystemExit(main())
