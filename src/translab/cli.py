"""Command-line front end: bowl, catenoid, verify, list.

Exit codes: 0 success, 1 check failure, 2 usage/config error, 3 solver error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Callable, NamedTuple, Optional

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
from .errors import ConvergenceError, ParameterError, TranslabError
from .implicit import ImplicitBranch


_SUITES = ("homogeneity", "implicit", "ordering", "barrier", "all")
_HANDOFFS = {"pi8": math.tan(math.pi / 8), "pi6": math.tan(math.pi / 6)}


class _Parse(NamedTuple):
    """How a raw option string becomes its value: ``convert`` it, then
    require ``ok`` of the result; a ValueError in either rejects it."""

    convert: Callable
    ok: Callable
    what: str  # completes "--<flag> must be ..."
    metavar: Optional[str] = None  # argparse's, where it should list choices

    def __call__(self, flag: str, raw: str):
        try:
            value = self.convert(raw)
            if self.ok(value):
                return value
        except ValueError:
            pass
        raise ParameterError(f"{flag} must be {self.what}, got {raw!r}")


_TEXT = _Parse(str, lambda s: True, "a string")  # a path, or a key that from_key parses
_FINITE = _Parse(float, math.isfinite, "a finite number")
_POSITIVE = _Parse(float, lambda x: 0 < x < math.inf, "a finite positive number")
_SEED = _Parse(int, lambda n: n >= 0, "a non-negative integer")
_SUITE = _Parse(str, _SUITES.__contains__, f"one of {', '.join(_SUITES)}",
                "{" + ",".join(_SUITES) + "}")
_HANDOFF = _Parse(str, lambda s: s in _HANDOFFS or 0 < float(s) < math.inf,
                  "pi8, pi6 or a finite positive tangent")
_REQUIRED = object()


class _Option(NamedTuple):
    default: object  # None: unset unless given; _REQUIRED: must be given
    parse: _Parse
    help: Optional[str] = None


# Every option of every command, declared once.  Option ``name`` of
# ``section`` is the flag --name (``_`` written ``-``), the config key
# ``[section] name`` and the environment variable TRANSLAB_SECTION_NAME (both
# case-insensitive); the global options belong to every command.
_OPTIONS = {
    "global": {"out": _Option("out", _TEXT, "output directory"), "seed": _Option(0, _SEED)},
    "bowl": {"curvature": _Option(_REQUIRED, _TEXT), "rmax": _Option(500.0, _POSITIVE),
             "fit_lo": _Option(None, _FINITE), "fit_hi": _Option(None, _FINITE)},
    "catenoid": {"curvature": _Option(_REQUIRED, _TEXT), "R": _Option(_REQUIRED, _POSITIVE),
                 "rmax": _Option(50.0, _POSITIVE),
                 "handoff": _Option("pi8", _HANDOFF, "pi8, pi6, or tangent value")},
    "verify": {"suite": _Option(_REQUIRED, _SUITE), "curvature": _Option(_REQUIRED, _TEXT)},
}
_COMMANDS = {
    "bowl": "bowl-type translator profile and asymptotics",
    "catenoid": "catenoidal translator W_R",
    "verify": "property suites",
    "list": "enumerate registry keys",
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process on its first use."""
    p = argparse.ArgumentParser(prog="translab", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for command, summary in _COMMANDS.items():
        sp = sub.add_parser(command, help=summary)
        for section in (command, "global"):
            if section == "global":
                sp.add_argument("--config", help="key=value config file")
            for name, opt in _OPTIONS.get(section, {}).items():
                sp.add_argument(_flag(name), help=opt.help, metavar=opt.parse.metavar)
        sp.add_argument("--quiet", action="store_true")
    return p


def _merge_config(args, cfg: dict) -> None:
    """Give each option of the command its value: the flag's, else the
    config's (``load_config``: the environment over the file), else its
    default.  A given string goes through the option's parse, whatever its
    source."""
    for section in ("global", args.command):
        for name, opt in _OPTIONS.get(section, {}).items():
            raw = getattr(args, name)
            if raw is None:
                raw = cfg[section].get(name.lower())
            if raw is None and opt.default is _REQUIRED:
                raise ParameterError(f"missing required option {_flag(name)}")
            setattr(args, name, opt.default if raw is None else opt.parse(_flag(name), raw))


def _echo(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("command",) and v is not None}


def _run(args, command) -> int:
    """Run a solving command and return its exit code.

    ``command(args)`` builds the curvature function and checks the options;
    a TranslabError there exits 2 before the run directory is made, and so
    does an OSError making it (``--out`` naming a file or a path through
    one).  It returns the solve step ``solve(manifest)``, which writes the
    data files, records the checks and returns the JSON sidecar payload.  A
    TranslabError raised by the solve step is recorded in error.json; it
    exits 2 when it is a rejected parameter (ParameterError), 3 otherwise.
    """
    try:
        solve = command(args)
        manifest = RunManifest(args.out, args.command, _echo(args))
    except (TranslabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        payload = solve(manifest)
    except TranslabError as exc:
        write_json(manifest.out_dir / "error.json",
                   {"error": type(exc).__name__, "message": str(exc)})
        rejected = isinstance(exc, ParameterError)
        print(f"{'error' if rejected else 'solver error'}: {exc}", file=sys.stderr)
        return 2 if rejected else 3
    manifest.emit(f"{args.command}.json", write_json, {**payload, "seed": args.seed})
    manifest.write()
    if not args.quiet:
        for name, chk in manifest.checks.items():
            print(f"{'PASS' if chk['passed'] else 'FAIL'} {name} {chk['detail']}")
    return 0 if manifest.all_passed else 1


def cmd_bowl(args):
    f = from_key(args.curvature)
    window = None
    if args.fit_lo is not None or args.fit_hi is not None:
        window = (args.fit_lo, args.fit_hi)
        if None in window:
            raise ParameterError("--fit-lo and --fit-hi must be given together")
        if not 0 < args.fit_lo < args.fit_hi <= args.rmax:
            raise ParameterError(
                f"the fit window needs 0 < fit-lo < fit-hi <= rmax, got {window} at rmax {args.rmax}"
            )

    def solve(manifest):
        profile = solve_bowl(f, args.rmax)
        report = fit_tail(profile, window)
        gexp = growth_exponent(profile, window)

        manifest.emit("profile.csv", write_csv, "r,u,v,residual",
                      [profile.r, profile.u, profile.v, profile.residuals])
        manifest.emit("bowl_plot.gp", emit_plot_script, f"bowl profile {f.name}",
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
            "lambda0": f.lambda0,
            "termination": profile.trajectory.termination,
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
    handoff = _HANDOFFS.get(args.handoff) or float(args.handoff)

    def solve(manifest):
        res = solve_catenoid(f, args.R, args.rmax, handoff_tan=handoff)
        gexp = upper_growth_exponent(res)
        events = int(res.case == "continuous_origin")

        for side, prof in (("upper", res.upper), ("lower", res.lower)):
            manifest.emit(f"{side}.csv", write_csv, "s,r,u,theta,kappa,residual",
                          [prof.s, prof.r, prof.u, prof.theta, prof.kappa, prof.residuals])
        manifest.emit("catenoid_plot.gp", emit_plot_script,
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
            "s1": res.s0,  # the folded angle's minimum is the bottom
            # a continuous_origin end crosses pi/2 once, at its one angle minimum
            "n_pi2_events": events,
            "n_theta_min_events": events,
            "C_plus": res.upper.offset,
            "C_minus": res.lower.offset,
            "r_merge": {"upper": res.upper.r_merge, "lower": res.lower.r_merge},
            "end_behavior": res.end_behavior,
            "embeddedness": res.embeddedness,
            "upper_growth_exponent": gexp,
            "handoff_tan": handoff,
            "charts": res.charts,
        }

    return solve


def cmd_verify(args):
    f = from_key(args.curvature)
    suites = _SUITES[:-1] if args.suite == "all" else [args.suite]  # all but "all"

    def solve(manifest):
        results = {}
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
            branch = ImplicitBranch(f)
            rng = np.random.default_rng(args.seed)
            worst_rt = 0.0
            worst_cf = 0.0
            by_level = worse_level = 0
            for _ in range(200):
                xx, yy = f.sample_cone_point(rng)
                z = f.value(xx, yy)
                try:
                    x_cf = branch.g_plus(yy, z)
                except TranslabError:
                    continue
                rt = abs(f.value(x_cf, yy) - z)
                worst_rt = max(worst_rt, rt)
                # against the bisection oracle, off by inf where it finds no
                # root; in x where half an ulp of the level fixes x to 1e-9,
                # elsewhere (gamma_x tiny) by the level residuals, which may
                # differ by the few ulps that evaluating gamma rounds off
                try:
                    x_bis = branch.bisect_level(yy, z)
                except TranslabError:
                    x_bis = math.inf
                if 0.5 * math.ulp(z) > 1e-9 * f.grad(x_cf, yy)[0] and math.isfinite(x_bis):
                    by_level += 1
                    worse_level += rt > abs(f.value(x_bis, yy) - z) + 4 * math.ulp(z)
                else:
                    worst_cf = max(worst_cf, abs(x_cf - x_bis))
            manifest.record_check("roundtrip", worst_rt <= 1e-10, f"max={worst_rt:.2e}")
            manifest.record_check("closed_form", worst_cf <= 1e-9 and not worse_level,
                                  f"max={worst_cf:.2e}; by level residual {by_level}, "
                                  f"{worse_level} worse than the oracle")
            results["implicit"] = {"roundtrip": worst_rt, "closed_form": worst_cf,
                                   "closed_form_by_level": by_level}
        if "ordering" in suites:
            rng = np.random.default_rng(args.seed)
            v_lo, v_hi = admissible_slope_range(f, 1.0)
            pairs = [tuple(sorted(rng.uniform(v_lo, v_hi, 2))) for _ in range(10)]
            rep = compare_orderings(f, pairs, 1.0, 100.0)
            if rep["termination"] != "reached_end":  # a truncated span proves nothing
                raise ConvergenceError(f"ordering run ended on {rep['termination']} "
                                       f"at r={rep['r_reached']}")
            manifest.record_check("ordering", rep["all_ordered"],
                                  f"min_gap={rep['min_gap']:.2e} {rep['termination']}")
            results["ordering"] = {key: rep[key] for key in
                                   ("min_gap", "pairs", "termination", "r_reached", "steps",
                                    "r_coalesced", "coalesced_steps")}
        if "barrier" in suites:
            if f.minus_origin is not None:
                c, b = f.minus_origin
                expect, note = "verified_super", ""
                if not math.isfinite(c):
                    b = -1.0  # divergent g_- at the origin: any b < 0 works
                elif b >= 0:
                    # no decaying power, g_- leaving the origin flat (k-norms):
                    # it tends to a constant c, so with b = -1 as for a
                    # divergent g_- the margins tend to -c, and the sign of c
                    # forces the verdict
                    b = -1.0
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
                    f"verdict={rep.verdict} min_margin={rep.min_margin:.2e} "
                    f"skipped={rep.skipped} judged={len(rep.grid)}{note}",
                )
                results["barrier"] = {"verdict": rep.verdict, "min_margin": rep.min_margin,
                                      "skipped": rep.skipped, "judged": len(rep.grid)}
            else:
                manifest.record_check("barrier_power", True, "no -1 level at the origin; skipped")
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
        tags = ["degenerate" if f.is_one_degenerate else "nondegenerate"]
        if f.is_signed:
            tags.append("signed")
        print(f"  {key:20s} alpha={f.alpha}  [{', '.join(tags)}]")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv if argv is not None else sys.argv[1:])
    try:
        _merge_config(args, load_config(args.config, _OPTIONS))
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "list":
        return cmd_list(args)
    return _run(args, {"bowl": cmd_bowl, "catenoid": cmd_catenoid, "verify": cmd_verify}[args.command])


if __name__ == "__main__":
    raise SystemExit(main())
