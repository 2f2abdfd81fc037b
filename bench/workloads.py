"""The four benchmark workloads: seeded inputs, jobs and per-job checks.

Every workload is a list of jobs that one caller runs in order (a closed
loop: each job starts when the previous one ends).  A job's ``run`` is the
timed call into the package; its ``check`` runs afterwards, untimed and
untraced, and returns ``None`` when the output meets the acceptance
tolerance, or a one-line reason when it does not.

Inputs come only from the seed: the seed fixes job order, the small
jitter on radii, the CLI ``--seed`` values, the cone samples and the slope
pairs.  The package sees nothing but these generated inputs.

Why these four (each stresses a different part of the stack):

* ``bowl-cli``: long stiff-tail scalar integrations with the closed-form
  solve in the RHS, then fits, the residual loop and 10^3-10^5-row CSV
  output.  ``ode``, ``bowl`` and ``cli`` carry the work; the numeric root
  path is nearly absent.
* ``catenoid-cli``: the 3-state neck, graph and turning charts on the
  generic DOPRI loop, plus the internal bowl solve and the assembly.
* ``level-sets``: no ODE at all.  ``g_plus`` on cone samples for every
  registered family and the criterion-5 barriers; the only workload on
  the numeric bracket-plus-Newton path and on ``value``/``grad`` alone.
* ``ordering-pairs``: the criterion-4 comparison runs, many short
  trajectories plus dense-output ``resample`` and no CLI.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

# layer entry points are called through their modules, so that the traced
# passes see them wrapped
from translab import barrier, cli
from translab.barrier import BarrierSpec, admissible_slope_range, log_grid
from translab.curvature import from_key, registry_keys
from translab.implicit import ImplicitBranch

# relative jitter applied to radii, so that every seed is a distinct input
# while the work per job stays within a fraction of a percent
RADIUS_JITTER = 2e-3

BOWL_JOBS = (
    ("mean:n=3", 500.0),
    ("hq:k=2,l=0,n=3", 200.0),
    ("kconv:k=2,n=4", 200.0),
    ("gauss:n=4", 10000.0),
)
# tolerances of the bowl fit checks (relative errors against the formulas)
BOWL_FIT_TOL = {"a": 0.01, "b": 0.05, "d_gamma": 0.02, "A_gamma": 0.02}

CATENOID_JOBS = (
    ("qk:k=3,n=6", 1.0, 200.0),
    ("qk:k=4,n=6", 1.0, 200.0),
    ("qk:k=5,n=6", 1.0, 200.0),
    ("sk:k=3,n=5", 1.0, 6.0),
)
# criterion 7: lower-end kind and height exponent per Q_k
QK_END = {
    "qk:k=3,n=6": ("power_law", -1.0),
    "qk:k=4,n=6": ("logarithmic", 0.0),
    "qk:k=5,n=6": ("power_law", 0.5),
}

LEVEL_SAMPLES = 1000
ROUNDTRIP_TOL = 1e-12
POWER_BARRIERS = ((7, 3), (6, 4))  # (n, k) of the criterion-5 Q_k power barriers
CONE_KEY = "knorm:k=2,n=3"

ORDERING_KEYS = ("mean:n=3", "hq:k=2,l=0,n=4")
ORDERING_PAIRS = 8
ORDERING_SPAN = (1.0, 100.0)
ORDERING_GAP_TOL = -1e-9


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Workload:
    keys: tuple  # curvature keys whose functions and branches set-up builds
    make_jobs: Callable[[int, Path], list]


def build_functions(keys) -> list:
    """The workload's curvature functions and implicit branches (set-up)."""
    out = []
    for key in keys:
        f = from_key(key)
        out.append((f, ImplicitBranch(f)))
    return out


def _jitter(rng: np.random.Generator, value: float) -> float:
    return value * (1.0 + rng.uniform(-RADIUS_JITTER, RADIUS_JITTER))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _manifest_problem(out: Path, seen: dict) -> Optional[str]:
    """Failed manifest checks, wrong file hashes, or hashes that changed
    since the first pass of the same inputs (run-to-run determinism)."""
    manifest = json.loads((out / "manifest.json").read_text())
    failed = [name for name, chk in manifest["checks"].items() if not chk["passed"]]
    if failed:
        return f"manifest checks failed: {failed}"
    for entry in manifest["files"]:
        if _sha256(out / entry["name"]) != entry["sha256"]:
            return f"manifest hash of {entry['name']} does not match the file"
    files = manifest["files"]
    if seen.setdefault("files", files) != files:
        return "output hashes differ from the first pass of the same inputs"
    return None


def _cli_job(name: str, argv: list, out: Path, judge: Callable[[Path], Optional[str]]) -> Job:
    seen = {}

    def check(code):
        if code != 0:
            return f"exit code {code}"
        return _manifest_problem(out, seen) or judge(out)

    return Job(name, lambda: cli.main(argv), check)


def _bowl_jobs(seed: int, work: Path) -> list:
    rng = np.random.default_rng([seed, 1])
    jobs = []
    for idx in rng.permutation(len(BOWL_JOBS)):
        key, rmax = BOWL_JOBS[idx]
        rmax = _jitter(rng, rmax)
        out = work / f"bowl{idx}"
        argv = ["bowl", "--curvature", key, "--rmax", repr(rmax), "--out", str(out),
                "--seed", str(int(rng.integers(2**31))), "--quiet"]

        def judge(out):
            payload = json.loads((out / "bowl.json").read_text())
            bad = {k: v for k, v in payload["rel_errors"].items() if not v <= BOWL_FIT_TOL[k]}
            return f"fit errors beyond tolerance: {bad}" if bad else None

        jobs.append(_cli_job(f"bowl {key} rmax={rmax:.6g}", argv, out, judge))
    return jobs


def _catenoid_jobs(seed: int, work: Path) -> list:
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for idx in rng.permutation(len(CATENOID_JOBS)):
        key, R, rmax = CATENOID_JOBS[idx]
        R, rmax = _jitter(rng, R), _jitter(rng, rmax)
        out = work / f"catenoid{idx}"
        argv = ["catenoid", "--curvature", key, "--R", repr(R), "--rmax", repr(rmax),
                "--out", str(out), "--seed", str(int(rng.integers(2**31))), "--quiet"]

        def judge(out, end=QK_END.get(key)):
            res = json.loads((out / "catenoid.json").read_text())
            emb = res["embeddedness"]
            if emb.get("conclusive") and not emb["min_gap"] > 0:
                return f"branches not embedded: {emb}"
            if end is not None:
                kind, exp_u = end
                eb = res["end_behavior"]
                if eb.get("kind") != kind or abs(eb["exponent_u"] - exp_u) > 1e-9:
                    return f"lower end {eb.get('kind')} exp={eb.get('exponent_u')}"
                if abs(eb["b_fitted"] - eb["b"]) > 0.05 * abs(eb["b"]):
                    return f"fitted exponent {eb['b_fitted']} vs {eb['b']}"
                return None
            if (res["n_pi2_events"], res["n_theta_min_events"]) != (1, 1):
                return f"events ({res['n_pi2_events']},{res['n_theta_min_events']})"
            if not emb.get("conclusive"):
                return f"embeddedness inconclusive: {emb}"
            return None

        jobs.append(_cli_job(f"catenoid {key} R={R:.6g} rmax={rmax:.6g}", argv, out, judge))
    return jobs


def _gplus_job(key: str, rng: np.random.Generator) -> Job:
    f = from_key(key)
    branch = ImplicitBranch(f)
    points = []
    for _ in range(LEVEL_SAMPLES):
        x, y = f.sample_cone_point(rng)
        points.append((y, f.value(x, y)))

    def run():
        return [branch.g_plus(y, z) for y, z in points]

    def check(xs):
        worst = max(abs(f.value(x, y) - z) / max(1.0, abs(z)) for x, (y, z) in zip(xs, points))
        return None if worst <= ROUNDTRIP_TOL else f"round trip {worst:.2e}"

    return Job(f"g_plus {key}", run, check)


def _power_barrier_job(n: int, k: int) -> Job:
    f = from_key(f"qk:k={k},n={n}")
    branch = ImplicitBranch(f)
    grid = log_grid(2.0, 1e3, per_decade=400)

    def run():
        spec = BarrierSpec("power", a=0.5, b=branch.dg_minus_dy_at_zero(), valid_range=(1.0, 1e4))
        return barrier.verify_inequality(spec, f, grid)

    def check(rep):
        if rep.skipped or rep.r_star_nonneg is None:
            return f"power barrier verdict {rep.verdict}, skipped {rep.skipped}"
        beyond = rep.margins[rep.grid >= rep.r_star_nonneg]
        return None if beyond.min() >= -1e-8 else f"margin {beyond.min():.2e} past r*"

    return Job(f"power barrier qk:k={k},n={n}", run, check)


def _cone_barrier_job() -> Job:
    f = from_key(CONE_KEY)
    m0 = ImplicitBranch(f).endpoint_data().m0_bar
    spec = BarrierSpec("implicit_cone", m_bar=m0, valid_range=(0.5, 200))
    grid = log_grid(1.0, 100.0, per_decade=400)

    def check(rep):
        if rep.skipped or rep.margins.max() > 1e-9:
            return f"cone max margin {rep.margins.max():.2e}, skipped {rep.skipped}"
        return None

    return Job(f"cone barrier {CONE_KEY}", lambda: barrier.verify_inequality(spec, f, grid), check)


def _level_jobs(seed: int, work: Path) -> list:
    rng = np.random.default_rng([seed, 3])
    jobs = [_gplus_job(key, rng) for key in registry_keys()]
    jobs += [_power_barrier_job(n, k) for n, k in POWER_BARRIERS]
    jobs.append(_cone_barrier_job())
    return jobs


def _ordering_jobs(seed: int, work: Path) -> list:
    rng = np.random.default_rng([seed, 4])
    jobs = []
    for key in ORDERING_KEYS:
        f = from_key(key)
        v_lo, v_hi = admissible_slope_range(f, ORDERING_SPAN[0])
        pairs = [tuple(sorted(rng.uniform(v_lo, v_hi, 2))) for _ in range(ORDERING_PAIRS)]

        def run(f=f, pairs=pairs):
            return barrier.compare_orderings(f, pairs, *ORDERING_SPAN)

        def check(rep):
            if rep["pairs"] != ORDERING_PAIRS or not math.isfinite(rep["min_gap"]):
                return f"{rep['pairs']} pairs compared, min gap {rep['min_gap']}"
            return None if rep["min_gap"] >= ORDERING_GAP_TOL else f"min gap {rep['min_gap']:.2e}"

        jobs.append(Job(f"ordering {key}", run, check))
    return jobs


WORKLOADS = {
    "bowl-cli": Workload(tuple(k for k, _ in BOWL_JOBS), _bowl_jobs),
    "catenoid-cli": Workload(tuple(k for k, _, _ in CATENOID_JOBS), _catenoid_jobs),
    "level-sets": Workload(
        tuple(registry_keys()) + tuple(f"qk:k={k},n={n}" for n, k in POWER_BARRIERS) + (CONE_KEY,),
        _level_jobs,
    ),
    "ordering-pairs": Workload(ORDERING_KEYS, _ordering_jobs),
}
