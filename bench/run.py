"""translab benchmark: four desk-scale workloads, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload bowl-cli --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload, one summary each

Workloads: bowl-cli, catenoid-cli, level-sets, ordering-pairs (see
``workloads.py`` for what each stresses and why).  One caller drives the
package from a single fresh process in a closed loop.

``--trace 0`` reports the end-to-end metrics of the workload:

    wall_s         s    median wall time of one pass over the jobs
    slowest_job_s  s    median over passes of the longest job in the pass
    setup_s        s    median over fresh interpreters of the time to import
                        translab.cli and build the workload's functions
    peak_rss_mb    MiB  peak resident set of the process that ran the passes

Pass and job times are sums of job wall times; checks are not timed.  The
three timings are reported at the reference machine speed: the worker times
a fixed kernel between jobs (see ``reference.py`` for why), each job's time
is multiplied by ``reference.NOMINAL_S`` over the mean of the samples just
before and after it, and ``setup_s`` by ``NOMINAL_S`` over the run's median
sample.  The raw timings and that median factor are printed as well.  The job count and the failed share are printed
above the result line.
``--trace 1`` reports the per-layer metrics from traced passes, the
tracing overhead and the microbenchmarks instead.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A job fails when it raises,
exits non-zero or misses its acceptance check; traced counts that differ
between two traced passes also make the run incorrect.

Seeds: ``DEFAULT_SEED`` is the one to develop against; ``HOLDOUT_SEED`` is
kept for rechecking a gain on inputs not used while it was written.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("bowl-cli", "catenoid-cli", "level-sets", "ordering-pairs")
DEFAULT_SEED = 1
HOLDOUT_SEED = 7919
SETUP_RUNS = 7
# a run must end well inside three minutes; the worker stops starting
# passes long before this
WORKER_TIMEOUT_S = 160.0

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    # one BLAS thread: the package is single-threaded Python, and pools of
    # idle BLAS threads only add noise to the timings
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "worker.py")] + args,
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout,
    )


def measure_setup(workload: str) -> float:
    """Median wall time of fresh interpreters doing the set-up only."""
    _worker(["--workload", workload, "--setup-only"], 60).check_returncode()  # warm caches
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        _worker(["--workload", workload, "--setup-only"], 60).check_returncode()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_workload(workload: str, seed: int, seconds: float, trace: int, spans=None) -> dict:
    """One measured run; returns the result line plus provenance."""
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s = measure_setup(workload) if trace == 0 else None
        extra = ["--spans", str(spans)] if spans else []
        proc = _worker(
            ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--work", str(work)] + extra,
            WORKER_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work.parent.rmdir()
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(rep["translab_file"]).resolve().parent.parent != (ROOT / "src").resolve():
        raise RuntimeError(f"translab imported from {rep['translab_file']}, not this checkout")

    passes = rep["passes"]
    ref = rep["reference_s"]
    attempted = len(passes) * rep["jobs_per_pass"]
    failed = len(rep["failures"])
    mismatches = rep.get("count_mismatches", [])

    def at_reference_speed(times, indices):
        # each job lies between samples i and i + 1 of the reference kernel
        return [t * reference.NOMINAL_S * 2.0 / (ref[i] + ref[i + 1])
                for t, i in zip(times, indices)]

    plain = [p for p in passes if not p[0]]
    scaled = [at_reference_speed(p[2], p[3]) for p in plain]
    speed = reference.NOMINAL_S / statistics.median(ref)
    raw_wall = statistics.median(sum(p[2]) for p in plain)
    raw = {}
    if trace == 0:
        raw = {
            "wall_s": raw_wall,
            "slowest_job_s": statistics.median(max(p[2]) for p in plain),
            "setup_s": setup_s,
        }
        metrics = {
            "wall_s": statistics.median(sum(s) for s in scaled),
            "slowest_job_s": statistics.median(max(s) for s in scaled),
            "setup_s": setup_s * speed,
            "peak_rss_mb": rep["peak_rss_kib"] / 1024.0,
        }
        units = metric_units("end_to_end")
    else:
        metrics = dict(rep["layer"])
        traced_wall = statistics.median(sum(p[2]) for p in passes if p[0])
        metrics["trace.overhead_s"] = traced_wall - raw_wall
        metrics.update(rep["micro"])
        units = metric_units("per_layer")
    provenance = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": len(passes),
        "pass_walls_s": [round(sum(p[2]), 4) for p in passes],
        "speed_factor": speed,
        "raw": raw,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": rep["numpy"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "trace.overhead_s": metrics.get("trace.overhead_s"),
    }
    return {
        "result": {
            "correct": failed == 0 and not mismatches,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
        "failures": rep["failures"]
        + [f"traced counts differ between passes: {k}" for k in mismatches[:8]],
        "provenance": provenance,
    }


def metric_units(kind: str) -> dict:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def print_summary(run: dict) -> None:
    res, prov = run["result"], run["provenance"]
    print(f"== {prov['workload']}  seed={prov['seed']}  trace={prov['trace']}  "
          f"passes={prov['passes']}  jobs={res['attempted']}")
    for name, m in res["metrics"].items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    for name, value in prov["raw"].items():
        print(f"  {'raw ' + name:44s} {value:>16.6g} s")
    print(f"  {'speed_factor':44s} {prov['speed_factor']:>16.6g}")
    print(f"  {'jobs':44s} {res['attempted']:>16d} count")
    print(f"  {'failed_ratio':44s} {res['failed'] / res['attempted']:>16.6g} fraction")
    for line in run["failures"][:20]:
        print(f"  FAILED {line}")
    print("provenance " + json.dumps(prov, sort_keys=True))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", type=Path,
                   help="append each run's result and provenance to this JSON list")
    p.add_argument("--spans", type=Path, help="write the first traced pass's spans here")
    args = p.parse_args(argv)
    # turn SIGTERM into SystemExit, so that subprocess.run kills the running
    # worker and the work directory is removed on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "translab" / "__init__.py").is_file():
        print(f"error: no translab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    for name in names:
        run = run_workload(name, args.seed, args.seconds, args.trace, args.spans)
        print_summary(run)
        runs.append(run)
    if args.record:
        old = json.loads(args.record.read_text()) if args.record.exists() else []
        args.record.write_text(json.dumps(old + runs, indent=1) + "\n")
    if len(runs) == 1:
        final = runs[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": {f"{r['provenance']['workload']}.{k}": v
                        for r in runs for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
