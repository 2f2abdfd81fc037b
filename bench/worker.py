"""One fresh process that runs a workload's passes and reports them as JSON.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``:

    python3 bench/worker.py --workload W --seed N --seconds T --trace 0|1 --work DIR
    python3 bench/worker.py --workload W --setup-only

``--setup-only`` imports ``translab.cli``, builds the workload's curvature
functions and branches, and exits: the parent times that as set-up.

Otherwise the worker runs passes over the workload's jobs in a closed loop
(one caller; each job starts when the previous one ends), times the
reference kernel between jobs, and prints one JSON line with the job times,
the kernel samples around each job, failures and its own peak resident
set.  With ``--trace 1`` it alternates untraced and traced passes, checks
that the traced counts repeat exactly, and adds the per-layer metrics and
the microbenchmarks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import reference

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# stop starting passes past this point whatever --seconds says, so a run
# stays inside its time limit even when the program gets much slower
HARD_STOP_S = 110.0
# a reference-kernel sample is taken before a job when this long has passed
# since the last one, so every job lies between two samples close in time
SAMPLE_GAP_S = 0.2


class ReferenceSamples:
    """Reference-kernel times taken between jobs, in time order."""

    def __init__(self):
        self.times = []
        self._last = -math.inf

    def take(self) -> None:
        self.times.append(reference.kernel())
        self._last = time.perf_counter()

    def before_job(self) -> int:
        """Sample if due; returns the index of the sample preceding the job.

        The next sample, at index + 1, follows the job."""
        if time.perf_counter() - self._last >= SAMPLE_GAP_S:
            self.take()
        return len(self.times) - 1


def run_pass(jobs, samples, tracer=None):
    """Run every job once; returns (job seconds, sample indices, failures)."""
    times, indices, failures = [], [], []
    for job in jobs:
        indices.append(samples.before_job())
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                result = tracer.span("bench.job", job.run) if tracer else job.run()
        except Exception:  # noqa: BLE001 - a job that raises is a failed job
            times.append(time.perf_counter() - t0)
            failures.append(f"{job.name}: {traceback.format_exc(limit=3).splitlines()[-1]}")
            continue
        times.append(time.perf_counter() - t0)
        problem = job.check(result)
        if problem is not None:
            failures.append(f"{job.name}: {problem}")
    return times, indices, failures


def _enough(elapsed, walls, wanted, seconds):
    if elapsed > HARD_STOP_S:
        return True
    return len(walls) >= wanted and elapsed + statistics.median(walls) > seconds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", type=Path)
    p.add_argument("--spans", type=Path, help="write the traced spans to this file")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import translab.cli  # set-up cost a CLI user pays on every call
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workloads.build_functions(workload.keys)
    if args.setup_only:
        return 0

    import microbench
    import numpy
    from tracer import Tracer

    jobs = workload.make_jobs(args.seed, args.work)
    report = {
        "translab_file": translab.__file__,
        "numpy": numpy.__version__,
        "jobs_per_pass": len(jobs),
        "passes": [],  # [traced, elapsed s, job seconds, job sample indices]
        "failures": [],
    }
    tracers = []
    samples = ReferenceSamples()
    start = time.perf_counter()
    while True:
        # with --trace 1, every untraced pass is followed by a traced one
        tracer = Tracer() if args.trace == 1 and len(report["passes"]) % 2 == 1 else None
        t0 = time.perf_counter()
        if tracer is None:
            times, indices, failures = run_pass(jobs, samples)
        else:
            with tracer.installed():
                times, indices, failures = run_pass(jobs, samples, tracer)
            tracers.append(tracer)
        report["passes"].append([tracer is not None, time.perf_counter() - t0, times, indices])
        report["failures"] += failures
        walls = [p[1] for p in report["passes"] if not p[0]]
        wanted = MIN_PASSES
        if args.trace == 1:
            if len(tracers) < len(walls):
                continue
            walls = [a + p[1] for a, p in zip(walls, report["passes"][1::2])]
            wanted = MIN_TRACED_PASSES
        if _enough(time.perf_counter() - start, walls, wanted, args.seconds):
            break
    samples.take()
    report["reference_s"] = samples.times

    if tracers:
        counts = [t.deterministic_counts() for t in tracers]
        report["count_mismatches"] = sorted(
            {k for c in counts[1:] for k in c.keys() | counts[0].keys()
             if c.get(k) != counts[0].get(k)}
        )
        layer = [t.layer_metrics() for t in tracers]
        report["layer"] = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
        report["micro"] = microbench.run(args.seed)
        if args.spans:
            t = tracers[0]
            leaves = [[sid, name, n, s] for (sid, name), (n, s) in t.leaves.items()]
            args.spans.write_text(json.dumps({"spans": t.spans, "leaves": leaves}))
    report["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
