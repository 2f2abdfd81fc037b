"""Smoke test of the benchmark jobs: one untimed pass of every workload.

``bench/workloads.py`` calls the package's public API by name and checks
each job's output against its acceptance tolerance; this runs those jobs
and checks once, so that a change the benchmark cannot run, or whose
output it would reject, fails here first.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run(jobs, tracer=None):
    problems = {}
    for job in jobs:
        result = tracer.span("bench.job", job.run) if tracer else job.run()
        problem = job.check(result)
        if problem is not None:
            problems[job.name] = problem
    return problems


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_jobs_pass_their_checks(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    workloads.build_functions(workload.keys)
    assert _run(workload.make_jobs(1, tmp_path)) == {}


def test_traced_catenoid_pass(tmp_path):
    tracer = Tracer()
    with tracer.installed():
        problems = _run(workloads.WORKLOADS["catenoid-cli"].make_jobs(1, tmp_path), tracer)
    assert problems == {}
    # the wrapped entry points were reached, and the per-layer metrics compute
    metrics = tracer.layer_metrics()
    assert metrics["ode.integrate.calls"] > 0
    assert metrics["curvature.solve_x.calls"] > 0
    # the ascending charts stop where they merge into the bowl, and the stiff
    # tails take 5-stage Radau IIA steps (5,640 nodes when the charts ran on
    # to r_max, 4,324 on the 3-stage tableau, 1,811 now; the counts are
    # deterministic per seed)
    assert metrics["ode.nodes"] <= 2500
