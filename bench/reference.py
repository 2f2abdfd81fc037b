"""A fixed pure-Python reference kernel that tracks the machine's speed.

A shared 2-vCPU VM (Intel Xeon, 2.0 GHz) changes speed by up to a third
over minutes: the same bowl-cli pass took 2.3-4.0 s across ten consecutive
runs.  The drift is common to every pass of a run, so no statistic over
the passes removes it.  The worker therefore times this kernel between passes, and ``run.py``
scales the pass times by ``NOMINAL_S / median(kernel time)``: the timings
are reported at the machine speed at which the kernel takes ``NOMINAL_S``.

The kernel does the kind of work the package does on its hot paths (scalar
Runge-Kutta stages on Python floats, small tuples, calls, ``math``), and it
imports nothing from the package, so a change to the package cannot change
the reference.
"""

from __future__ import annotations

import math
import time

# median kernel time on a 2-vCPU Intel Xeon VM at 2.0 GHz, Python 3.11.7
NOMINAL_S = 0.025
STEPS = 12000


def _rhs(t, y):
    v = y[0]
    return (math.sqrt(1.0 + v * v) * math.cos(t) - 0.1 * abs(v) ** 1.5,)


def kernel() -> float:
    """Seconds taken by one fixed RK4 integration of a toy scalar ODE."""
    t0 = time.perf_counter()
    t, y, h = 0.0, (1.0,), 1e-3
    for _ in range(STEPS):
        k1 = _rhs(t, y)[0]
        k2 = _rhs(t + 0.5 * h, (y[0] + 0.5 * h * k1,))[0]
        k3 = _rhs(t + 0.5 * h, (y[0] + 0.5 * h * k2,))[0]
        k4 = _rhs(t + h, (y[0] + h * k3,))[0]
        y = (y[0] + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4),)
        t += h
    return time.perf_counter() - t0
