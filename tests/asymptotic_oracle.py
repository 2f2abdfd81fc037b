"""Reference estimates of the asymptotic family constants.

Every family carries the origin data of g_-(y, -1) (``minus_origin``) and
the Laurent pair of g_+(y, 1) at infinity (``laurent``) in closed form.
These estimates recover them numerically from probes of the bisection
oracle ``ImplicitBranch.bisect_level``, which evaluates only ``value``, so
that they share nothing with the closed-form inverses the data came from.
The grid tests of the branches sample U+ by its defining inequalities
(``in_u_plus``).
"""

import math

import numpy as np

# the g_- probes sit at y = -h, geometric toward the origin
ORIGIN_STEPS = (4e-3, 2e-3, 1e-3, 5e-4)


def g_minus_probe(branch, y: float) -> float:
    """g_-(y, -1) by bisection; a "reflected" family's -1 level at y is its
    1 level at -y."""
    if branch.source.minus_level == "reflected":
        return branch.bisect_level(-y, 1.0)
    return branch.bisect_level(y, -1.0)


def neville(hs, values) -> float:
    """Value at h = 0 of the polynomial through the points (h, value)."""
    v = list(values)
    for m in range(1, len(hs)):
        for i in range(len(hs) - m):
            v[i] = (hs[i + m] * v[i] - hs[i] * v[i + 1]) / (hs[i + m] - hs[i])
    return v[0]


def origin_estimate(branch) -> tuple:
    """(L, S) with g_-(y, -1) = L + S y + o(y) as y -> 0-: the probes and the
    implicit slopes -gamma_y/gamma_x there, each extrapolated to h = 0.

    gamma is even in y on a reflected family, so its gradient at (x, -h)
    gives the slope of the mirrored level too."""
    f = branch.source
    xs, slopes = [], []
    for h in ORIGIN_STEPS:
        x = g_minus_probe(branch, -h)
        gx, gy = f.grad(x, -h)
        xs.append(x)
        slopes.append(-gy / gx)
    return neville(ORIGIN_STEPS, xs), neville(ORIGIN_STEPS, slopes)


def laurent_fit(branch) -> tuple:
    """(k, c) with g_+(y, 1) ~ c y^-k: the least-squares line through log g_+
    against log y at 48 geometric y in [1e3, 1e6]."""
    ys = np.geomspace(1e3, 1e6, 48)
    gs = [branch.bisect_level(y, 1.0) for y in ys.tolist()]
    slope, intercept = np.polyfit(np.log(ys), np.log(gs), 1)
    return -float(slope), math.exp(intercept)


def in_u_plus(f, y: float, z: float) -> bool:
    """(y, z) in U+: y, z > 0 and z / gamma(1, 1) < y^alpha < z / gamma(0, 1),
    the right bound absent on a 1-degenerate family (gamma(0, 1) = 0);
    gamma(0, 1) is 1 on the others, gamma being normalized there."""
    if y <= 0 or z <= 0:
        return False
    ya = y**f.alpha_float
    return z / f.value_at_11 < ya and (f.is_one_degenerate or ya < z)
