"""Implicit x-branches of the slice level sets gamma(x, y) = z.

The level set is solved for x by one safeguarded Newton loop in an expanding
bracket: Newton steps where they land inside the bracket and shrink it fast
enough, splits otherwise, geometric in the distance to a near chart end (a
pole, a radicand root).  It only uses ``value`` and ``grad`` of the curvature
function, so it stays independent of the closed-form inverses, which
cross-check it.  ``solve_level`` feeds the ODE right-hand sides: it is the
family's exact closed form, and a ``ConvergenceError`` where that has no
root.

``g_plus`` is the positive-level branch on U+;  ``g_minus`` the z = -1 branch
at y in (-1, 0);  ``solve_extended`` the unrestricted monotone solve, where
x may take either sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curvature import CurvatureFunction
from .errors import ConvergenceError, DomainError, UnsupportedError

# a bracket spanning more than this factor in the distance to a finite chart
# end is split geometrically in that distance, a narrower one arithmetically
SPLIT_RATIO = 4.0
# the near distance of a geometric split counts as at least this share of
# the far one: a bracket starting at the 1e-300 inset of a chart end at 0
# is cut at 2^-13 of its width first, not at 1e-150
NEAR_FLOOR = 2.0**-26
# a gradient stays current while the residual is below this share of its
# value where the gradient was taken: Newton then converges quadratically,
# the gradient has moved by about twice that share since, and a step with it
# gains about as much as a fresh Newton step, for one call instead of two
GRADIENT_REUSE = 3e-3
# iterations of the safeguarded Newton loop before it reports a stall
MAX_SOLVE_STEPS = 200
# doublings of the bracket before a solve reports no sign change
MAX_BRACKET_EXPANSIONS = 60
# a solve stops at a residual of this times max(1, |z|); a decade below 1e-12,
# so the acceptance grids (z up to 3) meet an absolute 1e-12 round-trip bound
SOLVE_TOLERANCE = 1e-13


@dataclass
class EndpointData:
    left_value: float
    right_value: float
    m0_bar: Optional[float]  # -gamma(-1,1)^(-1/alpha), when gamma(-1,1) > 0


@dataclass
class ImplicitBranch:
    """Solved branch x = g(y, z) of gamma(x, y) = z for one curvature function."""

    source: CurvatureFunction

    # -- core hybrid solver -------------------------------------------------

    def _solve_bracketed(self, y: float, z: float, lo: float, hi: float) -> float:
        """Monotone solve of gamma(x, y) = z for x in an expanding bracket.

        The bracket grows additively-then-geometrically toward the ends of
        the monotone chart.  One safeguarded Newton loop then narrows it,
        from a first probe at the bracket's midpoint: a Newton step from the
        bracket end with the smaller residual is taken when it lands
        strictly inside the bracket and is at most half the step before
        last (``rtsafe``, Press et al., Numerical Recipes, section 9.4);
        otherwise the bracket is split.  While the bracket spans more than a
        factor ``SPLIT_RATIO`` in the distance to a finite chart end (a
        denominator pole, a radicand root, the fold of an even formula),
        the split is the geometric mean of that distance and no gradient is
        taken, so a root hugging a pole costs a few halvings of the
        distance's logarithm, not of the distance.
        """
        f = self.source
        end_lo, end_hi = f.x_chart(y, z)
        # step just inside finite chart ends (pole/radicand boundaries);
        # the inset scales with the bound so pole-hugging roots stay inside
        chart_lo, chart_hi = end_lo, end_hi
        if math.isfinite(chart_lo):
            chart_lo = chart_lo + 1e-15 * abs(chart_lo) + 1e-300
        if math.isfinite(chart_hi):
            chart_hi = chart_hi - 1e-15 * abs(chart_hi) - 1e-300

        def phi(x):
            try:
                return f.value(x, y) - z
            except (DomainError, ZeroDivisionError, OverflowError):
                return math.nan

        def geometric_split(lo, hi):
            """Geometric midpoint in the distance to a finite chart end that
            the bracket spans by more than SPLIT_RATIO, else None."""
            if math.isfinite(end_lo):
                far = hi - end_lo
                near = max(lo - end_lo, NEAR_FLOOR * far)
                if far > SPLIT_RATIO * near:
                    return end_lo + math.sqrt(near) * math.sqrt(far)
            if math.isfinite(end_hi):
                far = end_hi - lo
                near = max(end_hi - hi, NEAR_FLOOR * far)
                if far > SPLIT_RATIO * near:
                    return end_hi - math.sqrt(near) * math.sqrt(far)
            return None

        lo = min(max(lo, chart_lo), chart_hi)
        hi = min(max(hi, chart_lo), chart_hi)
        flo, fhi = phi(lo), phi(hi)
        width = max(hi - lo, 1e-6)
        n_exp = 0
        while not (flo < 0 <= fhi or flo <= 0 < fhi):
            if n_exp == MAX_BRACKET_EXPANSIONS:
                raise ConvergenceError(
                    f"{f.name}: no sign change for z={z} at y={y}",
                    bracket=(lo, hi),
                )
            # only a moved end is evaluated again
            if math.isnan(fhi) or fhi < 0:
                hi = hi + width if math.isinf(chart_hi) else 0.5 * (hi + chart_hi)
                fhi = phi(hi)
            if math.isnan(flo) or flo > 0:
                lo = lo - width if math.isinf(chart_lo) else 0.5 * (lo + chart_lo)
                flo = phi(lo)
            width *= 2.0
            n_exp += 1
        tol = SOLVE_TOLERANCE * max(1.0, abs(z))
        x = 0.5 * (lo + hi)
        step = step_old = hi - lo
        # the search's own ends may sit on a chart boundary: no Newton base
        lo0, hi0 = lo, hi
        slope = {}  # gradients taken, by point
        reused_grad, reuse_below = None, 0.0
        # the bracket's span in distance to a chart end only narrows: once
        # no geometric split applies, none will
        geometric = True
        for _ in range(MAX_SOLVE_STEPS):
            fx = phi(x)
            if math.isnan(fx):
                raise ConvergenceError(f"{f.name}: domain hole inside bracket", bracket=(lo, hi))
            if fx > 0:
                hi, fhi = x, fx
            elif fx < 0:
                lo, flo = x, fx
            if abs(fx) <= tol:
                # final polish: one more step with a current gradient costs
                # no call and brings x to the resolution of the residual
                if abs(fx) < reuse_below:
                    polished = x - fx / reused_grad
                    if lo <= polished <= hi:
                        return polished
                return x
            # interval pinched to machine width: residual floor reached
            if hi - lo <= 8 * math.ulp(max(abs(lo), abs(hi), 1e-30)):
                return 0.5 * (lo + hi)
            x_new = geometric_split(lo, hi) if geometric else None
            if x_new is None:
                geometric = False
                # Newton from the bracket end with the smaller residual
                if hi == hi0 or (lo != lo0 and -flo <= fhi):
                    xb, fb = lo, flo
                else:
                    xb, fb = hi, fhi
                gb = slope.get(xb)
                if gb is None:
                    if abs(fb) < reuse_below:
                        gb = reused_grad
                    else:
                        gb = f.grad(xb, y)[0]
                        if gb < 0:
                            raise DomainError(
                                f"{f.name}: decreasing in x at ({xb}, {y}); branch degenerates"
                            )
                    slope[xb] = gb
                reused_grad, reuse_below = gb, GRADIENT_REUSE * abs(fb)
                # at least one ulp, so that a root closer than that still
                # moves x and pinches the bracket from the other side; at a
                # stationary point (slope 0) the bracket is split instead
                newton = math.inf
                if gb > 0:
                    newton = math.copysign(max(abs(fb / gb), math.ulp(xb)), fb)
                x_new = xb - newton
                if lo < x_new < hi and abs(newton) <= 0.5 * step_old:
                    step_old, step = step, abs(newton)
                    x = x_new
                    continue
                x_new = 0.5 * (lo + hi)
            step_old, step = step, 0.5 * (hi - lo)
            x = x_new
        raise ConvergenceError(f"{f.name}: Newton stalled at y={y}, z={z}", bracket=(lo, hi))

    # -- public branches ------------------------------------------------------

    def u_plus_bounds(self, y: float, z: float) -> tuple:
        """The defining inequalities of U+ as (lhs, y^alpha, rhs-or-inf);
        the rhs z/gamma(0, 1) is z, gamma being normalized at (0, 1)."""
        f = self.source
        hi = math.inf if f.is_one_degenerate else z
        return z / f.value_at_11, y**f.alpha_float, hi

    def in_u_plus(self, y: float, z: float) -> bool:
        if y <= 0 or z <= 0:
            return False
        lo, ya, hi = self.u_plus_bounds(y, z)
        return lo < ya < hi

    def g_plus(self, y: float, z: float) -> float:
        """Unique x > 0 with gamma(x, y) = z, for y^alpha < z/gamma(0, 1).

        The right U+ inequality is exactly positivity of the solution and is
        enforced; left of U+ the branch continues with x > y (the solve is
        still monotone there) and is accepted.
        """
        f = self.source
        if y <= 0 or z <= 0:
            raise DomainError(f"U+ requires y > 0 and z > 0, got ({y}, {z})")
        _, ya, hi = self.u_plus_bounds(y, z)
        if not ya < hi:
            raise DomainError(
                f"(y, z) outside U+: need y^alpha < z/gamma(0,1), got {ya} >= {hi}",
                violated="right",
            )
        # proof bound 0 < x < y inside U+; the bracket expands automatically
        upper = y if not f.is_one_degenerate else y * z ** (1.0 / f.alpha_float) * f.lambda0 + y
        return self._solve_bracketed(y, z, 0.0, upper)

    def solve_extended(self, y: float, z: float) -> float:
        """Monotone-in-x solve with no positivity restriction on x, from a
        bracket centred at 0."""
        w = max(1.0, abs(y))
        return self._solve_bracketed(y, z, -0.25 * w, 0.25 * w)

    def solve_level(self, y: float, z: float) -> float:
        """The x-solve of the slope equations: the family's closed form,
        exact where it is finite; a ConvergenceError where it has no root."""
        x = self.source.solve_x(y, z)
        if not math.isfinite(x):
            raise ConvergenceError(f"{self.source.name}: no root of gamma = {z} at y={y}")
        return x

    def g_minus(self, y: float) -> float:
        """The x-solve of gamma(x, y) = -1 for y in (-1, 0).

        For families whose -1 level lies at x > 0 (Hessian quotients,
        even k-norms) this is the standard U- branch; for S_k and odd
        k-norms the level lies at x < 0 and the chart solution is returned
        unrestricted.
        """
        f = self.source
        if f.minus_level is None:
            raise UnsupportedError(f"{f.name} is positive; the -1 level is empty")
        if not -1.0 < y < 0.0:
            raise DomainError(f"U- requires y in (-1, 0), got {y}")
        if f.minus_level == "reflected":
            # odd sign rule on a formula even in x: gamma(x, y) = -gamma(x, -y),
            # so the -1 level at y is the 1 level at -y on the increasing chart
            return self._solve_bracketed(-y, 1.0, 0.0, max(1.0, -2 * y))
        return self._solve_bracketed(y, -1.0, 0.0, max(1.0, -2 * y))

    # -- derivatives -----------------------------------------------------------

    def dg_dy(self, y: float, z: float, order: int = 1) -> float:
        """Implicit y-derivatives of the positive branch at (y, z).

        Order 1 is -gamma_y/gamma_x at (g, y); order 2 differentiates once
        more, consuming second partials of gamma.
        """
        x = self.g_plus(y, z) if self.in_u_plus(y, z) else self.solve_extended(y, z)
        f = self.source
        gx, gy = f.grad(x, y)
        if gx <= 0:
            raise DomainError(f"{f.name}: gamma_x <= 0 at solved point ({x}, {y})")
        g1 = -gy / gx
        if order == 1:
            return g1
        if order != 2:
            raise UnsupportedError("dg_dy supports orders 1 and 2")
        gxx, gxy, gyy = f.second_partials(x, y)
        # differentiate gamma_x g' + gamma_y = 0 along y -> solve for g''
        return -(gyy + 2.0 * gxy * g1 + gxx * g1 * g1) / gx

    def dg_minus_dy_at_zero(self) -> float:
        """Slope of the -1 branch at y -> 0-, Richardson-extrapolated.

        Implicit derivatives -gamma_y/gamma_x along the branch are smooth in
        y here, so Neville extrapolation from four geometric steps reaches
        ~1e-10, enough to decide the logarithmic boundary case b = -1.
        """
        from .errors import ClassificationError

        f = self.source
        if f.minus_level is None:
            raise UnsupportedError(f"{f.name} has no -1 level")
        hs = [4e-3, 2e-3, 1e-3, 5e-4]
        vals = []
        for h in hs:
            x = self.g_minus(-h)
            gx, gy = f.grad(x, -h)
            vals.append(-gy / gx)
        if abs(vals[-1]) > 2.0 * abs(vals[0]) and abs(vals[-1]) > 1e2:
            raise ClassificationError(
                f"{f.name}: dg_-/dy diverges toward y=0 (g_-(0,-1) is not 0)"
            )
        # Neville tableau in h (values are analytic in h near 0)
        tab = list(vals)
        pts = list(hs)
        n = len(tab)
        for m in range(1, n):
            for i in range(n - m):
                tab[i] = (pts[i + m] * tab[i] - pts[i] * tab[i + 1]) / (pts[i + m] - pts[i])
        return tab[0]

    def g_minus_limit_at_zero(self) -> float:
        """Limit of g_-(y, -1) as y -> 0-, inf if it diverges."""
        v1 = abs(self.g_minus(-1e-4))
        v2 = abs(self.g_minus(-1e-5))
        if v2 > 2 * v1 and v2 > 1e2:
            return math.inf
        return self.g_minus(-1e-6)

    # -- endpoints and tails -----------------------------------------------------

    def endpoint_data(self) -> EndpointData:
        f = self.source
        left = f.lambda0  # g_+(gamma(1,1)^(-1/alpha), 1) = same value, by scaling
        right = 0.0 if not f.is_one_degenerate else math.nan
        m0 = None
        try:
            gm11 = f.value(-1.0, 1.0)
        except DomainError:
            gm11 = -math.inf
        if gm11 > 0:
            m0 = -(gm11 ** (-1.0 / f.alpha_float))
        return EndpointData(left_value=left, right_value=right, m0_bar=m0)

    def endpoint_left_by_limit(self) -> float:
        """Interior solve toward the left endpoint of U+ at z = 1, at a
        relative distance 1e-8 from it."""
        return self.g_plus(self.source.lambda0 * (1 + 1e-8), 1.0)

    def laurent_tail(self) -> tuple:
        """Leading Laurent term of g_+(y, 1) at infinity: (k_gamma, c_gamma).

        Fits log g vs log y by least squares on 48 log-spaced y in [1e3, 1e6];
        raises ClassificationError if the tail is not a clean power law.
        """
        from .bowl import _loglog_fit
        from .errors import ClassificationError

        f = self.source
        if not f.is_one_degenerate:
            raise UnsupportedError(f"{f.name} is 1-nondegenerate; g_+ has no Laurent tail")
        ys = np.geomspace(1e3, 1e6, 48)
        gs = np.array([self.g_plus(float(y), 1.0) for y in ys])
        if np.any(gs <= 0):
            raise ClassificationError("g_+ tail is not positive")
        slope, intercept = _loglog_fit(ys, gs)
        resid = float(np.max(np.abs(slope * np.log(ys) + intercept - np.log(gs))))
        if resid > 1e-3:
            raise ClassificationError(f"g_+ tail deviates from a power law (resid={resid:.2e})")
        return -slope, math.exp(intercept)
