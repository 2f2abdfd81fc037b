"""Implicit x-branches of the slice level sets gamma(x, y) = z: the oracle
and the entry points of the benchmark, on no solver's path.

Every branch is the family's exact closed-form inverse on floats
(``CurvatureFunction.solve_float``), and a ``ConvergenceError`` where that
has no root.  ``solve_level`` is that solve at any level; ``g_plus`` is the
positive-level branch on U+.  The solvers take the family's own methods: the
-1 level is ``CurvatureFunction.solve_minus``, and the asymptotic constants
are family data, not estimates: the origin limit and slope of g_-
(``minus_origin``, which ``dg_minus_dy_at_zero`` reads) and the Laurent pair
of g_+(y, 1) at infinity (``laurent``).

``bisect_level`` is an independent oracle for the closed forms, on no solve
path: a bisection that uses only ``value``.  ``verify --suite implicit`` and
the tests check the branches against it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional

from .curvature import CurvatureFunction
from .errors import ClassificationError, ConvergenceError, DomainError, UnsupportedError


def _float_index(x: float) -> int:
    """Position of x among the ordered floats, both zeros at 0."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


def _float_at(index: int) -> float:
    """The float at a position ``_float_index`` returns."""
    bits = index if index >= 0 else -index | 1 << 63
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@dataclass
class EndpointData:
    m0_bar: Optional[float]  # -gamma(-1,1)^(-1/alpha), when gamma(-1,1) > 0


@dataclass
class ImplicitBranch:
    """Solved branch x = g(y, z) of gamma(x, y) = z for one curvature function."""

    source: CurvatureFunction

    def _root(self, y: float, z: float) -> float:
        """The closed-form x with gamma(x, y) = z, exact where it is finite;
        a ConvergenceError where it has no root."""
        x = self.source.solve_float(y, z)
        if not math.isfinite(x):
            raise ConvergenceError(f"{self.source.name}: no root of gamma = {z} at y={y}")
        return x

    solve_level = _root

    def bisect_level(self, y: float, z: float) -> float:
        """Oracle for the closed forms: the root of gamma(x, y) = z inside
        ``x_chart``, where gamma increases, by bisection on ``value`` alone.

        Two bisections halve the open chart in the count of floats it holds
        (at most 64 probes, also next to a pole or at 1e15) and stop only when
        the bracket pinches: on the least x with gamma >= z and on the least x
        with gamma > z.  The root is the middle of the floats between.  Unless
        both leave the chart ends behind by more than one float, gamma only
        approaches the level toward an end, or meets it at the outermost float,
        where ``value`` and ``x_chart`` round the end differently: no root.
        """
        f = self.source

        def least(above, a, b):
            """The adjacent float indices in [a, b] where ``above(gamma)`` turns true."""
            while b - a > 1:
                mid = (a + b) // 2
                x = _float_at(mid)
                try:  # ``value``, but for the OverflowError that it classifies
                    v = f._raw_value(x, y) / f.normalization
                except OverflowError:  # a power of x: gamma is huge, with the sign of x
                    v = math.copysign(math.inf, x)
                if math.isnan(v):
                    raise ConvergenceError(f"{f.name}: gamma undefined at ({x}, {y})")
                a, b = (a, mid) if above(v) else (mid, b)
            return a, b

        # an infinite end counts at 1e300, where a quotient's terms stay finite
        lo, hi = (_float_index(max(-1e300, min(end, 1e300))) for end in f.x_chart(y, z))
        below, first = least(lambda v: v >= z, lo, hi)
        _, past = least(lambda v: v > z, below, hi)
        if below <= lo + 1 or past >= hi - 1:
            raise ConvergenceError(f"{f.name}: no root of gamma = {z} at y={y}, only its approach "
                                   "to a chart end")
        return _float_at((first + past - 1) // 2 if past > first else first)

    # -- public branches ------------------------------------------------------

    def g_plus(self, y: float, z: float) -> float:
        """Unique x > 0 with gamma(x, y) = z, for y^alpha < z/gamma(0, 1).

        The right U+ inequality is exactly positivity of the solution and is
        enforced; left of U+ the branch continues with x > y and is accepted.
        """
        if y <= 0 or z <= 0:
            raise DomainError(f"U+ requires y > 0 and z > 0, got ({y}, {z})")
        # the rhs z/gamma(0, 1) is z, gamma being normalized at (0, 1)
        ya = y**self.source.alpha_float
        if not (self.source.is_one_degenerate or ya < z):
            raise DomainError(
                f"(y, z) outside U+: need y^alpha < z/gamma(0,1), got {ya} >= {z}",
                violated="right",
            )
        return self._root(y, z)

    def dg_minus_dy_at_zero(self) -> float:
        """Slope of the -1 branch at y -> 0-: the family's ``minus_origin`` slope."""
        f = self.source
        if f.minus_origin is None:
            raise UnsupportedError(f"{f.name}: no -1 level reaches the origin")
        limit, slope = f.minus_origin
        if not math.isfinite(limit):
            raise ClassificationError(f"{f.name}: g_- diverges toward y=0 (g_-(0,-1) is not 0)")
        return slope

    # -- endpoints -----------------------------------------------------------

    def endpoint_data(self) -> EndpointData:
        """The cone slope ratio m0_bar; the left end of U+ is ``lambda0``."""
        f = self.source
        try:
            gm11 = f.value(-1.0, 1.0)
        except DomainError:
            gm11 = -math.inf
        return EndpointData(m0_bar=-(gm11 ** (-1.0 / f.alpha_float)) if gm11 > 0 else None)
