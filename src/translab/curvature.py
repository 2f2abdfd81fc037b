"""Two-variable restrictions of symmetric homogeneous curvature functions.

Every function of the principal curvatures used here is evaluated on the
rotational slice (x, y, ..., y) of R^n, which collapses it to a function
gamma(x, y) of two variables.  Each family below provides the slice value,
analytic first partials, a cone-membership predicate and a closed-form
inverse in x, written once, selected by the caller: ``_inverse`` returns the
root and its chart test (a bool, or a bool array) by one formula on floats
and ndarrays, and ``solve_float`` keeps the root by a plain conditional,
``solve_x`` on ndarrays by ``np.where`` (roots within the few ulps of
numpy's array power).  Callers that hold floats skip the type test: the
catenoid angle charts, the bowl coefficients and ``ImplicitBranch`` call
``solve_float``, the slope RHS ``_inverse`` itself.  Each inverse is exact:
it returns the root of gamma(x, y) = z on the monotone piece ``x_chart``
names, and NaN where that piece holds none, so its callers trust any finite
value.  It is the only x-solve: every ODE right-hand side, barrier margin
and ``ImplicitBranch`` branch takes it (``solve_minus`` at the -1 level),
and ``ImplicitBranch.bisect_level`` checks it by bisection on ``value``.

Construction normalizes gamma so that gamma(0, 1) = 1 whenever that value is
positive; the original scale is kept in ``normalization``.  It also sets each
family's exact asymptotic data (``minus_origin``, ``laurent``) and, on a
signed family, its zero ray, so that no caller estimates them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb
from typing import Optional

import numpy as np

from .errors import DomainError, ParameterError, UnsupportedError

def _unit(x: float, y: float) -> tuple:
    norm = math.hypot(x, y)
    return x / norm, y / norm


class CurvatureFunction:
    """An alpha-homogeneous symmetric curvature function on its slice.

    Instances are immutable; all evaluation methods are pure.  ``value`` and
    ``grad`` return the *normalized* function.  Points outside the set where
    the family's formula extends raise :class:`DomainError`; ``grad`` also
    takes ndarrays of x and y and returns NaN there instead.
    """

    name: str
    dimension_n: int
    alpha: Fraction
    # how the slice formula reaches the level gamma = -1 at y in (-1, 0):
    # None where the family stays positive there, "direct" where the formula
    # takes the value -1, "reflected" where it is even in x and the level is
    # the odd sign rule's image -gamma(x, -y) of the level 1
    minus_level: Optional[str] = None
    # (L, S) with g_-(y, -1) = L + S y + o(y) as y -> 0-: L is infinite (S
    # NaN) where g_- diverges, and the pair None where no -1 level reaches
    # the origin
    minus_origin: Optional[tuple] = None
    # (k, c) with g_+(y, 1) ~ c y^-k as y -> inf, on 1-degenerate families
    laurent: Optional[tuple] = None
    # on signed families, the unit (x0, y0) with gamma = 0, gamma_x > 0
    # and x0/y0 < 0
    zero_ray: Optional[tuple] = None

    def __init__(self, name: str, n: int, alpha: Fraction):
        if n < 2:
            raise ParameterError(f"dimension n must be >= 2, got {n}")
        self.name = name
        self.dimension_n = n
        self.alpha = Fraction(alpha)
        # the family's fixed data: the raw slice value at (0, 1), which is
        # the normalization unless it vanishes (1-degenerate), the value at
        # the umbilic point (1, 1) and the umbilic slope lambda0 of the bowl
        self.value_at_01 = self._raw_value(0.0, 1.0)
        self.is_one_degenerate = self.value_at_01 == 0
        self.normalization = 1.0 if self.is_one_degenerate else self.value_at_01
        self.alpha_float = a = float(self.alpha)
        self.beta = (a - 1.0) / (2.0 * a)
        self.value_at_11 = self._raw_value(1.0, 1.0) / self.normalization
        self.lambda0 = lam = self.value_at_11 ** (-1.0 / a)
        # (c3, c5) of the bowl's axis series v = lambda0 r + c3 r^3 + c5 r^5:
        # the r^2 and r^4 balances of the slope equation on X(y) = g_+(y, 1) =
        # lambda0 + x1 (y - lambda0) + x2 (y - lambda0)^2 / 2, with x1 = -(n-1)
        # (the partials are equal at the umbilic), x2 from gamma(X(y), y) = 1
        b, x1 = self.beta, 1.0 - n
        gxx, gxy, gyy = self.second_partials(lam, lam)
        x2 = -(gxx * x1 * x1 + 2.0 * gxy * x1 + gyy) / self.grad(lam, lam)[0]
        c3 = lam**3 * (1.0 + n * b) / (n + 2)
        y2 = c3 - b * lam**3  # the r^2 coefficient of y = v / (r (1+v^2)^beta)
        self.axis_series = c3, (x1 * (0.5 * b * (b + 1.0) * lam**5 - 3.0 * b * lam**2 * c3)
                                + 0.5 * x2 * y2 * y2 + (b + 1.0) * lam**2
                                * (x1 * y2 + 2.0 * c3 + 0.5 * b * lam**3)) / (n + 4)

    # -- per-family hooks -------------------------------------------------

    def _raw_value(self, x: float, y: float) -> float:
        raise NotImplementedError

    def _raw_grad(self, x: float, y: float) -> tuple:
        raise NotImplementedError

    def _raw_second(self, x: float, y: float):
        """(gxx, gxy, gyy) of the raw slice value, or None to use differences."""
        return None

    def _inverse(self, y, z_raw) -> tuple:
        """(x, ok): the closed-form x with raw gamma(x, y) = z_raw, and whether
        it lies inside ``x_chart``, by one formula on floats (ok a bool) and on
        ndarrays (a bool array).  It may raise, or give +-inf, as float and
        array arithmetic do: +-inf on arrays where a float division raises."""
        raise NotImplementedError

    def cone_contains(self, x: float, y: float) -> bool:
        raise NotImplementedError

    # -- public evaluation -------------------------------------------------

    @property
    def is_signed(self) -> bool:
        return self.zero_ray is not None

    def value(self, x: float, y: float) -> float:
        return self._raw_value(x, y) / self.normalization

    def grad(self, x: float, y: float) -> tuple:
        gx, gy = self._raw_grad(x, y)
        return gx / self.normalization, gy / self.normalization

    def second_partials(self, x: float, y: float) -> tuple:
        s = self._raw_second(x, y)
        if s is not None:
            c = self.normalization
            return s[0] / c, s[1] / c, s[2] / c
        h = 1e-6 * max(1.0, abs(x), abs(y))
        gxp = self.grad(x + h, y)
        gxm = self.grad(x - h, y)
        gyp = self.grad(x, y + h)
        gym = self.grad(x, y - h)
        gxx = (gxp[0] - gxm[0]) / (2 * h)
        gyy = (gyp[1] - gym[1]) / (2 * h)
        gxy = 0.5 * ((gyp[0] - gym[0]) / (2 * h) + (gxp[1] - gxm[1]) / (2 * h))
        return gxx, gxy, gyy

    def solve_x(self, y, z):
        """Closed-form inverse of the normalized slice value, written once
        (``_inverse``) and selected by the caller: ``solve_float`` on floats,
        else ``np.where`` on ``ok``; NaN (in the shape of y) where there is no
        root, never +-inf, so that the RHS built on it ends on a domain exit."""
        if not (isinstance(y, np.ndarray) or isinstance(z, np.ndarray)):
            return self.solve_float(y, z)
        try:
            x, ok = self._inverse(y, z * self.normalization)
        except (ZeroDivisionError, OverflowError):
            return y * math.nan
        # a vanishing denominator gives +-inf on arrays where floats raise, an
        # overflowing product +-inf on both
        return np.where(ok & ~np.isinf(x), x, math.nan)

    def solve_float(self, y: float, z: float) -> float:
        """``solve_x`` on floats, ``_inverse``'s root kept by a plain
        conditional: on one float a helper or numpy call costs more than the
        formula, and every one-component RHS stage solves once."""
        try:
            x, ok = self._inverse(y, z * self.normalization)
        except (ZeroDivisionError, OverflowError):
            return math.nan
        return x if ok and not math.isinf(x) else math.nan

    def solve_minus(self, y):
        """The x-solve of gamma(x, y) = -1 at y in (-1, 0), a float or an ndarray
        (``solve_x``, NaN without a root): on S_k and odd k-norms the level lies
        at x < 0 and is returned unrestricted."""
        if self.minus_level is None:
            raise UnsupportedError(f"{self.name} is positive; the -1 level is empty")
        if not np.all((-1.0 < y) & (y < 0.0)):
            raise DomainError(f"U- requires y in (-1, 0), got {y}")
        # "reflected", the odd sign rule on a formula even in x: gamma(x, y) =
        # -gamma(x, -y), so the -1 level at y is the 1 level at -y
        if self.minus_level == "reflected":
            return self.solve_x(-y, 1.0)
        return self.solve_x(y, -1.0)

    def x_chart(self, y: float, z: float) -> tuple:
        """Open x-interval of the monotone piece holding the z-level at this y.

        Defaults to the whole line; rational families override to exclude
        denominator poles, root families to keep radicands nonnegative, even
        k-norms to keep the half-line x > 0 where they increase, k-convexity
        to keep its k-fold sums positive.
        """
        return (-math.inf, math.inf)

    def sample_cone_point(self, rng: np.random.Generator) -> tuple:
        """A random point of the positive slice cone, radius in [0.2, 5]."""
        for _ in range(200):
            x = rng.uniform(0.05, 5.0)
            y = rng.uniform(0.05, 5.0)
            if self.cone_contains(x, y):
                return x, y
        raise DomainError(f"{self.name}: could not sample the slice cone")

    def __repr__(self):
        return f"<CurvatureFunction {self.name} alpha={self.alpha}>"


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


class MeanCurvature(CurvatureFunction):
    """gamma = H restricted to the slice: x + (n-1) y."""

    def __init__(self, n: int):
        super().__init__(f"mean:n={n}", n, Fraction(1))

    def _raw_value(self, x, y):
        return x + (self.dimension_n - 1) * y

    def _raw_grad(self, x, y):
        return 1.0, float(self.dimension_n - 1)

    def _raw_second(self, x, y):
        return 0.0, 0.0, 0.0

    def _inverse(self, y, z_raw):
        return z_raw - (self.dimension_n - 1) * y, True

    def cone_contains(self, x, y):
        return x + (self.dimension_n - 1) * y > 0


class GaussRoot(CurvatureFunction):
    """n-th root of the Gauss-Kronecker curvature: (x y^(n-1))^(1/n)."""

    def __init__(self, n: int):
        super().__init__(f"gauss:n={n}", n, Fraction(1))
        self.laurent = (n - 1.0, 1.0)  # x y^(n-1) = 1

    def _raw_value(self, x, y):
        n = self.dimension_n
        p = x * y ** (n - 1)
        if p >= 0:
            return p ** (1.0 / n)
        # odd-n root extends continuously to negative products
        if n % 2 == 1:
            return -((-p) ** (1.0 / n))
        raise DomainError(f"gauss:n={n} undefined at ({x}, {y})")

    def _raw_grad(self, x, y):
        n = self.dimension_n
        if isinstance(x, np.ndarray):  # NaN where a float raises
            p = x * y ** (n - 1)
            root = abs(p) ** (1.0 / n)
            ok = (x != 0) & (y != 0) & ((p >= 0) | (n % 2 == 1))
            v = np.where(ok, np.where(p >= 0, root, -root), math.nan)
        else:
            v = self._raw_value(x, y)
            if x == 0 or y == 0:
                raise DomainError("gauss gradient undefined on the boundary")
        return v / (n * x), (n - 1) * v / (n * y)

    def _inverse(self, y, z_raw):
        n = self.dimension_n
        x = z_raw**n / y ** (n - 1)
        # an even root has no level below 0, and its chart is x > 0
        return x, n % 2 == 1 or (z_raw > 0) & (x > 0)

    def cone_contains(self, x, y):
        return x > 0 and y > 0

    def x_chart(self, y, z):
        # an even root needs x y^(n-1) >= 0: on y > 0, x = 0 is the radicand root
        return (0.0, math.inf) if self.dimension_n % 2 == 0 else (-math.inf, math.inf)


def _garding_slice_ok(n: int, k: int, x: float, y: float) -> bool:
    for i in range(1, k + 1):
        if _sym_slice(n, i, x, y) <= 0:
            return False
    return True


def _sym_slice(n: int, k: int, x: float, y: float) -> float:
    """Elementary symmetric polynomial S_k at (x, y, ..., y)."""
    if k == 0:
        return 1.0
    return comb(n - 1, k - 1) * x * y ** (k - 1) + comb(n - 1, k) * y**k


class SymmetricPoly(CurvatureFunction):
    """gamma = S_k itself (alpha = k); signed for odd k < n."""

    minus_level = "direct"

    def __init__(self, n: int, k: int):
        if not 1 <= k <= n:
            raise ParameterError(f"s_k requires 1 <= k <= n, got k={k}, n={n}")
        self.k = k
        self._a = comb(n - 1, k - 1)
        self._b = comb(n - 1, k)
        super().__init__(f"sk:k={k},n={n}", n, Fraction(k))
        # the -1 level x = -(c + B_k y^k)/(B_{k-1} y^(k-1)), B_j = C(n-1, j)
        # and c the normalization: a line for k = 1, diverging at the origin
        # for odd k >= 3 and absent for even k (``_inverse``)
        if k == 1:
            self.minus_origin = (-(n - 1.0), -(n - 1.0))
        elif k % 2 == 1:
            self.minus_origin = (-math.inf, math.nan)
        if k % 2 == 1 and k < n:
            self.zero_ray = _unit(-(n - k) / k, 1.0)
        if k == n:
            self.laurent = (n - 1.0, 1.0)  # x y^(n-1) = 1

    def _raw_value(self, x, y):
        k = self.k
        return self._a * x * y ** (k - 1) + self._b * y**k

    def _raw_grad(self, x, y):
        k = self.k
        gx = self._a * y ** (k - 1)
        gy = self._a * (k - 1) * x * y ** (k - 2) + self._b * k * y ** (k - 1)
        return gx, gy

    def _raw_second(self, x, y):
        k = self.k
        gxx = 0.0
        gxy = self._a * (k - 1) * y ** (k - 2)
        gyy = self._a * (k - 1) * (k - 2) * x * y ** (k - 3) + self._b * k * (
            k - 1
        ) * y ** (k - 2)
        return gxx, gxy, gyy

    def _inverse(self, y, z_raw):
        k = self.k
        x = (z_raw - self._b * y**k) / (self._a * y ** (k - 1))
        # gamma_x = a y^(k-1): for even k no piece increases in x at y < 0
        return x, k % 2 == 1 or y > 0

    def cone_contains(self, x, y):
        return _garding_slice_ok(self.dimension_n, self.k, x, y)


class HessianQuotient(CurvatureFunction):
    """gamma = ((S_k/S_l) * (S_l/S_k at (0,1,...,1)))^(1/(k-l)), 0 <= l < k <= n.

    The slice value is kept in the y-factored form
        c * y * ((B_k y + B_{k-1} x) / (B_l y + B_{l-1} x))^(1/(k-l)),
    which extends to y < 0 and satisfies the odd sign rule exactly.
    """

    minus_level = "direct"

    def __init__(self, n: int, k: int, l: int):  # noqa: E741 - conventional index name
        if not 0 <= l < k <= n:
            raise ParameterError(f"hessian quotient requires 0 <= l < k <= n, got k={k}, l={l}")
        self.k = k
        self.l = l
        self.m = k - l
        self._bk = comb(n - 1, k)
        self._bk1 = comb(n - 1, k - 1)
        self._bl = comb(n - 1, l)
        self._bl1 = comb(n - 1, l - 1) if l >= 1 else 0
        # with a pole (l >= 1), y times this is the raw value's limit at x = +-inf
        self._limit = (self._bk1 / self._bl1) ** (1.0 / self.m) if l >= 1 else None
        name = f"qk:k={k},n={n}" if l == k - 1 else f"hq:k={k},l={l},n={n}"
        super().__init__(name, n, Fraction(1))
        # the -1 level solves num/den = (c/|y|)^m, c the normalization, which
        # grows without bound as y -> 0-: with a pole (l >= 1) x tends to the
        # pole -B_l y/B_{l-1} through the origin; without one it is the line
        # x = -(n-1)(1+y) of H/(n-1) for m = 1 and diverges for m >= 2
        if l >= 1:
            self.minus_origin = (0.0, -(n - l) / l)
        elif self.m == 1:
            self.minus_origin = (-(n - 1.0), -(n - 1.0))
        else:
            self.minus_origin = (-math.inf, math.nan)
        if l == k - 1 and k < n:
            self.zero_ray = _unit(-(n - k) / k, 1.0)
        if k == n:
            # B_k = 0: x = B_l y/(y^m - B_{l-1})
            self.laurent = (self.m - 1.0, float(self._bl))

    def _ratio(self, x, y):
        num = self._bk * y + self._bk1 * x
        den = self._bl * y + self._bl1 * x
        if den == 0:
            raise DomainError(f"{self.name}: denominator ray at ({x}, {y})")
        return num / den

    def _raw_value(self, x, y):
        rho = self._ratio(x, y)
        if self.m == 1:
            return y * rho
        if rho < 0:
            raise DomainError(f"{self.name}: quotient negative at ({x}, {y})")
        return y * rho ** (1.0 / self.m)

    def _raw_grad(self, x, y):
        num = self._bk * y + self._bk1 * x
        den = self._bl * y + self._bl1 * x
        rho = num / den
        m = self.m
        # on arrays the power below gives NaN there
        if m > 1 and not isinstance(rho, np.ndarray) and rho <= 0:
            raise DomainError(f"{self.name}: gradient undefined where quotient <= 0")
        drho_dx = (self._bk1 * den - self._bl1 * num) / den**2
        drho_dy = (self._bk * den - self._bl * num) / den**2
        if m == 1:
            # p = rho, also on the zero ray where p / rho is undefined
            return y * drho_dx, rho + y * drho_dy
        p = rho ** (1.0 / m)
        dp_dx = p / (m * rho) * drho_dx
        dp_dy = p / (m * rho) * drho_dy
        return y * dp_dx, p + y * dp_dy

    def _raw_second(self, x, y):
        if self.m != 1:
            return None
        # value = y * num/den with num, den affine in (x, y)
        num = self._bk * y + self._bk1 * x
        den = self._bl * y + self._bl1 * x
        dnum_dx, dnum_dy = self._bk1, self._bk
        dden_dx, dden_dy = self._bl1, self._bl
        den2 = den * den
        den3 = den2 * den
        q_x = (dnum_dx * den - num * dden_dx) / den2
        q_y = (dnum_dy * den - num * dden_dy) / den2
        q_xx = -2 * dden_dx * (dnum_dx * den - num * dden_dx) / den3
        q_xy = (
            (dnum_dx * dden_dy - dnum_dy * dden_dx) * den
            - 2 * dden_dy * (dnum_dx * den - num * dden_dx)
        ) / den3
        q_yy = -2 * dden_dy * (dnum_dy * den - num * dden_dy) / den3
        gxx = y * q_xx
        gxy = q_x + y * q_xy
        gyy = 2 * q_y + y * q_yy
        return gxx, gxy, gyy

    def _inverse(self, y, z_raw):
        # the cross-multiplied equation num/den = (z/y)^m
        m = self.m
        zm = z_raw**m
        ym = y**m
        x = y * (self._bl * zm - self._bk * ym) / (self._bk1 * ym - self._bl1 * zm)
        if m == 1:
            # gamma(x, 0) = 0 for every x: no level has a root at y = 0; with
            # a pole, x_chart picks x > pole below the limit, x < pole above it
            ok = y != 0
            if self._bl1:
                ok = ok & ((x > -self._bl * y / self._bl1) == (z_raw < y * self._limit))
            return x, ok
        # the root solves the level only where z/y > 0 (for even m the
        # equation also has roots at z/y < 0) and num/den > 0, computed as
        # ``value`` computes them; it counts only strictly inside the piece
        # ``x_chart`` picks, with the ends and split computed as there, so a
        # root rounded onto an end or onto the other piece gives NaN
        num = self._bk * y + self._bk1 * x
        den = self._bl * y + self._bl1 * x
        x_n = -self._bk * y / self._bk1
        on_chart = (x - x_n) * y > 0  # x > x_n for y > 0, x < x_n for y < 0
        if self._bl1:
            # below the limit at y < 0 the piece right of the pole (``right
            # ^ True`` negates a bool and a bool array alike)
            right = (y < 0) & (z_raw < y * self._limit)
            on_chart = right & (x > -self._bl * y / self._bl1) | (right ^ True) & on_chart
        return x, (y * z_raw > 0) & (num * den > 0) & on_chart

    def cone_contains(self, x, y):
        return _garding_slice_ok(self.dimension_n, self.k, x, y)

    def x_chart(self, y, z):
        inf = math.inf
        if self._bl1 == 0:
            if self.m == 1:
                return (-inf, inf)
            x_n = -self._bk * y / self._bk1  # numerator root
            return (x_n, inf) if y > 0 else (-inf, x_n)
        pole = -self._bl * y / self._bl1
        # the level lies on the piece x > pole below the limit
        below = z * self.normalization < y * self._limit
        if self.m == 1:
            return (pole, inf) if below else (-inf, pole)
        x_n = -self._bk * y / self._bk1
        if y > 0:
            return (max(x_n, pole), inf)
        return (pole, inf) if below else (-inf, x_n)


class KNorm(CurvatureFunction):
    """gamma = (lambda_1^k + ... + lambda_n^k)^(1/k) on the positive cone."""

    def __init__(self, n: int, k: int):
        if k < 1:
            raise ParameterError(f"k_norm requires k >= 1, got {k}")
        self.k = k
        # odd k: the signed root reaches -1 itself; even k: through the sign rule
        self.minus_level = "direct" if k % 2 == 1 else "reflected"
        super().__init__(f"knorm:k={k},n={n}", n, Fraction(1))
        # the -1 level x = -(c^k + (n-1) y^k)^(1/k) for odd k, and for even k
        # its reflection (c^k - (n-1) y^k)^(1/k), c the normalization: it
        # leaves the origin at -+c, with slope -(n-1) for k = 1 and 0 beyond
        c = self.normalization
        self.minus_origin = (c if k % 2 == 0 else -c, -(n - 1.0) if k == 1 else 0.0)

    def _raw_value(self, x, y):
        k, n = self.k, self.dimension_n
        s = x**k + (n - 1) * y**k
        if s > 0:
            return s ** (1.0 / k)
        if k % 2 == 1:
            return -((-s) ** (1.0 / k))
        raise DomainError(f"{self.name}: sum of k-th powers non-positive")

    def _raw_grad(self, x, y):
        k, n = self.k, self.dimension_n
        if isinstance(x, np.ndarray):  # NaN where a float raises
            s = x**k + (n - 1) * y**k
            root = abs(s) ** (1.0 / k)
            v = np.where((s > 0) | (s < 0) & (k % 2 == 1), np.where(s > 0, root, -root),
                         math.nan)
        else:
            v = self._raw_value(x, y)
            if v == 0:
                raise DomainError(f"{self.name}: gradient undefined on the zero set")
        return (x / v) ** (k - 1), (n - 1) * (y / v) ** (k - 1)

    def _inverse(self, y, z_raw):
        k, n = self.k, self.dimension_n
        s = z_raw**k - (n - 1) * y**k
        root = abs(s) ** (1.0 / k)
        # an odd power sum takes the odd root below 0; an even one has no sum or level below 0
        if k % 2 == 1:
            return (1 - 2 * (s < 0)) * root, True
        return root, (s > 0) & (z_raw > 0)

    def cone_contains(self, x, y):
        return x > 0 and y > 0

    def x_chart(self, y, z):
        # an even power sum is even in x and increases on x > 0 only
        return (0.0, math.inf) if self.k % 2 == 0 else (-math.inf, math.inf)


class KConvexity(CurvatureFunction):
    """Inverse of the sum of reciprocals of k-fold curvature sums."""

    def __init__(self, n: int, k: int):
        if not 1 <= k <= n:
            raise ParameterError(f"k_convexity requires 1 <= k <= n, got {k}")
        if k == 1:
            raise ParameterError(
                f"kconv:k=1,n={n}: the slice 1/(1/x + (n-1)/y) is undefined at (0, 1), "
                "where every family is normalized"
            )
        self.k = k
        self._a = comb(n - 1, k - 1)  # sums containing x: x + (k-1) y
        self._b = comb(n - 1, k)  # sums of k copies of y: k y
        super().__init__(f"kconv:k={k},n={n}", n, Fraction(1))

    def _sums(self, x, y):
        k = self.k
        sx = x + (k - 1) * y
        sy = k * y
        if isinstance(sx, np.ndarray):  # NaN where a float raises
            return np.where(sx > 0, sx, math.nan), np.where(sy > 0, sy, math.nan)
        if sx <= 0 or (self._b > 0 and sy <= 0):
            raise DomainError(f"{self.name}: a k-fold sum is non-positive")
        return sx, sy

    def _raw_value(self, x, y):
        sx, sy = self._sums(x, y)
        tot = self._a / sx + (self._b / sy if self._b else 0.0)
        return 1.0 / tot

    def _raw_grad(self, x, y):
        sx, sy = self._sums(x, y)
        tot = self._a / sx + (self._b / sy if self._b else 0.0)
        k = self.k
        dtot_dx = -self._a / sx**2
        dtot_dy = -self._a * (k - 1) / sx**2 - (self._b * k / sy**2 if self._b else 0.0)
        return -dtot_dx / tot**2, -dtot_dy / tot**2

    def _inverse(self, y, z_raw):
        # no root where a k-fold sum (``_sums``) is non-positive: lhs, sy <= 0,
        # or a root that rounds onto the chart end x = -(k-1) y (a/lhs lost
        # against (k-1) y at a tiny level); an array divides by z = 0 to +-inf
        k = self.k
        sy = k * y
        rest = self._b / sy if self._b else 0.0
        lhs = 1.0 / z_raw - rest
        x = self._a / lhs - (k - 1) * y
        ok = (lhs > 0) & (x + (k - 1) * y > 0)
        return x, (ok & (sy > 0) if self._b else ok)

    def cone_contains(self, x, y):
        k = self.k
        return y > 0 and x + (k - 1) * y > 0

    def x_chart(self, y, z):
        # the k-fold sums that contain x are positive
        return (-(self.k - 1) * y, math.inf)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# each family's constructor and the parameters of its key besides n, in the
# constructor's order after n
_FAMILIES = {
    "mean": (MeanCurvature, ()),
    "gauss": (GaussRoot, ()),
    "hq": (HessianQuotient, ("k", "l")),
    "qk": (lambda n, k: HessianQuotient(n, k, k - 1), ("k",)),
    "sk": (SymmetricPoly, ("k",)),
    "knorm": (KNorm, ("k",)),
    "kconv": (KConvexity, ("k",)),
}


def family_patterns() -> list:
    """The key pattern of each family, such as 'hq:k=K,l=L,n=N'."""
    return [f"{family}:" + ",".join(f"{p}={p.upper()}" for p in (*names, "n"))
            for family, (_, names) in _FAMILIES.items()]


def build_family(family: str, n: int, /, **params) -> CurvatureFunction:
    """Construct a normalized family member from exactly the parameters its
    key takes; see ``family_patterns``."""
    if family not in _FAMILIES:
        raise ParameterError(f"unknown curvature family {family!r}")
    make, names = _FAMILIES[family]
    if sorted(params) != sorted(names):
        raise ParameterError(f"{family} takes the parameters {', '.join((*names, 'n'))}, "
                             f"got {', '.join((*params, 'n'))}")
    return make(n, *(params[p] for p in names))


def from_key(key: str) -> CurvatureFunction:
    """Parse a registry key like 'hq:k=2,l=0,n=4' or 'mean:n=3'; each
    parameter is given once."""
    family, _, rest = key.partition(":")
    kv = {}
    try:
        for item in filter(None, rest.split(",")):
            name, _, val = item.partition("=")
            name = name.strip()
            if name in kv:
                raise ValueError(f"parameter {name} repeated")
            kv[name] = int(val)
        n = kv.pop("n")
    except (KeyError, ValueError) as exc:
        raise ParameterError(f"malformed curvature key {key!r}: {exc}") from exc
    return build_family(family.strip(), n, **kv)


def registry_keys() -> list:
    """Representative keys, one or two per family."""
    return [
        "mean:n=3",
        "gauss:n=4",
        "hq:k=2,l=0,n=3",
        "qk:k=3,n=7",
        "sk:k=3,n=5",
        "knorm:k=2,n=3",
        "kconv:k=2,n=4",
    ]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_homogeneity(f: CurvatureFunction, samples: int = 100, seed: int = 0) -> dict:
    """Max relative defect of gamma(c x, c y) = c^alpha gamma(x, y) over samples."""
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    a = f.alpha_float
    scales = [0.5, 2.0, 3.0]
    worst = 0.0
    skipped = 0
    tested = 0
    for _ in range(samples):
        try:
            x, y = f.sample_cone_point(rng)
        except DomainError:
            skipped += 1
            continue
        base = f.value(x, y)
        for c in scales:
            if not f.cone_contains(c * x, c * y):
                skipped += 1
                continue
            lhs = f.value(c * x, c * y)
            defect = abs(lhs - c**a * base) / max(1.0, abs(base))
            worst = max(worst, defect)
            tested += 1
        if f.is_signed:
            for c in (-0.5, -2.0):
                try:
                    lhs = f.value(c * x, c * y)
                except DomainError:
                    skipped += 1
                    continue
                sign = -1.0  # odd p, q: c^alpha < 0 for c < 0
                defect = abs(lhs - sign * abs(c) ** a * base) / max(1.0, abs(base))
                worst = max(worst, defect)
                tested += 1
    return {"max_defect": worst, "tested": tested, "skipped": skipped}


def zero_ray(f: CurvatureFunction) -> tuple:
    """The unit zero-ray point (x0, y0) of a signed function."""
    from .errors import StructureError

    if f.zero_ray is None:
        raise UnsupportedError(f"{f.name} is not signed")
    x0, y0 = f.zero_ray
    v = f.value(x0, y0)
    gx, _ = f.grad(x0, y0)
    if abs(v) > 1e-10 or gx <= 0 or x0 / y0 >= 0:
        raise StructureError(f"{f.name}: stored zero ray invalid (value={v}, gx={gx})")
    return x0, y0
