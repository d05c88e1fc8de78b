"""Gamma values at half-integers, rising factorials, and sphere/ball
constants.

Every Gamma argument that occurs in the coefficient algebra is a positive
half-integer, so Gamma values are assembled from exact integer factorials
and double factorials times sqrt(pi).  The quotients Gamma(a + m) / Gamma(a)
that can meet a pole of Gamma(a) (a = (n - k)/2 at k = n, a = l - 1 at
l in {0, 1}) are rising factorials (a)_m = a (a+1) ... (a+m-1): off the
poles the two agree, and at a nonpositive integer a the product is the
continued value the coefficients take, so (0)_m is the indicator of m = 0
and (-1)_m is 1, -1, 0 for m = 0, 1, >= 2.
"""

import functools
import math

__all__ = ["gamma_half", "rising", "omega", "kappa_ball"]

SQRT_PI = math.sqrt(math.pi)


def _as_half_integer(x):
    """Return 2*x as an int, or None if x is not a half-integer."""
    two_x = float(2 * x)
    return int(two_x) if two_x.is_integer() else None


@functools.lru_cache(maxsize=None)
def gamma_half(x):
    """Gamma(x) for a positive half-integer x, evaluated exactly.

    Integer x gives (x-1)!; odd half-integer x = k + 1/2 gives
    (2k)! / (4^k k!) * sqrt(pi).  Raises ValueError otherwise, on every call.
    """
    two_x = _as_half_integer(x)
    if two_x is None or two_x <= 0:
        raise ValueError(f"gamma_half requires a positive half-integer, got {x!r}")
    if two_x % 2 == 0:
        return float(math.factorial(two_x // 2 - 1))
    k = (two_x - 1) // 2  # x = k + 1/2
    return math.factorial(2 * k) / (4 ** k * math.factorial(k)) * SQRT_PI


def rising(a, m):
    """The rising factorial (a)_m = a (a+1) ... (a+m-1), with (a)_0 = 1:
    Gamma(a + m) / Gamma(a), continued to the poles of Gamma(a)."""
    if m < 0 or int(m) != m:
        raise ValueError(f"m must be a nonnegative integer, got {m!r}")
    return math.prod((a + t for t in range(int(m))), start=1.0)


def omega(d):
    """Surface measure of the unit sphere in R^d (d >= 1)."""
    if d < 1 or int(d) != d:
        raise ValueError(f"omega requires an integer d >= 1, got {d!r}")
    d = int(d)
    return 2.0 * math.pi ** (d / 2.0) / gamma_half(d / 2.0)


def kappa_ball(d):
    """Volume of the unit ball in R^d (d >= 0); kappa_0 = 1."""
    if d < 0 or int(d) != d:
        raise ValueError(f"kappa_ball requires an integer d >= 0, got {d!r}")
    d = int(d)
    if d == 0:
        return 1.0
    return math.pi ** (d / 2.0) / gamma_half(d / 2.0 + 1.0)
