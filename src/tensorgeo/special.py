"""Gamma values at half-integers, sphere/ball constants, and the two
continuation rules used by the coefficient formulas.

Every Gamma argument that occurs in the coefficient algebra is a positive
half-integer, so Gamma values are assembled from exact integer factorials
and double factorials times sqrt(pi).  Quotients whose naive evaluation
would hit a pole of Gamma are routed through `gamma_ratio_continued` /
`factorial_ratio_continued` instead of ever evaluating Gamma at a
nonpositive argument.
"""

import functools
import math
from fractions import Fraction

__all__ = [
    "gamma_half",
    "gamma_ratio_continued",
    "factorial_ratio_continued",
    "omega",
    "kappa_ball",
]

SQRT_PI = math.sqrt(math.pi)


def _as_half_integer(x):
    """Return 2*x as an int, or None if x is not a half-integer."""
    two_x = Fraction(x).limit_denominator(10 ** 6) * 2
    if two_x.denominator != 1:
        return None
    if abs(float(two_x) - 2.0 * float(x)) > 1e-12 * max(1.0, abs(float(x))):
        return None
    return int(two_x)


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


def _gamma_half_signed(x):
    """Gamma(x) for any half-integer x that is not a nonpositive integer.

    Negative odd half-integers are reached through the recurrence
    Gamma(x) = Gamma(x + k) / (x (x+1) ... (x+k-1)).
    """
    two_x = _as_half_integer(x)
    if two_x is None:
        raise ValueError(f"expected a half-integer, got {x!r}")
    if two_x > 0:
        return gamma_half(two_x / 2.0)
    if two_x % 2 == 0:
        raise ValueError(f"Gamma pole at {x!r}")
    val = x
    prod = 1.0
    while val < 0.5:
        prod *= val
        val += 1.0
    return gamma_half(val) / prod


def gamma_ratio_continued(c, m):
    """Gamma(-c + m) / Gamma(-c) interpreted through its continuation.

    For c >= 0 a half-integer and m a nonnegative integer, returns
    (-1)^m Gamma(c + 1) / Gamma(c - m + 1), where 1/Gamma at a pole is
    taken as 0.  In particular c = 0 gives the indicator of m = 0.
    """
    if m < 0 or int(m) != m:
        raise ValueError(f"m must be a nonnegative integer, got {m!r}")
    two_c = _as_half_integer(c)
    if two_c is None or two_c < 0:
        raise ValueError(f"c must be a nonnegative half-integer, got {c!r}")
    m = int(m)
    sign = -1.0 if m % 2 else 1.0
    if two_c % 2 == 0:
        ci = two_c // 2
        if ci < m:  # 1/Gamma(c - m + 1) vanishes at the pole
            return 0.0
        return sign * math.factorial(ci) / math.factorial(ci - m)
    return sign * gamma_half(c + 1.0) / _gamma_half_signed(c - m + 1.0)


def factorial_ratio_continued(l, i):
    """(i + l - 2)! / (l - 2)!, continued to l in {0, 1}.

    For l >= 2 this is the plain (exact) factorial ratio.  The boundary
    cases follow from Gamma(i + l - 1)/Gamma(l - 1) with the pole
    continuation: l = 1 gives the indicator of i = 0, and l = 0 gives
    1, -1, 0 for i = 0, 1, >= 2.
    """
    if l < 0 or i < 0 or int(l) != l or int(i) != i:
        raise ValueError(f"l, i must be nonnegative integers, got {l!r}, {i!r}")
    l, i = int(l), int(i)
    if l >= 2:
        return float(math.factorial(i + l - 2) // math.factorial(l - 2))
    # Gamma(i + l - 1)/Gamma(l - 1) = Gamma(-c + i)/Gamma(-c) with c = 1 - l
    return gamma_ratio_continued(1 - l, i)


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
