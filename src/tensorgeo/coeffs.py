"""Closed-form coefficients of the Crofton and kinematic formulae.

All Gamma arguments are positive half-integers.  The quotients that meet a
pole of Gamma at the boundaries k = n, k = j and l in {0, 1} are rising
factorials (a)_m (`special.rising`), so each coefficient is one formula
that holds at its boundaries too.  The specialised families iota,
lambda, kappa and the k = 1 coefficient are implemented independently
of `d_coeff` so that their defining identities are genuine cross-checks.
"""

import math

from .special import gamma_half, omega, rising

__all__ = [
    "alpha",
    "c_norm",
    "d_coeff",
    "thm31_coeff",
    "iota",
    "lambda_coeff",
    "kappa_coeff",
    "cor38_coeff",
]


def _check_int(**kwargs):
    for name, v in kwargs.items():
        if int(v) != v:
            raise ValueError(f"{name} must be an integer, got {v!r}")


def alpha(n, j, k):
    """Coefficient of the classical Crofton formula."""
    _check_int(n=n, j=j, k=k)
    if not 0 <= j <= k <= n:
        raise ValueError(f"need 0 <= j <= k <= n, got {(n, j, k)}")
    return (
        gamma_half((n - k + j + 1) / 2) * gamma_half((k + 1) / 2)
        / (gamma_half((n + 1) / 2) * gamma_half((j + 1) / 2))
    )


def c_norm(n, j, r, s, l):
    """Normalizing constant of the generalized tensorial curvature measure."""
    _check_int(n=n, j=j, r=r, s=s, l=l)
    if not 0 <= j <= n or r < 0 or s < 0 or l < 0:
        raise ValueError(f"bad index {(n, j, r, s, l)}")
    if j == n:
        if s != 0:
            raise ValueError("j = n requires s = 0")
        return omega(n + 2 * l) / omega(n) / math.factorial(r)
    if j == 0:
        if l >= 1:
            return 1.0
        return omega(n) / omega(n + s) / (math.factorial(r) * math.factorial(s))
    return (
        omega(n - j) / omega(n - j + s)
        * omega(j + 2 * l) / omega(j)
        / (math.factorial(r) * math.factorial(s))
    )


def thm31_coeff(n, k, s):
    """Right-hand-side coefficient of the j = k Crofton formula,
    ((n-k)/2)_{s/2} / ((2 pi)^s (s/2)!), and 0 for odd s; at k = n it is
    the indicator of s = 0."""
    _check_int(n=n, k=k, s=s)
    if not 0 <= k <= n or s < 0:
        raise ValueError(f"need 0 <= k <= n and s >= 0, got {(n, k, s)}")
    if s % 2 == 1:
        return 0.0
    return rising((n - k) / 2, s // 2) / ((2 * math.pi) ** s * math.factorial(s // 2))


def d_coeff(n, j, k, s, l, i, m):
    """Coefficient d_{n,j,k}^{s,l,i,m} of the general j < k Crofton formula.

    k = n collapses to the indicator of i = m = 0 (tautological case; the
    general formula gives it too, up to rounding, as ((n-k)/2)_m = (0)_m),
    and k = j is `thm31_coeff` at i = m = s/2 and 0 otherwise: the
    redefined value that absorbs the vanishing of the top-degree volume
    tensors in the kinematic formula.
    """
    _check_int(n=n, j=j, k=k, s=s, l=l, i=i, m=m)
    if not 0 <= j <= k <= n:
        raise ValueError(f"need 0 <= j <= k <= n, got {(n, j, k)}")
    if s < 0 or l < 0 or i < 0 or not 0 <= m <= s // 2:
        raise ValueError(f"need s, l, i >= 0 and 0 <= m <= floor(s/2), got {(s, l, i, m)}")
    if i > m:
        return 0.0  # binom(m, i) vanishes
    if k == j:
        return thm31_coeff(n, j, s) if i == m == s / 2 else 0.0
    if k == n:
        return 1.0 if (i == 0 and m == 0) else 0.0
    sign = -1.0 if i % 2 else 1.0
    # + 0.0 prints a vanishing (l-1)_i (l <= 1 < i + l) as 0.0, never -0.0
    return 0.0 + (
        sign / ((4 * math.pi) ** m * math.factorial(m))
        * math.comb(m, i) / math.pi ** i
        * rising(l - 1, i)
        * alpha(n, j, k)
        * gamma_half((n - k + j) / 2 + 1) / gamma_half((n - k + j + s) / 2 + 1)
        * gamma_half((j + s) / 2 - m + 1) / gamma_half(j / 2 + 1)
        * rising((n - k) / 2, m)
    )


def iota(n, k, s, m):
    """Coefficient of the j = k - 1, l = 1 Crofton formula."""
    _check_int(n=n, k=k, s=s, m=m)
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got {(n, k)}")
    if s < 0 or not 0 <= m <= s // 2:
        raise ValueError(f"need s >= 0 and 0 <= m <= floor(s/2), got s={s} m={m}")
    return (
        1.0 / ((4 * math.pi) ** m * math.factorial(m))
        * gamma_half(n / 2) * gamma_half((k + s + 1) / 2 - m) * gamma_half((n - k) / 2 + m)
        / (gamma_half((n + s + 1) / 2) * gamma_half(k / 2) * gamma_half((n - k) / 2))
    )


def lambda_coeff(n, k, s, m):
    """Coefficient of the transformed j = k - 1, l = 1 formula, in which only
    l = 0 measures appear on the right-hand side; m runs to floor(s/2) + 1."""
    _check_int(n=n, k=k, s=s, m=m)
    if not 1 < k < n:
        raise ValueError(f"need 1 < k < n, got {(n, k)}")
    if s < 0 or not 0 <= m <= s // 2 + 1:
        raise ValueError(f"need s >= 0 and 0 <= m <= floor(s/2) + 1, got s={s} m={m}")
    if m == 0:
        return (
            -4 * math.pi ** 2 * (s + 2) / (n - 1)
            * gamma_half(n / 2) * gamma_half((k + s + 1) / 2)
            / (gamma_half((n + s + 1) / 2) * gamma_half(k / 2))
        )
    if m == s // 2 + 1:
        h = s // 2
        return (
            2 * math.pi / ((n - 1) * (4 * math.pi) ** h * math.factorial(h))
            * gamma_half(n / 2) * gamma_half((k + s + 1) / 2 - h) * gamma_half((n - k) / 2 + h)
            / (gamma_half((n + s + 1) / 2) * gamma_half(k / 2) * gamma_half((n - k) / 2))
        )
    bracket = 2 * m * ((k + s + 1) / 2 - m) - (s - 2 * m + 2) * ((n - k) / 2 + m - 1)
    return (
        math.pi / ((n - 1) * (4 * math.pi) ** (m - 1) * math.factorial(m))
        * gamma_half(n / 2) * gamma_half((k + s + 1) / 2 - m) * gamma_half((n - k) / 2 + m - 1)
        / (gamma_half((n + s + 1) / 2) * gamma_half(k / 2) * gamma_half((n - k) / 2))
        * bracket
    )


def kappa_coeff(n, k, s, m):
    """Coefficient of the j = k - 1, l = 0 Crofton formula.  The value at
    m = (s - 1)/2 (odd s) has its own closed form; all other m share one
    expression, which vanishes identically for k = 1."""
    _check_int(n=n, k=k, s=s, m=m)
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got {(n, k)}")
    if s < 0 or not 0 <= m <= s // 2:
        raise ValueError(f"need s >= 0 and 0 <= m <= floor(s/2), got s={s} m={m}")
    if s % 2 == 1 and m == (s - 1) // 2:
        h = (s - 1) // 2
        return (
            k * (n + s - 2) / (2 * (n - 1))
            / ((4 * math.pi) ** h * math.factorial(h))
            * gamma_half(n / 2) * gamma_half((n - k + s - 1) / 2)
            / (gamma_half((n + s + 1) / 2) * gamma_half((n - k) / 2))
        )
    if m == s // 2:
        # top index before simplification; agrees with the generic form for
        # k > 1 and stays finite at k = 1 (where the generic form is 0 * pole)
        return (
            (1 + 2 * m / (n - 1))
            / ((4 * math.pi) ** m * math.factorial(m))
            * gamma_half(n / 2) * gamma_half((k + s + 1) / 2 - m) * gamma_half((n - k) / 2 + m)
            / (gamma_half((n + s + 1) / 2) * gamma_half(k / 2) * gamma_half((n - k) / 2))
        )
    return (
        (k - 1) / (n - 1)
        / ((4 * math.pi) ** m * math.factorial(m))
        * gamma_half(n / 2) * gamma_half((k + s - 1) / 2 - m) * gamma_half((n - k) / 2 + m)
        / (gamma_half((n + s - 1) / 2) * gamma_half(k / 2) * gamma_half((n - k) / 2))
    )


def cor38_coeff(n, s):
    """Single coefficient of the k = 1, j = 0, l = 0 Crofton formula."""
    _check_int(n=n, s=s)
    if n < 2 or s < 0:
        raise ValueError(f"need n >= 2, s >= 0, got {(n, s)}")
    h = s // 2
    return (
        gamma_half(s / 2 - h + 1)
        / (math.sqrt(math.pi) * (4 * math.pi) ** h * math.factorial(h))
        * gamma_half(n / 2) * gamma_half((n + 1) / 2 + h)
        / (gamma_half((n + 1) / 2) * gamma_half((n + s + 1) / 2))
    )
