"""Coefficient tables against an independent quadrature oracle and the
closed-form identities that link the coefficient families."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma, poch

from tensorgeo.coeffs import (
    alpha,
    c_norm,
    cor38_coeff,
    d_coeff,
    iota,
    kappa_coeff,
    lambda_coeff,
    thm31_coeff,
)
from tensorgeo.special import gamma_half, omega


def gamma_quad(x):
    """Gamma by brute-force numerical quadrature (positive arguments)."""
    assert x > 0
    val, _ = quad(lambda t: t ** (x - 1) * math.exp(-t), 0, 80, limit=200)
    return val


def d_oracle(n, j, k, s, l, i, m):
    """d re-derived from the Gamma product with quadrature Gammas; only for
    parameter combinations where every Gamma argument is positive and
    l >= 2 (no continuation involved)."""
    assert 0 < j < k < n and l >= 2
    fr = math.factorial(i + l - 2) / math.factorial(l - 2)
    al = (gamma_quad((n - k + j + 1) / 2) * gamma_quad((k + 1) / 2)
          / (gamma_quad((n + 1) / 2) * gamma_quad((j + 1) / 2)))
    return ((-1) ** i / ((4 * math.pi) ** m * math.factorial(m))
            * math.comb(m, i) / math.pi ** i * fr * al
            * gamma_quad((n - k + j) / 2 + 1) / gamma_quad((n - k + j + s) / 2 + 1)
            * gamma_quad((j + s) / 2 - m + 1) / gamma_quad(j / 2 + 1)
            * gamma_quad((n - k) / 2 + m) / gamma_quad((n - k) / 2))


def thm31_poch_oracle(n, k, s):
    """Theorem 3.1's coefficient Gamma((n-k+s)/2) / (Gamma((n-k)/2) (2 pi)^s
    (s/2)!) with scipy's Pochhammer symbol for the Gamma quotient, which
    meets the pole Gamma(0) at k = n; 0 for odd s."""
    if s % 2:
        return 0.0
    return poch((n - k) / 2, s // 2) / ((2 * math.pi) ** s * math.factorial(s // 2))


def d_poch_oracle(n, j, k, s, l, i, m):
    """d from the paper's Gamma product, with scipy's Gamma and Pochhammer
    symbol: (l-1)_i and ((n-k)/2)_m are the two quotients that meet a pole
    (at l in {0, 1} and at k = n), and every other Gamma argument is
    positive.  k = j takes the redefined value, Theorem 3.1's coefficient
    at i = m = s/2 and 0 otherwise."""
    if i > m:
        return 0.0
    if k == j:
        return thm31_poch_oracle(n, j, s) if 2 * i == 2 * m == s else 0.0
    al = (gamma((n - k + j + 1) / 2) * gamma((k + 1) / 2)
          / (gamma((n + 1) / 2) * gamma((j + 1) / 2)))
    return ((-1) ** i / ((4 * math.pi) ** m * math.factorial(m))
            * math.comb(m, i) / math.pi ** i * poch(l - 1, i) * al
            * gamma((n - k + j) / 2 + 1) / gamma((n - k + j + s) / 2 + 1)
            * gamma((j + s) / 2 - m + 1) / gamma(j / 2 + 1)
            * poch((n - k) / 2, m))


def assert_matches_oracle(value, expected, case):
    """Within 1e-12 relative; an oracle value of exactly 0 (as +0.0, which
    the CLI prints as 0.0), or 1 up to its rounding, must come out exactly."""
    if expected == 0.0:
        assert value == 0.0 and math.copysign(1.0, value) == 1.0, case
    elif expected == pytest.approx(1.0, rel=1e-12):
        assert value == 1.0, case
    else:
        assert value == pytest.approx(expected, rel=1e-12), case


class TestBoundariesAgainstPochhammerOracle:
    """Every boundary of the coefficients: k = n, k = j (j < n and j = n)
    and l in {0, 1}, for n <= 6 and s <= 8."""

    def test_d_values(self):
        count = 0
        for n in range(1, 7):
            for k in range(n + 1):
                for j in range(k + 1):
                    for s in range(9):
                        for l in (0, 1, 2):
                            for m in range(s // 2 + 1):
                                for i in range(m + 2):
                                    case = (n, j, k, s, l, i, m)
                                    assert_matches_oracle(d_coeff(*case), d_poch_oracle(*case),
                                                          case)
                                    count += 1
        assert count > 10000

    def test_thm31_values(self):
        for n in range(1, 7):
            for k in range(n + 1):
                for s in range(9):
                    assert_matches_oracle(thm31_coeff(n, k, s), thm31_poch_oracle(n, k, s),
                                          (n, k, s))


class TestInputChecks:
    @pytest.mark.parametrize("call", [
        lambda: d_coeff(3, 1, 2, 2, -1, 1, 0),      # rejected before the i > m zero
        lambda: d_coeff(3, 1, 2, -2, 0, 0, 0),
        lambda: thm31_coeff(3, 1, -2),
        lambda: thm31_coeff(3, 1, -1),
        lambda: iota(3, 2, -1, 0),
        lambda: lambda_coeff(4, 2, -2, 0),          # its (s + 2) factor vanishes
        lambda: kappa_coeff(3, 2, -2, 0)],
        ids=["d-l", "d-s", "thm31-even-s", "thm31-odd-s", "iota-s", "lambda-s", "kappa-s"])
    def test_negative_s_or_l_raises(self, call):
        with pytest.raises(ValueError, match="s >= 0|l, i >= 0"):
            call()

    @pytest.mark.parametrize("call, message", [
        (lambda: alpha(3, 2, 1), "0 <= j <= k <= n"),
        (lambda: alpha(3, 1.5, 2), "j must be an integer"),
        (lambda: c_norm(3, 4, 0, 0, 0), "bad index"),
        (lambda: c_norm(3, 1, -1, 0, 0), "bad index"),
        (lambda: c_norm(3, 3, 0, 1, 0), "j = n requires s = 0"),
        (lambda: c_norm(3, 1, 0, 0, 0.5), "l must be an integer"),
        (lambda: iota(3, 3, 0, 0), "0 < k < n"),
        (lambda: iota(3, 1, 2, 2), "0 <= m"),
        (lambda: lambda_coeff(3, 1, 0, 0), "1 < k < n"),
        (lambda: lambda_coeff(4, 2, 2, 3), "0 <= m"),
        (lambda: kappa_coeff(3, 3, 0, 0), "1 <= k < n"),
        (lambda: kappa_coeff(3, 1, 2, 2), "0 <= m"),
        (lambda: cor38_coeff(1, 0), "n >= 2"),
        (lambda: cor38_coeff(3, 0.5), "s must be an integer")],
        ids=["alpha-range", "alpha-integer", "c-norm-j", "c-norm-r", "c-norm-top-s",
             "c-norm-integer", "iota-k", "iota-m", "lambda-k", "lambda-m", "kappa-k",
             "kappa-m", "cor38-n", "cor38-integer"])
    def test_range_and_integer_errors(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestAgainstQuadratureOracle:
    def test_d_values(self):
        cases = []
        for (n, j, k) in [(3, 1, 2), (4, 1, 2), (4, 2, 3), (4, 1, 3), (5, 2, 4)]:
            for s in (0, 1, 2, 3, 4):
                for l in (2, 3):
                    for m in range(s // 2 + 1):
                        for i in range(m + 1):
                            if (j + s) / 2 - m + 1 <= 0:
                                continue
                            cases.append((n, j, k, s, l, i, m))
        assert len(cases) > 50
        for case in cases:
            assert d_coeff(*case) == pytest.approx(d_oracle(*case), rel=1e-9), case

    def test_alpha_values(self):
        for n in range(2, 7):
            for k in range(n + 1):
                for j in range(k + 1):
                    expected = (gamma_quad((n - k + j + 1) / 2) * gamma_quad((k + 1) / 2)
                                / (gamma_quad((n + 1) / 2) * gamma_quad((j + 1) / 2)))
                    assert alpha(n, j, k) == pytest.approx(expected, rel=1e-9)


class TestStructuralIdentities:
    def test_s_zero_reduces_to_alpha(self):
        # single surviving term (m = i = 0) equals the classical coefficient
        for n in range(2, 7):
            for k in range(1, n):
                for j in range(k):
                    for l in (0, 1, 2):
                        assert d_coeff(n, j, k, 0, l, 0, 0) == pytest.approx(
                            alpha(n, j, k), rel=1e-12)

    def test_iota_is_d_with_l_one(self):
        for n in range(3, 7):
            for k in range(2, n):
                for s in range(7):
                    for m in range(s // 2 + 1):
                        assert iota(n, k, s, m) == pytest.approx(
                            d_coeff(n, k - 1, k, s, 1, 0, m), rel=1e-12)

    def test_l_one_truncates_i_sum(self):
        # only i = 0 survives at l = 1
        for n in range(3, 7):
            for k in range(2, n):
                for s in (2, 3, 4):
                    for m in range(s // 2 + 1):
                        for i in range(1, m + 1):
                            assert d_coeff(n, k - 1, k, s, 1, i, m) == 0.0

    def test_l_zero_truncates_i_sum_at_two(self):
        for n in range(3, 7):
            for k in range(2, n):
                for s in (4, 6):
                    for m in range(2, s // 2 + 1):
                        for i in range(2, m + 1):
                            assert d_coeff(n, k - 1, k, s, 0, i, m) == 0.0

    def test_kappa_matches_d_recombination(self):
        # eliminating the l = 1 measures from the (j = k-1, l = 0) expansion
        # via the metric relation phi^{s',1} = (2 pi/(n-1))(Q phi^{s',0}
        # - 2 pi (s'+2) phi^{s'+2,0}) must reproduce kappa:
        #   kappa_m = d^{s,0,0,m}
        #           + (2 pi/(n-1)) [d^{s,0,1,m} - 2 pi (s - 2m) d^{s,0,1,m+1}]
        def d01(n, k, s, m):
            if m < 0 or m > s // 2:
                return 0.0
            return d_coeff(n, k - 1, k, s, 0, 1, m)

        for n in range(2, 7):
            for k in range(1, n):
                for s in range(0, 8):
                    for m in range(s // 2 + 1):
                        expected = (d_coeff(n, k - 1, k, s, 0, 0, m)
                                    + 2 * math.pi / (n - 1)
                                    * (d01(n, k, s, m)
                                       - 2 * math.pi * (s - 2 * m) * d01(n, k, s, m + 1)))
                        assert kappa_coeff(n, k, s, m) == pytest.approx(
                            expected, rel=1e-11, abs=1e-13), (n, k, s, m)

    def test_kappa_k_one_vanishes_except_top(self):
        # kappa_{n,1}^{s,m} = 0 for m < floor(s/2) except the odd-s special slot
        for n in range(2, 7):
            for s in range(0, 8):
                for m in range(s // 2):
                    if s % 2 == 1 and m == (s - 1) // 2:
                        continue
                    assert kappa_coeff(n, 1, s, m) == pytest.approx(0.0, abs=1e-15)

    def test_cor38_equals_kappa_top(self):
        # the k = 1 formula keeps a single term; it must equal the surviving
        # kappa value (top slot for even s, special slot for odd s)
        for n in range(2, 7):
            for s in range(0, 8):
                if s % 2 == 0:
                    surviving = kappa_coeff(n, 1, s, s // 2)
                else:
                    surviving = kappa_coeff(n, 1, s, (s - 1) // 2)
                assert cor38_coeff(n, s) == pytest.approx(surviving, rel=1e-12), (n, s)

    def test_negative_metric_power_coefficient_vanishes(self):
        # the only term that would need Q^{-1} is (i, m) = (1, 0); its
        # binomial factor kills it for every l, so the assembled right-hand
        # sides never contain a negative metric power
        for n in range(3, 7):
            for k in range(2, n):
                for j in range(k):
                    for s in (2, 4):
                        for l in (0, 1, 2):
                            assert d_coeff(n, j, k, s, l, 1, 0) == 0.0

    def test_k_equals_n_collapses(self):
        for j in range(0, 3):
            assert d_coeff(4, j, 4, 4, 0, 0, 0) == 1.0
            assert d_coeff(4, j, 4, 4, 0, 1, 1) == 0.0
            assert d_coeff(4, j, 4, 4, 0, 0, 2) == 0.0

    def test_k_equals_j_redefinition_matches_thm31(self):
        # d_coeff takes its k = j values from thm31_coeff, so both are
        # compared with the scipy oracle of Theorem 3.1's coefficient
        for n in range(2, 6):
            for j in range(1, n):
                for s in (0, 2, 4):
                    expected = thm31_poch_oracle(n, j, s)
                    assert d_coeff(n, j, j, s, 0, s // 2, s // 2) == pytest.approx(
                        expected, rel=1e-12)
                    assert thm31_coeff(n, j, s) == pytest.approx(expected, rel=1e-12)
                for s in (1, 3):
                    assert d_coeff(n, j, j, s, 0, s // 2, s // 2) == 0.0

    def test_nonnegativity_low_l(self):
        # for l in {0, 1} the (-1)^i sign cancels against the continued
        # factorial ratio, so every d-value is nonnegative
        for n in range(3, 7):
            for k in range(2, n):
                for j in range(1, k):
                    for s in range(0, 9):
                        for l in (0, 1):
                            for m in range(s // 2 + 1):
                                for i in range(m + 1):
                                    assert d_coeff(n, j, k, s, l, i, m) >= -1e-15


class TestLambda:
    def test_lambda_matches_iota_transformation(self):
        # applying the metric relation to every l = 1 measure in the iota
        # expansion gives the l = 0 expansion; matching powers of Q:
        #   lambda_m = (2 pi/(n-1)) [iota_{m-1} - 2 pi (s - 2m + 2) iota_m]
        # (out-of-range iota terms are zero)
        def iota0(n, k, s, m):
            if m < 0 or m > s // 2:
                return 0.0
            return iota(n, k, s, m)

        for n in range(3, 7):
            for k in range(2, n):
                for s in range(0, 7):
                    for m in range(s // 2 + 2):
                        expected = 2 * math.pi / (n - 1) * (
                            iota0(n, k, s, m - 1)
                            - 2 * math.pi * (s - 2 * m + 2) * iota0(n, k, s, m))
                        assert lambda_coeff(n, k, s, m) == pytest.approx(
                            expected, rel=1e-11, abs=1e-13), (n, k, s, m)

    def test_lambda_finite_grid(self):
        for n in range(3, 7):
            for k in range(2, n):
                for s in range(0, 7):
                    for m in range(s // 2 + 2):
                        assert np.isfinite(lambda_coeff(n, k, s, m))


class TestCNorm:
    def test_middle_range(self):
        # 0 < j < n: (1/(r! s!)) (omega_{n-j}/omega_{n-j+s}) (omega_{j+2l}/omega_j)
        assert c_norm(3, 1, 0, 2, 0) == pytest.approx(
            0.5 * omega(2) / omega(4) * omega(1) / omega(1), rel=1e-14)

    def test_top(self):
        assert c_norm(3, 3, 0, 0, 0) == 1.0
        assert c_norm(3, 3, 2, 0, 1) == pytest.approx(
            omega(5) / omega(3) / 2, rel=1e-14)

    def test_bottom(self):
        assert c_norm(3, 0, 0, 0, 0) == 1.0
        assert c_norm(3, 0, 0, 2, 0) == pytest.approx(omega(3) / omega(5) / 2, rel=1e-14)
        assert c_norm(3, 0, 0, 2, 1) == 1.0

    def test_top_requires_s_zero(self):
        with pytest.raises(ValueError):
            c_norm(3, 3, 0, 2, 0)


class TestGammaHalfCache:
    def test_values_are_cached_and_bad_arguments_raise_every_time(self):
        assert gamma_half(4.5) == gamma_half(9 / 2) == gamma_half(4.5)
        hits = gamma_half.cache_info().hits
        gamma_half(4.5)
        assert gamma_half.cache_info().hits == hits + 1
        for bad in (0, -0.5, 0.3, 0.3):
            with pytest.raises(ValueError):
                gamma_half(bad)
