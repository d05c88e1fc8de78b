import math

import numpy as np
import pytest
from scipy.special import gamma as sc_gamma, poch

from tensorgeo.special import gamma_half, kappa_ball, omega, rising


class TestGammaHalf:
    @pytest.mark.parametrize("x", [0.5, 1, 1.5, 2, 2.5, 3, 7, 7.5, 15])
    def test_matches_scipy(self, x):
        assert gamma_half(x) == pytest.approx(sc_gamma(x), rel=1e-13)

    def test_classic_values(self):
        assert gamma_half(0.5) == pytest.approx(math.sqrt(math.pi))
        assert gamma_half(1) == 1.0
        assert gamma_half(5) == 24.0

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError):
            gamma_half(0)
        with pytest.raises(ValueError):
            gamma_half(-0.5)
        with pytest.raises(ValueError):
            gamma_half(-2)

    def test_non_half_integer_raises(self):
        with pytest.raises(ValueError):
            gamma_half(0.3)


class TestGammaRatioContinued:
    """The continued value of Gamma(-c+m)/Gamma(-c), c >= 0 a half-integer,
    is the rising factorial (-c)_m: (-1)^m Gamma(c+1)/Gamma(c-m+1), where
    1/Gamma at a pole is 0."""

    def test_half_odd_matches_scipy(self):
        # no pole is involved for half-odd c: compare against direct Gamma
        for c in (0.5, 1.5, 2.5):
            for m in range(5):
                expected = sc_gamma(-c + m) / sc_gamma(-c)
                assert rising(-c, m) == pytest.approx(expected, rel=1e-11), (c, m)

    def test_integer_c_below_m_vanishes(self):
        # 1 / Gamma at a nonpositive integer is zero, so the ratio vanishes
        assert rising(0, 1) == 0.0
        assert rising(-1, 2) == 0.0
        assert rising(-2, 5) == 0.0

    def test_integer_c_at_or_above_m(self):
        # (-1)^m Gamma(c+1)/Gamma(c-m+1)
        assert rising(-1, 1) == -1.0
        assert rising(-3, 2) == 6.0
        assert rising(-2, 1) == -2.0

    def test_m_zero_is_one(self):
        assert rising(0, 0) == 1.0
        assert rising(-2.5, 0) == 1.0


class TestFactorialRatioContinued:
    """(i + l - 2)! / (l - 2)! = Gamma(i + l - 1)/Gamma(l - 1) is the rising
    factorial (l - 1)_i, which continues it to l in {0, 1}."""

    def test_generic(self):
        assert rising(3 - 1, 2) == math.factorial(3) / math.factorial(1)
        assert rising(4 - 1, 0) == 1.0

    def test_l_one(self):
        assert rising(0, 0) == 1.0
        assert rising(0, 1) == 0.0
        assert rising(0, 2) == 0.0

    def test_l_zero(self):
        assert rising(-1, 0) == 1.0
        assert rising(-1, 1) == -1.0
        assert rising(-1, 2) == 0.0
        assert rising(-1, 5) == 0.0


class TestRising:
    def test_matches_scipy_poch(self):
        for a in (0.5, 1, 1.5, 2, 3.5, 7):
            for m in range(8):
                assert rising(a, m) == pytest.approx(poch(a, m), rel=1e-14), (a, m)

    @pytest.mark.parametrize("m", [-1, 1.5])
    def test_bad_m_raises(self, m):
        with pytest.raises(ValueError):
            rising(1.5, m)


class TestOmegaKappa:
    @pytest.mark.parametrize("d,expected", [
        (1, 2.0),
        (2, 2 * math.pi),
        (3, 4 * math.pi),
        (4, 2 * math.pi ** 2),
    ])
    def test_sphere_areas(self, d, expected):
        assert omega(d) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("d,expected", [
        (0, 1.0),
        (1, 2.0),
        (2, math.pi),
        (3, 4 * math.pi / 3),
    ])
    def test_ball_volumes(self, d, expected):
        assert kappa_ball(d) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("call", [lambda: omega(0), lambda: omega(1.5),
                                      lambda: kappa_ball(-1), lambda: kappa_ball(0.5)],
                             ids=["omega-0", "omega-fraction", "kappa-negative", "kappa-fraction"])
    def test_dimension_out_of_range(self, call):
        with pytest.raises(ValueError, match="integer d"):
            call()

    def test_omega_kappa_relation(self):
        for d in range(1, 8):
            assert omega(d) == pytest.approx(d * kappa_ball(d), rel=1e-13)
