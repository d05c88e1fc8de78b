import itertools
import math
from unittest import mock

import numpy as np
import pytest

from tensorgeo.coeffs import (alpha, c_norm, cor38_coeff, d_coeff, iota, kappa_coeff,
                              lambda_coeff, thm31_coeff)
from tensorgeo.conemoment import _arc_ends, _arc_moment
import tensorgeo.flats as flats_module
import tensorgeo.verify as verify_module
from tensorgeo.flats import random_rotation, sample_flats_hitting, sample_motions_coupling
from tensorgeo.measures import curvature_measure, tcm
from tensorgeo.polytope import (EmptyPolytopeError, GeometryError, GrazingIntersectionError,
                                Polytope, Region, builtin_polytope, cross_polytope, cube,
                                intersect_flat, random_polytope, simplex, triangulate)
from tensorgeo.rng import purpose_key, stream
from tensorgeo.special import omega
from tensorgeo.symtensor import SymTensor, metric_tensor, multi_degrees, vector_power
from tensorgeo.verify import (
    crofton_lhs,
    crofton_rhs,
    crofton_verify,
    independence_indices,
    independence_rank,
    kinematic_lhs,
    kinematic_rhs,
    kinematic_verify,
    steiner_check,
)

from test_conemoment import _lune_per_integral, _product_cone_moment


class TestCroftonRhsStructure:
    def test_scalar_case_reduces_to_alpha(self):
        # r = s = l = 0, j < k: single term alpha * C_{n-k+j}
        P = cube(3)
        for k in (1, 2):
            for j in range(k):
                rhs, err = crofton_rhs(P, k, j)
                expected = alpha(3, j, k) * curvature_measure(P, 3 - k + j)
                assert rhs.value() == pytest.approx(expected, rel=1e-12)
                assert err.coeffs == {}

    def test_j_equals_k_odd_s_is_zero(self):
        rhs, _ = crofton_rhs(cube(2), 1, 1, s=3)
        assert rhs.coeffs == {}

    def test_j_equals_k_even_s(self):
        # n=2, k=j=1, s=2: (1/(4 pi^2)) (Gamma(3/2)/Gamma(1/2)) * phi_2^{0,0,1};
        # the top measure is (omega_4/omega_2) Q vol = (pi/2) Q
        rhs, _ = crofton_rhs(cube(2), 1, 1, s=2)
        diag = rhs.coordinate((2, 0))
        assert diag == pytest.approx(1 / (8 * math.pi), rel=1e-12)

    def test_k_equals_n_is_identity(self):
        P = cube(2)
        for (j, r, s, l) in [(0, 0, 2, 0), (1, 1, 1, 0), (1, 0, 0, 1)]:
            rhs, _ = crofton_rhs(P, 2, j, r, s, l)
            direct = tcm(P, j, r, s, l).tensor
            assert rhs.max_abs_coordinate_diff(direct) < 1e-12

    def test_three_term_assembly(self):
        # n=3, k=2, j=1, s=2: terms (m,i) in {(0,0), (1,0), (1,1)}
        from tensorgeo.coeffs import d_coeff
        P = cube(3)
        rhs, _ = crofton_rhs(P, 2, 1, s=2)
        manual = SymTensor.zero(3, 2)
        for (m, i) in [(0, 0), (1, 0), (1, 1)]:
            c = d_coeff(3, 1, 2, 2, 0, i, m)
            term = metric_tensor(3).power(m - i) * tcm(P, 2, 0, 2 - 2 * m, i).tensor
            manual = manual.add_scaled(term, c)
        assert rhs.max_abs_coordinate_diff(manual) < 1e-14

    @pytest.mark.parametrize("body", ["cube3", "simplex3", "cross4"])
    @pytest.mark.parametrize("windowed", [False, True])
    def test_j_equals_k_is_the_top_measure(self, body, windowed):
        # the (m, i) sum at j = k keeps the single term thm31 * phi_n^{r,0,l+s/2}
        P = builtin_polytope(body)
        n = P.dim
        region = Region.box(np.full(n, 0.1), np.full(n, 0.7)) if windowed else None
        for k in range(n + 1):
            for r, s, l in itertools.product(range(2), range(5), range(2)):
                if k == 0 and l:
                    continue
                rhs, err = crofton_rhs(P, k, k, r, s, l, region=region)
                assert not np.any(err.data)
                if s % 2:       # thm31 vanishes
                    assert thm31_coeff(n, k, s) == 0.0 and not np.any(rhs.data)
                    continue
                top = tcm(P, n, r, 0, l + s // 2, region=region).tensor
                assert rhs.max_abs_coordinate_diff(top.scale(thm31_coeff(n, k, s))) < 1e-12

    @pytest.mark.parametrize("windowed", [False, True])
    def test_kinematic_rhs_weights_crofton_rhs(self, windowed):
        # sum_k C_k(P2) crofton_rhs(P, k, j); simplex(3)'s vertex cones are
        # sampled, so C_0 carries a stderr
        P, P2 = cube(3), simplex(3)
        region = Region.box([0.1, 0.2, 0.0], [0.8, 0.6, 0.5]) if windowed else None
        region2 = Region.box([0.5, -0.2, -0.2], [1.2, 0.4, 0.3]) if windowed else None
        budget, seed = 400, 5
        assert tcm(P2, 0, region=region2, budget=budget, seed=seed).stderr.value() > 0
        for j, r, s, l in [(0, 0, 0, 0), (0, 1, 2, 0), (1, 0, 2, 1), (2, 1, 3, 0), (3, 0, 0, 0)]:
            rhs, err = kinematic_rhs(P, P2, j, r, s, l, region=region, region2=region2,
                                     budget=budget, seed=seed)
            total, bound = SymTensor.zero(3, rhs.rank), SymTensor.zero(3, rhs.rank)
            per_term = SymTensor.zero(3, rhs.rank)     # the sum of absolute terms
            for k in range(j, 4):
                c2 = tcm(P2, k, region=region2, budget=budget, seed=seed)
                c, c_err = c2.tensor.value(), c2.stderr.value()
                t, e = crofton_rhs(P, k, j, r, s, l, region=region, budget=budget, seed=seed)
                total = total.add_scaled(t, c)
                bound = bound.add_scaled(e, abs(c) + c_err).add_scaled(abs(t), c_err)
                for m in range(s // 2 + 1):
                    for i in range(m + 1):
                        coef = abs(d_coeff(3, j, k, s, l, i, m))
                        mv = tcm(P, 3 - k + j, r, s - 2 * m, l + i, region=region,
                                 budget=budget, seed=seed)
                        q_pow = metric_tensor(3).power(m - i)
                        per_term = (per_term.add_scaled(q_pow * mv.stderr, coef * (abs(c) + c_err))
                                    .add_scaled(abs(q_pow * mv.tensor), coef * c_err))
            scale = max(1.0, np.abs(total.data).max())
            assert rhs.max_abs_coordinate_diff(total) < 1e-12 * scale
            assert np.abs(err.data - bound.data).max() < 1e-12 * max(1.0, np.abs(bound.data).max())
            assert np.all(err.data <= per_term.data * (1 + 1e-12))

    @pytest.mark.parametrize("rhs", [lambda j, l: crofton_rhs(cube(2), 1, j, l=l),
                                     lambda j, l: kinematic_rhs(cube(2), cube(2), j, l=l),
                                     lambda j, l: kinematic_verify(cube(2), cube(2), j, l=l,
                                                                   samples=10)],
                             ids=["crofton_rhs", "kinematic_rhs", "kinematic_verify"])
    @pytest.mark.parametrize("j, l", [(0, 1), (-1, 0), (3, 0)])
    def test_indices_out_of_range_raise(self, rhs, j, l):
        # the measures vanish there, so a right-hand side would be compared
        # with a zero left-hand side
        with pytest.raises(ValueError):
            rhs(j, l)


class TestSpecialisedFamilyExpansions:
    """The specialised coefficient families must reproduce the generic
    right-hand side at tensor level on exact paths."""

    def test_iota_expansion(self):
        # j = k-1, l = 1: RHS = sum_m iota Q^m phi_{n-1}^{r,s-2m,1}
        for (n, k, s) in [(3, 2, 0), (3, 2, 2), (3, 2, 4), (3, 2, 3)]:
            P = cube(n)
            rhs, _ = crofton_rhs(P, k, k - 1, 0, s, 1)
            manual = SymTensor.zero(n, s + 2)
            for m in range(s // 2 + 1):
                term = metric_tensor(n).power(m) * tcm(P, n - 1, 0, s - 2 * m, 1).tensor
                manual = manual.add_scaled(term, iota(n, k, s, m))
            assert rhs.max_abs_coordinate_diff(manual) < 1e-10

    def test_lambda_expansion(self):
        # same LHS written purely in l = 0 measures
        for (n, k, s) in [(3, 2, 0), (3, 2, 2), (3, 2, 3), (4, 2, 2), (4, 3, 1)]:
            P = cube(n)
            rhs, _ = crofton_rhs(P, k, k - 1, 0, s, 1)
            manual = SymTensor.zero(n, s + 2)
            for m in range(s // 2 + 2):
                term = metric_tensor(n).power(m) * tcm(P, n - 1, 0, s + 2 - 2 * m, 0).tensor
                manual = manual.add_scaled(term, lambda_coeff(n, k, s, m))
            assert rhs.max_abs_coordinate_diff(manual) < 1e-10

    def test_kappa_expansion(self):
        # j = k-1, l = 0 written purely in l = 0 measures
        for (n, k, s) in [(2, 1, 0), (2, 1, 2), (3, 2, 2), (3, 1, 2), (3, 2, 3),
                          (4, 2, 4)]:
            P = cube(n)
            rhs, _ = crofton_rhs(P, k, k - 1, 0, s, 0)
            manual = SymTensor.zero(n, s)
            for m in range(s // 2 + 1):
                term = metric_tensor(n).power(m) * tcm(P, n - 1, 0, s - 2 * m, 0).tensor
                manual = manual.add_scaled(term, kappa_coeff(n, k, s, m))
            assert rhs.max_abs_coordinate_diff(manual) < 1e-10

    def test_single_term_k1(self):
        # k = 1, j = 0, l = 0: single surviving term
        for (n, s) in [(2, 2), (3, 2), (3, 3), (3, 4)]:
            P = cube(n)
            rhs, _ = crofton_rhs(P, 1, 0, 0, s, 0)
            h = s // 2
            manual = (metric_tensor(n).power(h)
                      * tcm(P, n - 1, 0, s - 2 * h, 0).tensor).scale(cor38_coeff(n, s))
            assert rhs.max_abs_coordinate_diff(manual) < 1e-10


def _crofton_reference(P, k, j, r=0, s=0, l=0, samples=10000, seed=0, **windows):
    """crofton_lhs with its section blocks sent to the per-sample evaluator."""
    with mock.patch.object(verify_module, "_batched", lambda *args: False):
        return crofton_lhs(P, k, j, r, s, l, samples=samples, seed=seed, **windows)


def _kinematic_reference(P, P2, j, r=0, s=0, l=0, samples=10000, seed=0, **windows):
    """kinematic_lhs with its section blocks sent to the per-sample evaluator."""
    with mock.patch.object(verify_module, "_batched", lambda *args: False):
        return kinematic_lhs(P, P2, j, r, s, l, samples=samples, seed=seed, **windows)


class TestKernelsAgainstGenericPath:
    """The vectorized sampling kernels must match the slow per-sample
    polytope path on identical sample streams."""

    @pytest.mark.parametrize("cfg", [
        dict(k=1, j=0), dict(k=1, j=1, s=2), dict(k=1, j=1, s=0, l=1),
        dict(k=1, j=1, s=4), dict(k=1, j=1, s=2, l=1)])
    def test_line_kernel_2d(self, cfg):
        P = cube(2)
        fast = crofton_lhs(P, samples=400, seed=21, **cfg)
        slow = _crofton_reference(P, samples=400, seed=21, **cfg)
        assert fast[0].max_abs_coordinate_diff(slow[0]) < 1e-10

    @pytest.mark.parametrize("cfg", [
        dict(k=1, j=1, s=2), dict(k=1, j=0), dict(k=2, j=1, s=2),
        dict(k=2, j=1, s=0), dict(k=2, j=1, s=1), dict(k=2, j=1, s=2, l=1),
        dict(k=2, j=1, s=4), dict(k=2, j=1, s=3, l=1), dict(k=1, j=1, s=4, l=1)])
    def test_kernels_3d(self, cfg):
        P = cube(3)
        fast = crofton_lhs(P, samples=250, seed=22, **cfg)
        slow = _crofton_reference(P, samples=250, seed=22, **cfg)
        assert fast[0].max_abs_coordinate_diff(slow[0]) < 1e-10

    def test_kernels_on_rotated_simplex(self):
        rho = random_rotation(stream(8, 0), 3)
        P = simplex(3).transformed(rho, np.array([0.2, -0.1, 0.4]))
        fast = crofton_lhs(P, k=2, j=1, s=2, samples=250, seed=23)
        slow = _crofton_reference(P, k=2, j=1, s=2, samples=250, seed=23)
        assert fast[0].max_abs_coordinate_diff(slow[0]) < 1e-10

    def test_motion_kernel(self):
        P = cube(2)
        P2 = cube(2).transformed(random_rotation(stream(9, 0), 2), np.array([0.2, 0.1]))
        for (r, s) in [(0, 0), (0, 1), (0, 2), (1, 1), (2, 0), (0, 4), (1, 3), (2, 2), (4, 0)]:
            fast = kinematic_lhs(P, P2, 0, r=r, s=s, samples=150, seed=24)
            slow = _kinematic_reference(P, P2, 0, r=r, s=s, samples=150, seed=24)
            assert fast[0].max_abs_coordinate_diff(slow[0]) < 1e-10, (r, s)


    @pytest.mark.parametrize("body, cfg", [
        ("cube2", dict(k=1, j=0, r=1, s=2)), ("cube3", dict(k=1, j=0, r=2, s=1)),
        ("cube4", dict(k=1, j=1, s=2)), ("cube3", dict(k=2, j=0, s=2)),
        ("cube3", dict(k=2, j=0, r=1, s=3)), ("simplex3", dict(k=2, j=0, s=2)),
        ("cube4", dict(k=2, j=1, s=2, l=1)), ("cube4", dict(k=2, j=0, s=2)),
        ("cube4", dict(k=2, j=0, r=1, s=1))])
    def test_more_line_and_plane_sections(self, body, cfg):
        """Line endpoints with r > 0, lines in R^4, plane-section vertices
        (lunes in R^3, arcs plus a plane in R^4) and edges of plane sections
        in R^4."""
        P = _BODIES[body]()
        fast = crofton_lhs(P, samples=200, seed=25, **cfg)
        slow = _crofton_reference(P, samples=200, seed=25, **cfg)
        assert fast[0].max_abs_coordinate_diff(slow[0]) < 1e-10

    @pytest.mark.parametrize("j, r, s, l", [(0, 1, 5, 0), (1, 0, 2, 0), (1, 0, 3, 1)])
    def test_more_planar_motions(self, j, r, s, l):
        P = cube(2)
        P2 = cube(2).transformed(random_rotation(stream(9, 0), 2), np.array([0.2, 0.1]))
        fast = kinematic_lhs(P, P2, j, r=r, s=s, l=l, samples=150, seed=26)
        slow = _kinematic_reference(P, P2, j, r=r, s=s, l=l, samples=150, seed=26)
        assert fast[0].max_abs_coordinate_diff(slow[0]) < 1e-10

    def test_blocks_of_samples(self, monkeypatch):
        """Blocks of 7: 20 samples are two full blocks and a partial one.
        Two cubes in R^3 have F = 12 rows and 66 lines, so their blocks
        hold 7 * 12 // 66 = 1 sample."""
        monkeypatch.setattr(verify_module, "_BATCH", 7)
        P2 = cube(2).transformed(random_rotation(stream(9, 0), 2), np.array([0.2, 0.1]))
        runs = [(crofton_lhs, _crofton_reference, (cube(2), 1, 1), dict(s=2)),
                (crofton_lhs, _crofton_reference, (cube(3), 2, 0), dict(s=2)),
                (crofton_lhs, _crofton_reference, (cube(3), 2, 1), dict(s=1, l=1)),
                (kinematic_lhs, _kinematic_reference, (cube(2), P2, 0), dict(r=1, s=1)),
                (kinematic_lhs, _kinematic_reference, (cube(3), _turned_cube3(), 2),
                 dict(r=1, s=1))]
        for batched, reference, args, kw in runs:
            fast = batched(*args, samples=20, seed=27, **kw)
            slow = reference(*args, samples=20, seed=27, **kw)
            assert fast[0].max_abs_coordinate_diff(slow[0]) < 1e-10
            assert fast[1].max_abs_coordinate_diff(slow[1]) < 1e-10

    @pytest.mark.parametrize("body, window, cfg", [
        ("cube2", "box2", dict(k=1, j=0, s=2)), ("cube2", "half2", dict(k=1, j=1, s=2, l=1)),
        ("cube3", "box3", dict(k=1, j=1, s=2)), ("cube3", "half3", dict(k=1, j=0, r=1, s=1)),
        ("cube3", "box3", dict(k=2, j=1, s=2)), ("cube3", "half3", dict(k=2, j=0, s=2)),
        ("simplex3", "box3", dict(k=2, j=0, r=1, s=3)),
        ("simplex3", "half3", dict(k=2, j=1, r=1, s=1, l=1))])
    def test_windowed_lines_and_planes(self, body, window, cfg):
        P = _BODIES[body]()
        fast = crofton_lhs(P, region=_WINDOWS[window], samples=200, seed=41, **cfg)
        slow = _crofton_reference(P, region=_WINDOWS[window], samples=200, seed=41, **cfg)
        assert fast[0].max_abs_coordinate_diff(slow[0]) < 1e-10
        assert fast[1].max_abs_coordinate_diff(slow[1]) < 1e-10
        assert np.abs(fast[0].data).max() > 1e-3

    @pytest.mark.parametrize("which, j, r, s, l", [
        ("region", 0, 0, 2, 0), ("region", 1, 1, 1, 0), ("region2", 0, 1, 3, 0),
        ("region2", 1, 0, 2, 1)])
    def test_windowed_planar_motions(self, which, j, r, s, l):
        P2 = cube(2).transformed(random_rotation(stream(9, 0), 2), np.array([0.2, 0.1]))
        window = {which: _WINDOWS["box2" if which == "region" else "half2"]}
        fast = kinematic_lhs(cube(2), P2, j, r=r, s=s, l=l, samples=150, seed=42, **window)
        slow = _kinematic_reference(cube(2), P2, j, r=r, s=s, l=l, samples=150, seed=42, **window)
        assert fast[0].max_abs_coordinate_diff(slow[0]) < 1e-10
        assert fast[1].max_abs_coordinate_diff(slow[1]) < 1e-10

    @pytest.mark.parametrize("body, cfg", [
        ("cube2", dict(k=1, j=1, r=1)), ("cube3", dict(k=1, j=1, r=2, s=2)),
        ("cube4", dict(k=1, j=1, r=1, l=1)), ("cube3", dict(k=2, j=1, r=1, s=1)),
        ("simplex3", dict(k=2, j=1, r=2, s=2)), ("cube4", dict(k=2, j=1, r=1, s=2))])
    def test_position_moments_of_segments_and_edges(self, body, cfg):
        P = _BODIES[body]()
        fast = crofton_lhs(P, samples=150, seed=43, **cfg)
        slow = _crofton_reference(P, samples=150, seed=43, **cfg)
        assert fast[0].max_abs_coordinate_diff(slow[0]) < 1e-10
        assert fast[1].max_abs_coordinate_diff(slow[1]) < 1e-10

    @pytest.mark.parametrize("r, s, l", [(1, 0, 0), (2, 1, 0), (1, 2, 1), (2, 0, 1)])
    def test_position_moments_of_motion_edges(self, r, s, l):
        P2 = cube(2).transformed(random_rotation(stream(9, 0), 2), np.array([0.2, 0.1]))
        fast = kinematic_lhs(cube(2), P2, 1, r=r, s=s, l=l, samples=150, seed=44)
        slow = _kinematic_reference(cube(2), P2, 1, r=r, s=s, l=l, samples=150, seed=44)
        assert fast[0].max_abs_coordinate_diff(slow[0]) < 1e-10
        assert fast[1].max_abs_coordinate_diff(slow[1]) < 1e-10

    @pytest.mark.parametrize("j, r, s, l", [
        (1, 0, 0, 0), (1, 1, 2, 1), (1, 2, 3, 0), (2, 0, 0, 0), (2, 0, 2, 1), (2, 1, 3, 1),
        (2, 2, 1, 0)])
    def test_cube_motions_in_space(self, j, r, s, l):
        """Edges (arcs) and 2-faces (rays) of P cap gP2 in R^3."""
        fast = kinematic_lhs(cube(3), _turned_cube3(), j, r=r, s=s, l=l, samples=150, seed=45)
        slow = _kinematic_reference(cube(3), _turned_cube3(), j, r=r, s=s, l=l, samples=150, seed=45)
        assert fast[0].max_abs_coordinate_diff(slow[0]) < 1e-10
        assert fast[1].max_abs_coordinate_diff(slow[1]) < 1e-10

    @pytest.mark.parametrize("j, r, s, l", [(1, 0, 2, 0), (2, 1, 1, 1)])
    def test_cube_against_a_cross_polytope(self, j, r, s, l):
        """Four facets meet at each apex of the cross-polytope, so lines of
        opposite facets there meet the intersection in a point at most."""
        P2 = cross_polytope(3).transformed(random_rotation(stream(5, 0), 3),
                                           np.array([0.3, 0.1, 0.0]))
        fast = kinematic_lhs(cube(3), P2, j, r=r, s=s, l=l, samples=150, seed=46)
        slow = _kinematic_reference(cube(3), P2, j, r=r, s=s, l=l, samples=150, seed=46)
        assert fast[0].max_abs_coordinate_diff(slow[0]) < 1e-10
        assert fast[1].max_abs_coordinate_diff(slow[1]) < 1e-10

    @pytest.mark.parametrize("body, cfg", [
        ("cube4", dict(k=3, j=1, s=2)), ("cube4", dict(k=3, j=2, r=1, s=1, l=1)),
        ("cube4", dict(k=3, j=1, r=1, s=3, l=1)), ("cube3", dict(k=2, j=2, r=1, s=2, l=1)),
        ("cube4", dict(k=2, j=2, r=2, s=2))])
    def test_solid_and_plane_sections(self, body, cfg):
        """Edges (lunes) and 2-faces of 3-flat sections of the 4-cube, and
        plane sections themselves in R^3 and R^4."""
        P = _BODIES[body]()
        fast = crofton_lhs(P, samples=120, seed=47, **cfg)
        slow = _crofton_reference(P, samples=120, seed=47, **cfg)
        assert fast[0].max_abs_coordinate_diff(slow[0]) < 1e-10
        assert fast[1].max_abs_coordinate_diff(slow[1]) < 1e-10
        assert np.abs(fast[0].data).max() > 1e-3

    @pytest.mark.parametrize("which, j, r, s, l", [("region", 2, 1, 2, 0), ("region2", 1, 0, 2, 1)])
    def test_windowed_cube_motions_in_space(self, which, j, r, s, l):
        window = {which: _WINDOWS["box3" if which == "region" else "half3"]}
        fast = kinematic_lhs(cube(3), _turned_cube3(), j, r=r, s=s, l=l, samples=150, seed=48,
                             **window)
        slow = _kinematic_reference(cube(3), _turned_cube3(), j, r=r, s=s, l=l, samples=150,
                                    seed=48, **window)
        assert fast[0].max_abs_coordinate_diff(slow[0]) < 1e-10
        assert fast[1].max_abs_coordinate_diff(slow[1]) < 1e-10
        assert np.abs(fast[0].data).max() > 1e-3


def _turned_cube3():
    return cube(3).transformed(random_rotation(stream(12, 0), 3), np.array([0.1, 0.2, -0.1]))


_WINDOWS = {"box2": Region.box([-1, -1], [0.5, 2]), "half2": Region([[1.0, 1.0]], [1.2]),
            "box3": Region.box([-1, -1, -1], [0.6, 2.0, 0.7]),
            "half3": Region([[1.0, 1.0, -0.5]], [0.9])}

_BODIES = {
    "cube2": lambda: cube(2), "cube3": lambda: cube(3), "cube4": lambda: cube(4),
    "simplex3": lambda: simplex(3).transformed(random_rotation(stream(8, 0), 3),
                                               np.array([0.2, -0.1, 0.4])),
}


def _spread(t, on):
    """max - min of t over the entries marked `on` (last axis); 0 where none."""
    hi = np.max(np.where(on, t, -np.inf), axis=-1)
    lo = np.min(np.where(on, t, np.inf), axis=-1)
    return np.where(on.any(axis=-1), hi - lo, 0.0)


def _subset_vertices(g, h, subsets, slack):
    """Solutions y (d, m, P) of g_S y = h_S for the d-subsets S (rows of
    `subsets`) of the constraints g y <= h with unit rows g (m, F, d),
    d <= 2, by Cramer's rule, and which of them satisfy every constraint
    within slack."""
    G, H = g[:, subsets], h[:, subsets]                                  # (m, P, d, d), (m, P, d)
    if subsets.shape[1] == 1:
        det, y = G[..., 0, 0], [H[..., 0]]
    else:
        det = G[..., 0, 0] * G[..., 1, 1] - G[..., 0, 1] * G[..., 1, 0]
        y = [H[..., 0] * G[..., 1, 1] - H[..., 1] * G[..., 0, 1],
             G[..., 0, 0] * H[..., 1] - G[..., 1, 0] * H[..., 0]]
    ok = np.abs(det) > 1e-12
    y = np.stack(y)
    y /= np.where(ok, det, 1.0)
    if subsets.shape[1] == 1:   # rows are +-1 (or 0), so the worst residual is the nearest bound
        up = g[..., 0] > 0
        excess = np.maximum(y[0] - np.min(np.where(ok & up, y[0], np.inf), axis=1)[:, None],
                            np.max(np.where(ok & ~up, y[0], -np.inf), axis=1)[:, None] - y[0])
        excess = np.maximum(excess, np.max(np.where(ok, -np.inf, -h), axis=1)[:, None])
    else:
        excess = np.full(ok.shape, -np.inf)
        for f in range(g.shape[1]):
            np.maximum(excess, np.einsum("cmp,mc->mp", y, g[:, f]) - h[:, f, None], out=excess)
    return y, ok & (excess <= slack)


def _dense_section_lhs(n, j, r, s, l, B, W, q, g, h, weight, slack):
    """The all-subsets assembly the batched path replaced, kept as its
    oracle: every d-subset of the constraints is a candidate vertex, and the
    infeasible ones enter the face sum with zero length or a zero arc."""
    N, F, d = g.shape
    gn = np.linalg.norm(g, axis=-1)
    gn[gn == 0] = 1.0
    unit, h = g / gn[..., None], h / gn
    subsets = np.array(list(itertools.combinations(range(F), d)), dtype=np.intp)
    members = np.argsort(subsets.ravel(), kind="stable").reshape(F, -1)
    y, feas = _subset_vertices(unit, h, subsets, slack)
    vr = vector_power(q[:, None] + np.einsum("mic,cmp->mpi", B, y), r) if r else 1.0
    if j == d:
        vals = (_product_cone_moment(n, s, np.zeros((n, 0)), W)
                * vector_power(B[..., 0], 2 * l)).scale(_spread(y[0], feas))
    elif j == d - 1:
        on = np.repeat(feas, d, axis=1)[:, members]
        nu = np.einsum("mij,mfj->mfi", B, unit)
        if d == 1:
            fmom = on[..., 0] * vr
        else:
            e = np.stack([-unit[..., 1], unit[..., 0]], axis=-1)
            t = np.einsum("mpkc,cmp->mpk", e[:, subsets], y).reshape(N, -1)[:, members]
            fmom = vector_power(np.einsum("mij,mfj->mfi", B, e), 2 * l).scale(_spread(t, on))
        vals = (_product_cone_moment(n, s, nu[..., None], W[:, None]) * fmom).sum(axis=1)
    else:
        theta = np.arctan2(unit[..., 1], unit[..., 0])[:, subsets]
        delta = np.mod(theta[..., 1] - theta[..., 0], 2.0 * math.pi)
        start = np.where(delta <= math.pi, theta[..., 0], theta[..., 1])
        end = start + np.where(feas, np.minimum(delta, 2.0 * math.pi - delta), 0.0)
        pa, pb = B[:, None, :, 0], B[:, None, :, 1]
        cones = (_arc_moment(n, s, pa, pb, _arc_ends(start, end)) if n == d
                 else _lune_per_integral(n, s, pa, pb, start, end, W[:, None, :, 0]))
        vals = (cones * vr).sum(axis=1)
    rank = r + s + 2 * l
    values = np.broadcast_to(vals.data, (N, len(multi_degrees(n, rank))))
    return verify_module._mean_and_stderr(SymTensor(n, rank, values),
                                          weight * c_norm(n, j, r, s, l) / omega(n - j))


def _flat_sections(P, k, samples, seed):
    """crofton_lhs's sections, for all samples at once."""
    A, b = P.ambient_halfspaces()
    batch = sample_flats_hitting(P, k, samples, seed=seed, margin=0.5)
    return (batch.frames, batch.complements, batch.points, A @ batch.frames,
            b - batch.points @ A.T, batch.weight)


def _motion_sections(P, P2, samples, seed):
    """kinematic_lhs's sections P cap gP2 in the plane, for all samples at once."""
    (A1, b1), (A2, b2) = P.ambient_halfspaces(), P2.ambient_halfspaces()
    batch = sample_motions_coupling(P, P2, samples, seed=seed, margin=0.5)
    Ag = A2 @ np.swapaxes(batch.rotations, 1, 2)
    g = np.concatenate([np.broadcast_to(A1, (samples,) + A1.shape), Ag], axis=1)
    h = np.concatenate([np.broadcast_to(b1, (samples, len(b1))),
                        b2 + (Ag @ batch.translations[..., None])[..., 0]], axis=1)
    return (np.broadcast_to(np.eye(2), (samples, 2, 2)), np.zeros((samples, 2, 0)),
            np.zeros((samples, 2)), g, h, batch.weight)


def _hexagon(turn, shift):
    angles = 2 * math.pi * np.arange(6) / 6 + turn
    return Polytope.from_vertices(np.c_[np.cos(angles), np.sin(angles)] + shift)


def _relative_gap(a, b):
    return np.abs(a.data - b.data).max() / np.abs(b.data).max()


class TestFacesThatExist:
    """The batched path sums cone moments over the faces that exist only;
    the dense all-subsets assembly is its oracle."""

    @pytest.mark.parametrize("body, cfg", [
        ("cube2", dict(k=1, j=0)), ("cube2", dict(k=1, j=1, s=2, l=1)),
        ("cube3", dict(k=1, j=0, r=2, s=1)), ("cube4", dict(k=1, j=1, s=2)),
        ("cube3", dict(k=2, j=1, s=2)), ("simplex3", dict(k=2, j=1, s=3, l=1)),
        ("cube4", dict(k=2, j=1, s=2, l=1)), ("cube3", dict(k=2, j=0, s=2)),
        ("simplex3", dict(k=2, j=0, r=1, s=3))])
    @pytest.mark.parametrize("seed", [31, 32])
    def test_lines_and_planes_match_the_dense_assembly(self, body, cfg, seed):
        P = _BODIES[body]()
        est, err, _ = crofton_lhs(P, samples=1500, seed=seed, **cfg)
        cfg = dict(dict(r=0, s=0, l=0), **cfg)
        dense = _dense_section_lhs(P.dim, cfg["j"], cfg["r"], cfg["s"], cfg["l"],
                                   *_flat_sections(P, cfg["k"], 1500, seed), P.slack)
        assert _relative_gap(est, dense[0]) <= 1e-14
        assert _relative_gap(err, dense[1]) <= 1e-14

    @pytest.mark.parametrize("pair, j, r, s, l", [
        ("squares", 0, 1, 3, 0), ("squares", 1, 0, 2, 1),
        ("hexagons", 0, 0, 4, 0), ("hexagons", 0, 2, 2, 0), ("hexagons", 1, 0, 3, 1)])
    @pytest.mark.parametrize("seed", [33, 34])
    def test_planar_motions_match_the_dense_assembly(self, pair, j, r, s, l, seed):
        P, P2 = {"squares": (cube(2), cube(2).transformed(random_rotation(stream(9, 0), 2),
                                                           np.array([0.2, 0.1]))),
                 "hexagons": (_hexagon(0.1, [0.0, 0.0]), _hexagon(0.4, [0.3, -0.2]))}[pair]
        est, err, _ = kinematic_lhs(P, P2, j, r=r, s=s, l=l, samples=1500, seed=seed)
        dense = _dense_section_lhs(2, j, r, s, l, *_motion_sections(P, P2, 1500, seed), P.slack)
        assert _relative_gap(est, dense[0]) <= 1e-14
        assert _relative_gap(err, dense[1]) <= 1e-14

    @staticmethod
    def _record(monkeypatch):
        """Per block, the number of samples with a hit, of vertices and of
        facets, read off the clipped lines; and the batch each cone-moment
        call receives.  A line section (d = 1, one line) that meets has two
        endpoints, its vertices and facets; in a plane section each line
        that meets is an edge, and its hi end a vertex."""
        blocks, cones = [], []
        real_clip = verify_module._clip_lines

        def clip(p, e, g, h, slack):
            lo, hi, lo_row, hi_row, meets = real_clip(p, e, g, h, slack)
            faces = (2 if e.shape[1] == 1 else 1) * int(meets.sum())
            blocks.append(dict(hits=int(meets.any(axis=-1).sum()), vertices=faces, facets=faces))
            return lo, hi, lo_row, hi_row, meets

        def recording(name, rows):
            real = getattr(verify_module, name)

            def moment(*args):
                cones.append((name, rows(*args)))
                return real(*args)
            monkeypatch.setattr(verify_module, name, moment)

        monkeypatch.setattr(verify_module, "_clip_lines", clip)
        # the complement W (rows, n, n - d) is batched for every kind; the
        # kind is "arc", or the number of rays
        recording("_cone_moment", lambda n, s, rays, W, arc=None: (
            "arc" if arc is not None else rays.shape[-1], len(W)))
        monkeypatch.setattr(verify_module, "_BATCH", 50)
        return blocks, cones

    @pytest.mark.parametrize("run, kind, faces", [
        (lambda: kinematic_lhs(cube(2), _hexagon(0.4, [0.3, -0.2]), 0, s=2, samples=200, seed=35),
         "arc", "vertices"),
        (lambda: crofton_lhs(cube(3), 2, 0, s=2, samples=200, seed=35), "arc", "vertices"),
        (lambda: crofton_lhs(cube(4), 2, 0, s=2, samples=200, seed=35), "arc", "vertices"),
        (lambda: crofton_lhs(_BODIES["simplex3"](), 2, 1, s=2, samples=200, seed=35), 1, "facets"),
        (lambda: crofton_lhs(cube(3), 1, 0, r=1, s=2, samples=200, seed=35), 1, "facets"),
        (lambda: crofton_lhs(cube(3), 1, 1, s=2, samples=200, seed=35), 0, "hits")],
        ids=["motion", "plane3", "plane4", "simplex-edges", "line-ends", "segments"])
    def test_cone_moments_receive_only_faces_that_exist(self, monkeypatch, run, kind, faces):
        blocks, cones = self._record(monkeypatch)
        run()
        assert len(blocks) == 4
        assert [rows for _, (_, rows) in cones] == [block[faces] for block in blocks]
        assert {got for _, (got, _) in cones} == {kind}

    def test_blocks_without_a_hit(self, monkeypatch):
        """Blocks of 7 samples, some of which hit nothing, give the estimate
        and stderr of the default blocks."""
        P2 = cube(2).transformed(random_rotation(stream(9, 0), 2), np.array([0.2, 0.1]))
        runs = [lambda: kinematic_lhs(cube(2), P2, 0, s=2, samples=40, seed=27),
                lambda: kinematic_lhs(cube(2), P2, 1, s=1, l=1, samples=40, seed=27),
                lambda: crofton_lhs(cube(3), 2, 0, r=1, s=1, samples=40, seed=27, margin=2.0),
                lambda: crofton_lhs(cube(3), 2, 1, s=2, samples=40, seed=27, margin=2.0),
                lambda: crofton_lhs(cube(3), 1, 1, s=2, samples=40, seed=27, margin=4.0),
                lambda: crofton_lhs(cube(3), 1, 0, samples=40, seed=27, margin=4.0)]
        default = [run() for run in runs]
        blocks, _ = self._record(monkeypatch)
        monkeypatch.setattr(verify_module, "_BATCH", 7)
        for run, (est, err, _) in zip(runs, default):
            blocks.clear()
            est7, err7, _ = run()
            assert len(blocks) == 6 and min(block["hits"] for block in blocks) == 0
            assert _relative_gap(est7, est) <= 1e-14
            assert _relative_gap(err7, err) <= 1e-14


# the unit square, a corner cut (unnormalised) and a far row that no vertex touches
_PENTAGON = (np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0], [-1.0, 2.0]]),
             np.array([1.0, 0.0, 1.0, 0.0, 1.5, 10.0]))
_ONE_SECTION_INDICES = [(0, r, s, 0) for r in range(3) for s in range(4)] \
    + [(1, r, s, l) for r in range(3) for s in range(4) for l in range(2)]


def _one_section(kind):
    """(n, B, W, q, g, h) of one section {q + B y : g y <= h}: the pentagon
    in R^2 or in a plane of R^3, or the pentagon cut by the line y = 0.8,
    which is parallel to the square's rows y <= 1 and -y <= 0."""
    A, b = _PENTAGON
    if kind == "line":
        B, q = np.array([[1.0], [0.0]]), np.array([0.0, 0.8])
        return 2, B, np.array([[0.0], [1.0]]), q, A @ B, b - A @ q
    n = {"polygon": 2, "polygon in R^3": 3}[kind]
    R = random_rotation(stream(13, n), n)
    return n, R[:, :2], R[:, 2:], 0.3 * R[:, 0] - 0.2, A, b


def _one_window(kind, n, B, q):
    """An ambient window that cuts the section of `_one_section`: a box
    around the point at in-frame (0.6, 0.6), or 0.6 on the line, that holds
    a vertex and cuts edges; or a halfspace through in-frame (0.5, 0.4), or
    0.4, with an oblique normal."""
    c = q + B @ np.array([0.6, 0.6][:B.shape[1]])
    if kind == "box":
        return Region.box(c - 0.35, c + 0.35)
    a = stream(14, n).standard_normal(n)
    return Region(a[None], [a @ (q + B @ np.array([0.5, 0.4][:B.shape[1]]))])


# the unit cube with the corner at (1, 1, 1) cut off (unnormalised) and a far
# row that no vertex touches
_TRUNCATED_CUBE = (np.vstack([np.eye(3), -np.eye(3), [[1.0, 1.0, 1.0], [1.0, -2.0, 0.5]]]),
                   np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 2.4, 10.0]))
_SOLID_INDICES = [(j, r, s, l) for j in (1, 2) for r in range(3) for s in range(4) for l in range(2)]


def _one_solid(n):
    """(n, B, W, q, g, h) of the truncated cube in R^3 or in a 3-flat of R^4."""
    A, b = _TRUNCATED_CUBE
    R = random_rotation(stream(15, n), n)
    return n, R[:, :3], R[:, 3:], 0.3 * R[:, 0] - 0.2, A, b


class TestOneSection:
    """One hand-built section with weight 1: `_section_lhs` is `tcm` of the
    section built as a Polytope, with no Monte-Carlo."""

    @staticmethod
    def _lhs(j, r, s, l, n, B, W, q, g, h, window=Region.universe(), body=_PENTAGON):
        Aw, bw = verify_module._rows(window, n)
        sections = lambda block: (B[None], W[None], q[None], g[None], h[None], Aw[None], bw[None])
        slack = Polytope.from_halfspaces(*body).slack
        return verify_module._section_lhs(n, j, r, s, l, 1, sections, 1.0, slack)[0]

    @pytest.mark.parametrize("kind", ["polygon", "polygon in R^3", "line"])
    @pytest.mark.parametrize("j, r, s, l", _ONE_SECTION_INDICES)
    def test_equals_tcm(self, kind, j, r, s, l):
        n, B, W, q, g, h = _one_section(kind)
        assert verify_module._batched(n, B.shape[1], j, l)
        got = self._lhs(j, r, s, l, n, B, W, q, g, h)
        want = tcm(Polytope.from_halfspaces(g, h, origin=q, frame=B), j, r, s, l).tensor
        assert got.max_abs_coordinate_diff(want) <= 1e-12

    @pytest.mark.parametrize("kind", ["polygon", "polygon in R^3", "line"])
    @pytest.mark.parametrize("window", ["box", "halfspace"])
    @pytest.mark.parametrize("j, r, s, l", _ONE_SECTION_INDICES)
    def test_windowed_equals_tcm(self, kind, window, j, r, s, l):
        n, B, W, q, g, h = _one_section(kind)
        region = _one_window(window, n, B, q)
        got = self._lhs(j, r, s, l, n, B, W, q, g, h, region)
        section = Polytope.from_halfspaces(g, h, origin=q, frame=B)
        want = tcm(section, j, r, s, l, region=region).tensor
        assert got.max_abs_coordinate_diff(want) <= 1e-12
        if r + s + l == 0:      # the window keeps part of the section, not all of it
            assert 0.0 < want.value() < tcm(section, j).tensor.value()

    @pytest.mark.parametrize("window", [None, "box", "halfspace"])
    @pytest.mark.parametrize("r, s, l", [(r, s, l) for r in range(3) for s in range(4)
                                         for l in range(2)])
    def test_the_polygon_itself_equals_tcm(self, window, r, s, l):
        """j = d = 2 < n: the section is its own face, with the complement
        as its normal cone."""
        n, B, W, q, g, h = _one_section("polygon in R^3")
        assert verify_module._batched(n, 2, 2, l)
        region = Region.universe() if window is None else _one_window(window, n, B, q)
        got = self._lhs(2, r, s, l, n, B, W, q, g, h, region)
        section = Polytope.from_halfspaces(g, h, origin=q, frame=B)
        want = tcm(section, 2, r, s, l, region=region).tensor
        assert got.max_abs_coordinate_diff(want) <= 1e-12
        if window and r + s + l == 0:
            assert 0.0 < want.value() < tcm(section, 2).tensor.value()

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("window", [False, True])
    @pytest.mark.parametrize("j, r, s, l", _SOLID_INDICES)
    def test_truncated_cube_equals_tcm(self, n, window, j, r, s, l):
        """Edges and 2-faces of a solid section, in R^3 and in a 3-flat of
        R^4, whole or under a box around in-frame (0.8, 0.8, 0.6) that cuts
        the corner's triangle and the edges and faces around it."""
        n, B, W, q, g, h = _one_solid(n)
        assert verify_module._batched(n, 3, j, l)
        c = q + B @ np.array([0.8, 0.8, 0.6])
        region = Region.box(c - 0.35, c + 0.35) if window else Region.universe()
        got = self._lhs(j, r, s, l, n, B, W, q, g, h, region, _TRUNCATED_CUBE)
        section = Polytope.from_halfspaces(g, h, origin=q, frame=B)
        want = tcm(section, j, r, s, l, region=region).tensor
        assert got.max_abs_coordinate_diff(want) <= 1e-12
        if window and r + s + l == 0:
            assert 0.0 < want.value() < tcm(section, j).tensor.value()

    def test_line_parallel_to_a_violated_row_is_empty(self):
        """y = 1.2 crosses the other rows' lines in [0, 0.3] but lies above y <= 1."""
        A, b = _PENTAGON
        B, q = np.array([[1.0], [0.0]]), np.array([0.0, 1.2])
        with pytest.raises(EmptyPolytopeError):
            Polytope.from_halfspaces(A @ B, b - A @ q, origin=q, frame=B)
        for j, r, s, l in _ONE_SECTION_INDICES:
            got = self._lhs(j, r, s, l, 2, B, np.array([[0.0], [1.0]]), q, A @ B, b - A @ q)
            assert not got.data.any()


class TestSampleCount:
    P2 = cube(2).transformed(random_rotation(stream(9, 0), 2), np.array([0.2, 0.1]))

    # generic: an index the batched path does not take (vertices of
    # 3-dimensional sections, or j = d = n)
    @pytest.mark.parametrize("samples", [0, -3])
    @pytest.mark.parametrize("generic", [False, True])
    def test_crofton_lhs_needs_a_sample(self, samples, generic):
        with pytest.raises(ValueError, match="at least one sample"):
            if generic:
                crofton_lhs(cube(4), 3, 0, samples=samples)
            else:
                crofton_lhs(cube(3), 2, 1, samples=samples)

    @pytest.mark.parametrize("samples", [0, -3])
    @pytest.mark.parametrize("generic", [False, True])
    def test_kinematic_lhs_needs_a_sample(self, samples, generic):
        with pytest.raises(ValueError, match="at least one sample"):
            kinematic_lhs(cube(2), self.P2, 2 * int(generic), samples=samples)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_steiner_check_needs_a_sample(self, samples):
        with pytest.raises(ValueError, match="at least one sample"):
            steiner_check(cube(2), [0.5], samples=samples)


class TestRejectedInput:
    """Arguments under which the identities do not hold as computed: a
    sampler support that need not cover the body, bodies in different
    spaces, negative parallel distances, ranks outside the theorem, and
    negative orders r, s, l."""

    @pytest.mark.parametrize("call", [
        lambda: sample_flats_hitting(cube(2), 1, 10, margin=-0.1),
        lambda: sample_motions_coupling(cube(2), cube(2), 10, margin=-0.1),
        lambda: crofton_lhs(cube(3), 2, 1, samples=10, margin=-1.0),
        lambda: kinematic_lhs(cube(2), cube(3), 0, samples=10),
        lambda: kinematic_rhs(cube(2), cube(3), 0),
        lambda: kinematic_rhs(cube(3), cube(2), 1),
        lambda: steiner_check(cube(2), [0.5, -0.1], samples=10),
        lambda: independence_rank(1, 2),
        lambda: independence_rank(2, -1),
        lambda: independence_rank(2, 2, trials=0),
        lambda: crofton_rhs(cube(3), 2, 1, s=-1),
        lambda: kinematic_rhs(cube(2), cube(2), 1, r=-1),
        lambda: crofton_lhs(cube(3), 2, 1, l=-1, samples=10),
        lambda: kinematic_lhs(cube(2), cube(2), 1, s=-2, samples=10)],
        ids=["flats-margin", "motions-margin", "crofton-lhs-margin", "kinematic-lhs-dims",
             "kinematic-rhs-dims", "kinematic-rhs-dims-swapped", "steiner-eps", "independence-n",
             "independence-p", "independence-trials", "crofton-rhs-s", "kinematic-rhs-r",
             "crofton-lhs-l", "kinematic-lhs-s"])
    def test_raises_value_error(self, call):
        with pytest.raises(ValueError):
            call()


class TestRouting:
    """Which indices take the batched section path and which the per-sample
    generic path."""

    @staticmethod
    def _refuse_generic(monkeypatch):
        class Generic(Exception):
            pass

        def generic(*args, **kwargs):
            raise Generic
        monkeypatch.setattr(verify_module, "_generic_lhs", generic)
        return Generic

    def test_table_rows_take_the_batched_path(self, monkeypatch):
        self._refuse_generic(monkeypatch)
        line_rows = [dict(k=1, j=0), dict(k=1, j=1, s=2), dict(k=1, j=1, s=0, l=1),
                     dict(k=1, j=1, s=4), dict(k=1, j=1, s=2, l=1)]
        rows_3d = [dict(k=1, j=1, s=2), dict(k=1, j=0), dict(k=2, j=1, s=2),
                   dict(k=2, j=1, s=0), dict(k=2, j=1, s=1), dict(k=2, j=1, s=2, l=1),
                   dict(k=2, j=1, s=4), dict(k=2, j=1, s=3, l=1), dict(k=1, j=1, s=4, l=1)]
        for cfg in line_rows:
            crofton_lhs(cube(2), samples=20, seed=21, **cfg)
        for cfg in rows_3d:
            crofton_lhs(cube(3), samples=20, seed=22, **cfg)
        crofton_lhs(_BODIES["simplex3"](), k=2, j=1, s=2, samples=20, seed=23)
        P2 = cube(2).transformed(random_rotation(stream(9, 0), 2), np.array([0.2, 0.1]))
        for (r, s) in [(0, 0), (0, 1), (0, 2), (1, 1), (2, 0), (0, 4), (1, 3), (2, 2), (4, 0)]:
            kinematic_lhs(cube(2), P2, 0, r=r, s=s, samples=20, seed=24)
        # windows, and position moments of segments and edges
        window = Region.box([-1, -1], [0.5, 2])
        crofton_lhs(cube(2), 1, 1, region=window, samples=5, seed=1)
        kinematic_lhs(cube(2), P2, 0, region2=window, samples=5, seed=1)
        crofton_lhs(cube(3), 2, 1, r=1, s=1, samples=5, seed=1)
        crofton_lhs(cube(3), 1, 1, r=1, samples=5, seed=1)
        kinematic_lhs(cube(2), P2, 1, r=1, samples=5, seed=1)
        # edges and 2-faces of solid sections, and plane sections themselves
        for j in (1, 2):
            kinematic_lhs(cube(3), _turned_cube3(), j, r=1, s=1, samples=5, seed=1)
            crofton_lhs(cube(4), 3, j, s=2, samples=5, seed=1)
        kinematic_lhs(cube(3), _turned_cube3(), 2, region=_WINDOWS["box3"], samples=5, seed=1)
        crofton_lhs(cube(3), 2, 2, l=1, samples=5, seed=1)
        crofton_lhs(cube(4), 2, 2, s=2, samples=5, seed=1)
        # plane-section vertices in R^4: arcs plus the section's complement
        crofton_lhs(cube(4), 2, 0, s=2, samples=5, seed=1)

    def test_the_rest_reaches_the_generic_path(self, monkeypatch):
        Generic = self._refuse_generic(monkeypatch)
        P2 = cube(2).transformed(random_rotation(stream(9, 0), 2), np.array([0.2, 0.1]))
        cases = [
            lambda: kinematic_lhs(cube(3), cube(3), 0, samples=5, seed=1),
            lambda: kinematic_lhs(cube(2), P2, 2, samples=5, seed=1),
            lambda: kinematic_lhs(cube(3), _turned_cube3(), 3, samples=5, seed=1),
            lambda: crofton_lhs(cube(4), 3, 3, samples=5, seed=1),
            lambda: crofton_lhs(cube(4), 3, 0, samples=5, seed=1),
        ]
        for case in cases:
            with pytest.raises(Generic):
                case()


class TestGenericPathErrors:
    def test_section_stderr_adds_to_the_estimate(self, monkeypatch):
        """Motions in n = 3 with j = 0: the intersections' vertex cones are
        sampled, and the mean of weight * section stderr adds linearly to
        the sampling error."""
        seen = []

        def recording_tcm(*args, **kwargs):
            seen.append(tcm(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(verify_module, "tcm", recording_tcm)
        P = cube(3)
        P2 = cube(3).transformed(random_rotation(stream(12, 0), 3), np.array([0.1, 0.2, -0.1]))
        samples = 40
        _, err, _ = kinematic_lhs(P, P2, 0, s=2, samples=samples, seed=3, budget=400)
        weight = sample_motions_coupling(P, P2, 1).weight
        hits = [weight * mv.tensor.coordinates_array() for mv in seen]
        coords = np.vstack(hits + [np.zeros_like(hits[0])] * (samples - len(hits)))
        sampling = coords.std(axis=0) / math.sqrt(samples)
        propagated = weight * sum(mv.stderr.coordinates_array() for mv in seen) / samples
        assert propagated.min() > 0.0
        np.testing.assert_allclose(err.coordinates_array(), sampling + propagated, rtol=1e-9)

    def test_grazing_sections_are_counted_and_score_zero(self):
        """Lines in the square: one through the middle, one through the
        corner only (a point), one along the top edge (in a facet's line),
        and one that misses.  The two grazing ones, which `intersect_flat`
        rejects, are counted, and they score as the miss does: zero."""
        P = cube(2)
        A, b = P.ambient_halfspaces()
        diagonal = np.array([[1.0], [-1.0]]) / math.sqrt(2.0)
        flats = [(np.array([[1.0], [0.0]]), np.array([0.0, 0.5])), (diagonal, np.zeros(2)),
                 (np.array([[1.0], [0.0]]), np.array([0.0, 1.0])),
                 (np.array([[1.0], [0.0]]), np.array([0.0, 2.0]))]
        for B, q in flats[1:3]:
            with pytest.raises(GrazingIntersectionError):
                intersect_flat(P, B, q)

        def sections(rows):
            def block(at):
                B = np.array([flats[i][0] for i in rows])[at]
                q = np.array([flats[i][1] for i in rows])[at]
                W = np.stack([-B[:, 1], B[:, 0]], axis=1)
                return (B, W, q, A @ B, b - q @ A.T) + verify_module._each(np.zeros((0, 2)),
                                                                           np.zeros(0), len(q))
            return block

        def lhs(rows):
            return verify_module._generic_lhs(2, 1, 0, 2, 0, 4, sections(rows), 1.0, 20000, 0)
        est, err, rejections = lhs([0, 1, 2, 3])
        miss_est, miss_err, none = lhs([0, 3, 3, 3])
        assert (rejections, none) == (2, 0)
        assert np.array_equal(est.data, miss_est.data) and np.array_equal(err.data, miss_err.data)
        assert np.abs(est.data).max() > 0.01


    def test_sections_draw_their_own_cone_streams(self, monkeypatch):
        """Sampled vertex cones of different sections never share a stream:
        no (seed, purpose) key is drawn for two sections."""
        import tensorgeo.conemoment as conemoment_module
        section = [0]
        keys = {}

        def counting_tcm(*args, **kwargs):
            section[0] += 1
            return tcm(*args, **kwargs)

        def recording_stream(seed, index=0, purpose=0):
            keys.setdefault((seed, purpose), set()).add(section[0])
            return stream(seed, index, purpose)

        monkeypatch.setattr(verify_module, "tcm", counting_tcm)
        monkeypatch.setattr(conemoment_module, "stream", recording_stream)
        P2 = cube(3).transformed(random_rotation(stream(12, 0), 3), np.array([0.1, 0.2, -0.1]))
        kinematic_lhs(cube(3), P2, 0, samples=12, seed=3, budget=200)
        assert len({s for owners in keys.values() for s in owners}) >= 2
        assert all(len(owners) == 1 for owners in keys.values())


class TestSectionBlocks:
    """The window rows each theorem hands to the evaluators: the region for
    every flat, and for a motion g = (rho, t) the region stacked with
    region2 moved by g."""

    @staticmethod
    def _blocks(monkeypatch, run):
        seen = []

        def record(n, j, r, s, l, N, sections, *args):
            seen.append(sections(slice(0, N)))
            return None, None, 0
        monkeypatch.setattr(verify_module, "_section_lhs", record)
        run()
        return seen[0]

    def test_flats_carry_the_region(self, monkeypatch):
        region = Region([[1.0, 1.0, -0.5]], [0.9])
        *_, Aw, bw = self._blocks(monkeypatch, lambda: crofton_lhs(cube(3), 2, 1, region=region,
                                                                   samples=30, seed=3))
        assert Aw.shape == (30, 1, 3) and np.all(Aw == region.A) and np.all(bw == region.b)

    def test_motions_carry_the_region_and_the_moved_region2(self, monkeypatch):
        P2 = cube(2).transformed(random_rotation(stream(9, 0), 2), np.array([0.2, 0.1]))
        region, region2 = Region.box([-1, -1], [0.5, 2]), Region([[1.0, 1.0]], [1.2])
        *_, Aw, bw = self._blocks(monkeypatch, lambda: kinematic_lhs(
            cube(2), P2, 0, region=region, region2=region2, samples=30, seed=3))
        batch = sample_motions_coupling(cube(2), P2, 30, seed=3)
        for i, (rho, t) in enumerate(zip(batch.rotations, batch.translations)):
            moved = region2.transformed(rho, t)
            np.testing.assert_allclose(Aw[i], np.vstack([region.A, moved.A]), rtol=0, atol=1e-15)
            np.testing.assert_allclose(bw[i], np.concatenate([region.b, moved.b]), rtol=0, atol=1e-14)

    def test_the_whole_space_has_no_rows(self, monkeypatch):
        P2 = cube(2).transformed(random_rotation(stream(9, 0), 2), np.array([0.2, 0.1]))
        for run in (lambda: crofton_lhs(cube(3), 2, 1, samples=30, seed=3),
                    lambda: kinematic_lhs(cube(2), P2, 0, samples=30, seed=3)):
            *_, Aw, bw = self._blocks(monkeypatch, run)
            assert Aw.shape[:2] == bw.shape == (30, 0)


class TestSmallVerifications:
    def test_crofton_2d_scalar(self):
        rep = crofton_verify(cube(2), 1, 0, samples=20000, seed=1)
        assert rep.passed
        assert rep.rhs.value() == pytest.approx(4 / math.pi, rel=1e-12)

    def test_crofton_2d_triangle_generic(self):
        rep = crofton_verify(simplex(2), 1, 1, s=1, samples=4000, seed=2)
        assert rep.passed

    def test_crofton_3d_k1_j1(self):
        rep = crofton_verify(cube(3), 1, 1, samples=20000, seed=3)
        assert rep.passed

    def test_crofton_3d_k2_j1(self):
        rep = crofton_verify(cube(3), 2, 1, samples=20000, seed=4)
        assert rep.passed

    def test_crofton_with_window(self):
        reg = Region.box([-1, -1], [0.5, 2])
        rep = crofton_verify(cube(2), 1, 1, region=reg, samples=4000, seed=5)
        assert rep.passed

    def test_kinematic_scalar_classical(self):
        P = cube(2)
        P2 = cube(2).transformed(random_rotation(stream(10, 0), 2))
        rep = kinematic_verify(P, P2, 0, samples=30000, seed=6)
        assert rep.passed
        # classical principal formula: sum_p alpha-type * V_p(P) C_{2-p}(P2)
        manual = sum(alpha(2, 0, 2 - p) * curvature_measure(P, p)
                     * curvature_measure(P2, 2 - p) for p in range(3))
        assert rep.rhs.value() == pytest.approx(manual, rel=1e-12)

    def test_kinematic_smoke_containment(self):
        # huge second body: P cap g P2 == P for every sampled motion with
        # translations confined near the centering offset -- the LHS becomes
        # phi_j(P) times the motion mass of full overlap; just check run + report
        P = cube(2)
        big = cube(2).scaled(50.0).transformed(t=np.array([-24.5, -24.5]))
        rep = kinematic_verify(P, big, 0, samples=2000, seed=7)
        assert rep.samples == 2000

    def test_report_fields(self):
        rep = crofton_verify(cube(2), 1, 0, samples=2000, seed=8)
        d = rep.to_dict()
        assert d["theorem"] == "crofton"
        assert {"lhs", "rhs", "stderr", "allowed"} <= set(d["coordinates"][0])
        assert d["samples"] == 2000


class TestIndependence:
    def test_enumeration_counts(self):
        assert len(independence_indices(2, 2)) == 10
        assert len(independence_indices(3, 2)) == 15
        # p = 0: one index per j
        assert len(independence_indices(2, 0)) == 3

    def test_rank_small(self):
        rank, count, _ = independence_rank(2, 0, trials=4, seed=1)
        assert (rank, count) == (3, 3)

    def test_rank_22(self):
        rank, count, _ = independence_rank(2, 2, trials=6, seed=2)
        assert (rank, count) == (10, 10)

    def test_rank_24_on_polygons(self):
        """Boxes tie phi_0^{0,4,0} to Q phi_0^{0,2,0} and Q^2 phi_0^{0,0,0};
        polygons with generic vertex angles do not."""
        rank, count, sv = independence_rank(2, 4, trials=6, seed=3)
        assert (rank, count) == (21, 21)
        assert sv[-1] / sv[0] > 1e-6


class TestOwnStreams:
    """Steiner's points and the independence bodies draw from streams that
    the flat and motion samplers never read under the same seed."""

    @pytest.mark.parametrize("run", [lambda: steiner_check(cube(2), [0.25], samples=1000, seed=5),
                                     lambda: independence_rank(2, 0, trials=1, seed=5)],
                             ids=["steiner", "independence"])
    def test_no_key_shared_with_the_samplers(self, monkeypatch, run):
        keys = {}

        def recording(name):
            def recorded(seed, index=0, purpose=0):
                keys.setdefault(name, set()).add((seed, index, purpose))
                return stream(seed, index, purpose)
            return recorded
        monkeypatch.setattr(verify_module, "stream", recording("check"))
        monkeypatch.setattr(flats_module, "stream", recording("samplers"))
        run()
        sample_flats_hitting(cube(2), 1, 10, seed=5)
        sample_motions_coupling(cube(2), cube(2), 10, seed=5)
        assert keys["check"] and keys["samplers"] and not keys["check"] & keys["samplers"]


class TestSteiner:
    def test_eps_zero_is_volume(self):
        rep = steiner_check(cube(2), [0.0], samples=200000, seed=1)
        assert rep.steiner_volume[0] == pytest.approx(1.0)
        assert rep.rel_error[0] < 0.01

    def test_square_eps_one_exact_value(self):
        rep = steiner_check(cube(2), [1.0], samples=200000, seed=2)
        assert rep.steiner_volume[0] == pytest.approx(1 + 4 + math.pi, rel=1e-12)
        assert rep.rel_error[0] < 0.01

    def test_triangle(self):
        rep = steiner_check(simplex(2), [0.5], samples=200000, seed=3)
        expected = 0.5 + 0.5 * (2 + math.sqrt(2)) + math.pi * 0.25
        assert rep.steiner_volume[0] == pytest.approx(expected, rel=1e-12)
        assert rep.rel_error[0] < 0.01

    def test_cube4_passes_the_gate(self):
        P = cube(4)
        rep = steiner_check(P, [0.25, 0.5], samples=200000, seed=4)
        for mc, se, exact in zip(rep.mc_volume, rep.mc_stderr, rep.steiner_volume):
            assert abs(mc - exact) <= 3 * se
        # V_q of the unit 4-cube is C(4, q)
        assert rep.steiner_volume[1] == pytest.approx(
            sum(math.comb(4, q) * math.pi ** ((4 - q) / 2) / math.gamma((4 - q) / 2 + 1) * 0.5 ** (4 - q)
                for q in range(5)), rel=1e-12)

    def test_lower_dimensional_body_is_rejected(self):
        segment = Polytope.from_vertices([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(GeometryError, match="full-dimensional"):
            steiner_check(segment, [0.5], samples=1000)


# -- the triangle/segment distance the Steiner check used before the face lattice

def _point_segment_dist2(x, a, b):
    ab = b - a
    tt = np.clip(((x - a) @ ab) / (ab @ ab), 0.0, 1.0)
    d = x - (a + tt[:, None] * ab)
    return np.einsum("ij,ij->i", d, d)


def _point_triangle_dist2(x, a, b, c):
    """Project onto the plane of abc; outside the triangle, the nearest of
    its three edges."""
    e1, e2 = b - a, c - a
    w = x - a
    g11, g12, g22 = e1 @ e1, e1 @ e2, e2 @ e2
    r1, r2 = w @ e1, w @ e2
    det = g11 * g22 - g12 * g12
    u = (g22 * r1 - g12 * r2) / det
    vv = (g11 * r2 - g12 * r1) / det
    inside = (u >= 0) & (vv >= 0) & (u + vv <= 1)
    d_in = x - (a + u[:, None] * e1 + vv[:, None] * e2)
    edge = np.minimum(_point_segment_dist2(x, a, b),
                      np.minimum(_point_segment_dist2(x, a, c), _point_segment_dist2(x, b, c)))
    return np.where(inside, np.einsum("ij,ij->i", d_in, d_in), edge)


def _oracle_dist2(P, x):
    """Squared distance from each row of x to P (n in {2, 3}): zero where
    P.contains, else the least over the fan triangles of every facet.  (Its
    branch for degenerate triangles is gone: `triangulate` drops them.)"""
    d2 = np.full(len(x), np.inf)
    for f in range(len(P.b)):
        facet = Polytope.from_vertices(P.vertices[P.incidence[:, f]])
        for simp in triangulate(facet):
            d2 = np.minimum(d2, _point_segment_dist2(x, *simp) if P.dim == 2
                            else _point_triangle_dist2(x, *simp))
    return np.where(P.contains(x), 0.0, d2)


def _near_faces(P, eps, rng):
    """Points within 1e-9 of every face below P (inside and out, along an
    outer normal of the face) and within 1e-9 of eps from it, plus points
    within 1e-9 of each face's centre in random directions."""
    A, _ = P.ambient_halfspaces()
    out = []
    for k in range(P.dim):
        for face in P.faces(k):
            u = A[np.all(P.incidence[list(face.vertex_indices)], axis=0)].sum(axis=0)
            u /= np.linalg.norm(u)
            for t in (-1e-9, 1e-9, eps - 1e-9, eps + 1e-9):
                out.append(face.point + t * u)
            w = rng.standard_normal((4, P.dim))
            out.extend(face.point + 1e-9 * rng.random((4, 1)) * w / np.linalg.norm(w, axis=1)[:, None])
    return np.array(out)


def _rotated_cube(n, seed):
    rng = stream(seed, 0)
    return cube(n).transformed(random_rotation(rng, n), rng.random(n) - 0.5)


_STEINER_BODIES = [random_polytope(2, npoints=8, seed=s) for s in (1, 2)] \
    + [random_polytope(3, npoints=12, seed=s) for s in (3, 4)] \
    + [_rotated_cube(2, 5), _rotated_cube(3, 6), simplex(3)]


class TestWithin:
    """`_within` reads the face lattice; its mask equals the triangle/segment
    oracle's d2 <= eps^2, and a Steiner report equals the one the oracle
    gives on the same draws."""

    @pytest.mark.parametrize("body", range(len(_STEINER_BODIES)))
    @pytest.mark.parametrize("eps", [0.0, 0.25, 1.0])
    def test_mask_equals_the_oracle(self, body, eps):
        P = _STEINER_BODIES[body]
        rng = stream(body, 1)
        lo, hi = P.vertices.min(axis=0) - eps - 0.1, P.vertices.max(axis=0) + eps + 0.1
        x = np.vstack([lo + (hi - lo) * rng.random((20000, P.dim)), _near_faces(P, eps, rng)])
        want = _oracle_dist2(P, x) <= eps * eps
        assert np.array_equal(verify_module._within(P, x, eps), want)
        assert 0 < np.count_nonzero(want) < len(x)

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.7])
    def test_rotated_4cube_equals_the_box_distance(self, eps):
        rng = stream(7, 0)
        rho, t = random_rotation(rng, 4), rng.random(4) - 0.5
        P = cube(4).transformed(rho, t)
        z = -1.0 + 3.0 * rng.random((40000, 4))                         # cube coordinates
        dist = np.linalg.norm(np.maximum(np.abs(z - 0.5) - 0.5, 0.0), axis=1)
        got = verify_module._within(P, z @ rho.T + t, eps)
        assert np.array_equal(got, dist <= eps)
        assert 0 < np.count_nonzero(got) < len(z)

    @pytest.mark.parametrize("body", [cube(2), simplex(2), cube(3)] + _STEINER_BODIES[1::2],
                             ids=range(6))
    def test_reports_equal_the_oracle(self, monkeypatch, body):
        got = steiner_check(body, [0.0, 0.25, 1.0], samples=30000, seed=11)
        monkeypatch.setattr(verify_module, "_within", lambda P, x, eps: _oracle_dist2(P, x) <= eps * eps)
        want = steiner_check(body, [0.0, 0.25, 1.0], samples=30000, seed=11)
        assert got.mc_volume == want.mc_volume and got.mc_stderr == want.mc_stderr

    def test_builds_no_polytope(self):
        P = random_polytope(3, npoints=14, seed=3)
        with mock.patch.object(Polytope, "from_vertices", wraps=Polytope.from_vertices) as build:
            steiner_check(P, [0.25, 1.0], samples=20000, seed=1)
        assert build.call_count == 0
