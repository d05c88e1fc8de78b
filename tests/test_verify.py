import functools
import itertools
import math
from unittest import mock

import numpy as np
import pytest

from tensorgeo.coeffs import (alpha, c_norm, cor38_coeff, d_coeff, iota, kappa_coeff,
                              lambda_coeff, thm31_coeff)
import tensorgeo.flats as flats_module
import tensorgeo.verify as verify_module
from tensorgeo.flats import (random_rotation, rotation_blocks, sample_flats_hitting,
                             sample_motions_coupling)
from tensorgeo.measures import curvature_measure, tcm
from tensorgeo.polytope import (EmptyPolytopeError, GeometryError, GrazingIntersectionError,
                                Polytope, Region, builtin_polytope, cross_polytope, cube,
                                _flat_section, intersect_flat, random_polytope, simplex,
                                simplex_moment, triangulate)
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

from test_conemoment import _arc_per_integral, _lune_per_integral, _product_cone_moment


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
                                                                   samples=10),
                                     lambda j, l: crofton_lhs(cube(3), 1, j, l=l, samples=200),
                                     lambda j, l: kinematic_lhs(cube(2), cube(2), j, l=l, samples=50)],
                             ids=["crofton_rhs", "kinematic_rhs", "kinematic_verify", "crofton_lhs",
                                  "kinematic_lhs"])
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
    """crofton_lhs on the per-sample evaluator, whatever the index."""
    with mock.patch.object(verify_module, "_face_sum", lambda *args: False):
        return crofton_lhs(P, k, j, r, s, l, samples=samples, seed=seed, **windows)


def _kinematic_reference(P, P2, j, r=0, s=0, l=0, samples=10000, seed=0, **windows):
    """kinematic_lhs on the per-sample evaluator, whatever the index."""
    with mock.patch.object(verify_module, "_face_sum", lambda *args: False):
        return kinematic_lhs(P, P2, j, r, s, l, samples=samples, seed=seed, **windows)


def _agree(fast, slow):
    """The face sum and the per-sample reference estimate one integral from
    the same rotations, the first with the translations integrated exactly
    and the second with them sampled: in every coordinate they differ by at
    most four combined standard errors, with the 1e-9 floor of the
    reports."""
    gap = np.abs(fast[0].coordinates_array() - slow[0].coordinates_array())
    allowed = 4.0 * np.hypot(fast[1].coordinates_array(), slow[1].coordinates_array()) + 1e-9
    assert np.all(gap <= allowed), float(np.max(gap / allowed))


class TestKernelsAgainstGenericPath:
    """The face sum must agree with the per-sample polytope path on the
    samplers' streams (`_agree`)."""

    @pytest.mark.parametrize("cfg", [
        dict(k=1, j=0), dict(k=1, j=1, s=2), dict(k=1, j=1, s=0, l=1),
        dict(k=1, j=1, s=4), dict(k=1, j=1, s=2, l=1)])
    def test_line_kernel_2d(self, cfg):
        P = cube(2)
        fast = crofton_lhs(P, samples=400, seed=21, **cfg)
        slow = _crofton_reference(P, samples=400, seed=21, **cfg)
        _agree(fast, slow)

    @pytest.mark.parametrize("cfg", [
        dict(k=1, j=1, s=2), dict(k=1, j=0), dict(k=2, j=1, s=2),
        dict(k=2, j=1, s=0), dict(k=2, j=1, s=1), dict(k=2, j=1, s=2, l=1),
        dict(k=2, j=1, s=4), dict(k=2, j=1, s=3, l=1), dict(k=1, j=1, s=4, l=1)])
    def test_kernels_3d(self, cfg):
        P = cube(3)
        fast = crofton_lhs(P, samples=250, seed=22, **cfg)
        slow = _crofton_reference(P, samples=250, seed=22, **cfg)
        _agree(fast, slow)

    def test_kernels_on_rotated_simplex(self):
        rho = random_rotation(stream(8, 0), 3)
        P = simplex(3).transformed(rho, np.array([0.2, -0.1, 0.4]))
        fast = crofton_lhs(P, k=2, j=1, s=2, samples=250, seed=23)
        slow = _crofton_reference(P, k=2, j=1, s=2, samples=250, seed=23)
        _agree(fast, slow)

    def test_motion_kernel(self):
        P = cube(2)
        P2 = cube(2).transformed(random_rotation(stream(9, 0), 2), np.array([0.2, 0.1]))
        for (r, s) in [(0, 0), (0, 1), (0, 2), (1, 1), (2, 0), (0, 4), (1, 3), (2, 2), (4, 0)]:
            fast = kinematic_lhs(P, P2, 0, r=r, s=s, samples=150, seed=24)
            slow = _kinematic_reference(P, P2, 0, r=r, s=s, samples=150, seed=24)
            _agree(fast, slow)


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
        _agree(fast, slow)

    @pytest.mark.parametrize("j, r, s, l", [(0, 1, 5, 0), (1, 0, 2, 0), (1, 0, 3, 1)])
    def test_more_planar_motions(self, j, r, s, l):
        P = cube(2)
        P2 = cube(2).transformed(random_rotation(stream(9, 0), 2), np.array([0.2, 0.1]))
        fast = kinematic_lhs(P, P2, j, r=r, s=s, l=l, samples=150, seed=26)
        slow = _kinematic_reference(P, P2, j, r=r, s=s, l=l, samples=150, seed=26)
        _agree(fast, slow)

    def test_blocks_of_samples(self, monkeypatch):
        """Evaluation blocks of 7 give the default blocks' estimates and
        standard errors on both evaluators: 20 samples are two full blocks
        and a partial one on the per-sample path, and the face sum's blocks
        hold max(1, 56 // pairs) rotations, one for the 36 facet pairs of
        two cubes."""
        P2 = cube(2).transformed(random_rotation(stream(9, 0), 2), np.array([0.2, 0.1]))
        runs = [(crofton_lhs, _crofton_reference, (cube(2), 1, 1), dict(s=2)),
                (crofton_lhs, _crofton_reference, (cube(3), 2, 0), dict(s=2)),
                (crofton_lhs, _crofton_reference, (cube(3), 2, 1), dict(s=1, l=1)),
                (kinematic_lhs, _kinematic_reference, (cube(2), P2, 0), dict(r=1, s=1)),
                (kinematic_lhs, _kinematic_reference, (cube(3), _turned_cube3(), 2),
                 dict(r=1, s=1))]
        calls = [(lhs, args, kw) for batched, reference, args, kw in runs
                 for lhs in (batched, reference)]
        default = [lhs(*args, samples=20, seed=27, **kw) for lhs, args, kw in calls]
        monkeypatch.setattr(verify_module, "_BATCH", 7)
        for (lhs, args, kw), (est, err, _) in zip(calls, default):
            est7, err7, _ = lhs(*args, samples=20, seed=27, **kw)
            assert _relative_gap(est7, est) <= 1e-13
            assert _relative_gap(err7, err) <= 1e-13

    @pytest.mark.parametrize("theorem, run", [
        ("kinematic", lambda lhs: lhs(cube(3), _turned_cube3(), 2, r=1, s=2, l=1, samples=200,
                                      seed=49)),
        ("kinematic", lambda lhs: lhs(cube(3), _turned_cube3(), 3, r=1, l=1, samples=200, seed=49)),
        ("kinematic", lambda lhs: lhs(cube(4), _turned_cube4(), 2, s=2, samples=200, seed=49)),
        ("kinematic", lambda lhs: lhs(cube(4), _turned_cube4(), 3, r=1, s=1, samples=200, seed=49)),
        ("kinematic", lambda lhs: lhs(cube(4), _turned_cube4(), 4, r=1, l=1, samples=200, seed=49)),
        ("crofton", lambda lhs: lhs(cube(4), 3, 3, r=1, s=2, l=1, samples=200, seed=49))],
        ids=["motions3-j2", "motions3-j3", "motions4-j2", "motions4-j3", "motions4-j4",
             "crofton-4-3-3"])
    def test_indices_new_to_the_face_sum(self, theorem, run):
        """Motions in R^3 at j = 2, 3 and in R^4 at j >= 2, and 3-flat
        sections of the 4-cube at j = 3, which only the per-sample evaluator
        measured before the face sum took them."""
        lhs, reference = {"crofton": (crofton_lhs, _crofton_reference),
                          "kinematic": (kinematic_lhs, _kinematic_reference)}[theorem]
        fast, slow = run(lhs), run(reference)
        _agree(fast, slow)
        assert np.abs(fast[0].data).max() > 1e-3

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
        _agree(fast, slow)
        assert np.abs(fast[0].data).max() > 1e-3

    @pytest.mark.parametrize("which, j, r, s, l", [
        ("region", 0, 0, 2, 0), ("region", 1, 1, 1, 0), ("region2", 0, 1, 3, 0),
        ("region2", 1, 0, 2, 1)])
    def test_windowed_planar_motions(self, which, j, r, s, l):
        P2 = cube(2).transformed(random_rotation(stream(9, 0), 2), np.array([0.2, 0.1]))
        window = {which: _WINDOWS["box2" if which == "region" else "half2"]}
        fast = kinematic_lhs(cube(2), P2, j, r=r, s=s, l=l, samples=150, seed=42, **window)
        slow = _kinematic_reference(cube(2), P2, j, r=r, s=s, l=l, samples=150, seed=42, **window)
        _agree(fast, slow)

    @pytest.mark.parametrize("body, cfg", [
        ("cube2", dict(k=1, j=1, r=1)), ("cube3", dict(k=1, j=1, r=2, s=2)),
        ("cube4", dict(k=1, j=1, r=1, l=1)), ("cube3", dict(k=2, j=1, r=1, s=1)),
        ("simplex3", dict(k=2, j=1, r=2, s=2)), ("cube4", dict(k=2, j=1, r=1, s=2))])
    def test_position_moments_of_segments_and_edges(self, body, cfg):
        P = _BODIES[body]()
        fast = crofton_lhs(P, samples=150, seed=43, **cfg)
        slow = _crofton_reference(P, samples=150, seed=43, **cfg)
        _agree(fast, slow)

    @pytest.mark.parametrize("r, s, l", [(1, 0, 0), (2, 1, 0), (1, 2, 1), (2, 0, 1)])
    def test_position_moments_of_motion_edges(self, r, s, l):
        P2 = cube(2).transformed(random_rotation(stream(9, 0), 2), np.array([0.2, 0.1]))
        fast = kinematic_lhs(cube(2), P2, 1, r=r, s=s, l=l, samples=150, seed=44)
        slow = _kinematic_reference(cube(2), P2, 1, r=r, s=s, l=l, samples=150, seed=44)
        _agree(fast, slow)

    @pytest.mark.parametrize("j, r, s, l", [
        (1, 0, 0, 0), (1, 1, 2, 1), (1, 2, 3, 0), (2, 0, 0, 0), (2, 0, 2, 1), (2, 1, 3, 1),
        (2, 2, 1, 0)])
    def test_cube_motions_in_space(self, j, r, s, l):
        """Edges (arcs) and 2-faces (rays) of P cap gP2 in R^3."""
        fast = kinematic_lhs(cube(3), _turned_cube3(), j, r=r, s=s, l=l, samples=150, seed=45)
        slow = _kinematic_reference(cube(3), _turned_cube3(), j, r=r, s=s, l=l, samples=150, seed=45)
        _agree(fast, slow)

    @pytest.mark.parametrize("j, r, s, l", [(1, 0, 2, 0), (2, 1, 1, 1)])
    def test_cube_against_a_cross_polytope(self, j, r, s, l):
        """Four facets meet at each apex of the cross-polytope, so lines of
        opposite facets there meet the intersection in a point at most."""
        P2 = cross_polytope(3).transformed(random_rotation(stream(5, 0), 3),
                                           np.array([0.3, 0.1, 0.0]))
        fast = kinematic_lhs(cube(3), P2, j, r=r, s=s, l=l, samples=150, seed=46)
        slow = _kinematic_reference(cube(3), P2, j, r=r, s=s, l=l, samples=150, seed=46)
        _agree(fast, slow)

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
        _agree(fast, slow)
        assert np.abs(fast[0].data).max() > 1e-3

    @pytest.mark.parametrize("which, j, r, s, l", [("region", 2, 1, 2, 0), ("region2", 1, 0, 2, 1)])
    def test_windowed_cube_motions_in_space(self, which, j, r, s, l):
        window = {which: _WINDOWS["box3" if which == "region" else "half3"]}
        fast = kinematic_lhs(cube(3), _turned_cube3(), j, r=r, s=s, l=l, samples=150, seed=48,
                             **window)
        slow = _kinematic_reference(cube(3), _turned_cube3(), j, r=r, s=s, l=l, samples=150,
                                    seed=48, **window)
        _agree(fast, slow)
        assert np.abs(fast[0].data).max() > 1e-3



def _turned_cube3():
    return cube(3).transformed(random_rotation(stream(12, 0), 3), np.array([0.1, 0.2, -0.1]))


def _turned_cube4():
    return cube(4).transformed(random_rotation(stream(12, 0), 4), np.array([0.1, 0.2, -0.1, 0.3]))


_WINDOWS = {"box2": Region.box([-1, -1], [0.5, 2]), "half2": Region([[1.0, 1.0]], [1.2]),
            "box3": Region.box([-1, -1, -1], [0.6, 2.0, 0.7]),
            "half3": Region([[1.0, 1.0, -0.5]], [0.9])}

_BODIES = {
    "cube2": lambda: cube(2), "cube3": lambda: cube(3), "cube4": lambda: cube(4),
    "simplex3": lambda: simplex(3).transformed(random_rotation(stream(8, 0), 3),
                                               np.array([0.2, -0.1, 0.4])),
}


def _hexagon(turn, shift):
    angles = 2 * math.pi * np.arange(6) / 6 + turn
    return Polytope.from_vertices(np.c_[np.cos(angles), np.sin(angles)] + shift)


def _relative_gap(a, b, floor=0.0):
    """max |a - b| relative to max |b|, or to the floor where that is larger."""
    return np.abs(a.data - b.data).max() / max(np.abs(b.data).max(), floor)


# -- a face sum from other code ------------------------------------------------

def _normal_frame(face, n):
    """An orthonormal basis (n, n - dim F) of the normal space of a face."""
    return np.linalg.svd(np.eye(n) - face.frame @ face.frame.T)[0][:, :n - face.j]


def _triangulated_moment(face, r, n):
    """M_r(F) from a triangulation of the face."""
    if face.j == 0:
        return vector_power(face.vertices[0], r)
    pieces = triangulate(Polytope.from_vertices(face.vertices))
    return functools.reduce(SymTensor.__add__, [simplex_moment(p, r) for p in pieces],
                            SymTensor.zero(n, r))


def _oracle_cone(n, s, rays, W):
    """M_s of pos(rays) + span(W) for q <= 2 unit rays (m, q, n) orthogonal
    to W (m, n, w), by `test_conemoment`'s per-integral closed forms: an
    orthant product, an arc, or a lune about one line."""
    if rays.shape[1] < 2:
        return _product_cone_moment(n, s, np.swapaxes(rays, 1, 2), W)
    a, b = rays[:, 0], rays[:, 1]
    cos = np.einsum("mi,mi->m", a, b)
    turn = b - cos[:, None] * a
    sin = np.linalg.norm(turn, axis=1)
    pb = turn / sin[:, None]
    if W.shape[2] == 0:
        return _arc_per_integral(n, s, a, pb, 0.0, np.arctan2(sin, cos))
    return _lune_per_integral(n, s, a, pb, 0.0, np.arctan2(sin, cos), W[:, :, 0])


def _oracle_pair(n, j, r, s, l, moment, V, rays, weight, W):
    """One pair's term for each rotation: [F, G] from the determinant of
    the Gram matrix of the normal frames V (m, n, n - j), Q(S) from an
    orthonormal basis of their orthogonal complement, and the cone of the
    unit rays (m, q, n) and W."""
    m = len(V)
    size = np.sqrt(np.linalg.det(np.swapaxes(V, 1, 2) @ V))
    basis = np.linalg.svd(V)[0][:, :, n - j:]
    qs = vector_power(np.swapaxes(basis, 1, 2), 2).sum(axis=(1,))
    cone = _oracle_cone(n, s, rays, W)
    term = (SymTensor(n, r, np.broadcast_to(moment.data, (m,) + moment.data.shape))
            * qs.power(l) * cone)
    return term.scale(size * weight)


def _dense_crofton(P, k, j, r, s, l, rho):
    """Per rotation, the translation integral of the Crofton integrand by a
    loop over the faces F: the rays of N(P, F) projected onto L and
    normalised, with L's complement W."""
    n, m = P.dim, len(rho)
    L, W = rho[:, :, :k], rho[:, :, k:]
    out = SymTensor(n, r + s + 2 * l, np.zeros((m, len(multi_degrees(n, r + s + 2 * l)))))
    for face in P.faces(n - k + j):
        V = np.concatenate([np.broadcast_to(_normal_frame(face, n), (m, n, k - j)), W], axis=2)
        rays = np.einsum("qi,mik,mjk->mqj", P.normal_cone(face).rays, L, L)
        rays /= np.linalg.norm(rays, axis=2)[..., None]
        out = out + _oracle_pair(n, j, r, s, l, _triangulated_moment(face, r, n), V, rays, 1.0, W)
    return out.scale(c_norm(n, j, r, s, l) / omega(n - j))


def _dense_motions(P, P2, j, r, s, l, rho):
    """The same for motions in the plane at j < 2: a loop over the pairs of
    faces F of P and F' of P2 with dim F + dim F' = 2 + j, weighted by the
    size of F'."""
    n, m = 2, len(rho)
    out = SymTensor(n, r + s + 2 * l, np.zeros((m, len(multi_degrees(n, r + s + 2 * l)))))
    for a in range(j, n + 1):
        for F in P.faces(a):
            for G in P2.faces(n + j - a):
                V = np.concatenate([np.broadcast_to(_normal_frame(F, n), (m, n, n - a)),
                                    rho @ _normal_frame(G, n)], axis=2)
                rays = np.concatenate([np.broadcast_to(P.normal_cone(F).rays, (m, n - a, n)),
                                       P2.normal_cone(G).rays @ np.swapaxes(rho, 1, 2)], axis=1)
                out = out + _oracle_pair(n, j, r, s, l, _triangulated_moment(F, r, n), V, rays,
                                         _triangulated_moment(G, 0, n).value(), np.zeros((m, n, 0)))
    return out.scale(c_norm(n, j, r, s, l) / omega(n - j))


def _drawn_rotations(n, samples, seed):
    return np.concatenate([rho for _, rho, _ in rotation_blocks(n, samples, seed)])


def _mean_and_stderr(values):
    coords = values.coordinates_array()
    mean = coords.mean(axis=0)
    se = np.sqrt(np.maximum((coords ** 2).mean(axis=0) - mean ** 2, 0.0) / len(coords))
    return (SymTensor.from_coordinates(values.dim, values.rank, mean),
            SymTensor.from_coordinates(values.dim, values.rank, se))


class TestFacesThatExist:
    """The face sum's integrand, per rotation, against a loop over faces
    or face pairs from other code (`_dense_crofton`, `_dense_motions`): the
    estimates over the samplers' rotations agree to 1e-12 and their
    standard errors to 1e-9, relative to the estimate or to the bodies'
    unit scale, where the estimate is smaller (odd s at j = 1 cancels to
    rounding)."""

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
        dense = _mean_and_stderr(_dense_crofton(P, cfg["k"], cfg["j"], cfg["r"], cfg["s"], cfg["l"],
                                                _drawn_rotations(P.dim, 1500, seed)))
        assert _relative_gap(est, dense[0], 1.0) <= 1e-12
        assert _relative_gap(err, dense[1], 1.0) <= 1e-9

    @pytest.mark.parametrize("pair, j, r, s, l", [
        ("squares", 0, 1, 3, 0), ("squares", 1, 0, 2, 1),
        ("hexagons", 0, 0, 4, 0), ("hexagons", 0, 2, 2, 0), ("hexagons", 1, 0, 3, 1)])
    @pytest.mark.parametrize("seed", [33, 34])
    def test_planar_motions_match_the_dense_assembly(self, pair, j, r, s, l, seed):
        P, P2 = {"squares": (cube(2), cube(2).transformed(random_rotation(stream(9, 0), 2),
                                                           np.array([0.2, 0.1]))),
                 "hexagons": (_hexagon(0.1, [0.0, 0.0]), _hexagon(0.4, [0.3, -0.2]))}[pair]
        est, err, _ = kinematic_lhs(P, P2, j, r=r, s=s, l=l, samples=1500, seed=seed)
        dense = _mean_and_stderr(_dense_motions(P, P2, j, r, s, l, _drawn_rotations(2, 1500, seed)))
        assert _relative_gap(est, dense[0], 1.0) <= 1e-12
        assert _relative_gap(err, dense[1], 1.0) <= 1e-9

    @staticmethod
    def _record(monkeypatch):
        """Per `_pointed` call, the number of rays of its cones and the
        number of face pairs it receives."""
        calls = []
        real = verify_module._pointed

        def pointed(n, s, l, rays, W, sectors):
            shape = np.broadcast_shapes(W.shape[:-2], *[x.shape[:-1] for x in rays])
            calls.append((len(rays), math.prod(shape)))
            return real(n, s, l, rays, W, sectors)
        monkeypatch.setattr(verify_module, "_pointed", pointed)
        monkeypatch.setattr(verify_module, "_BATCH", 50)
        return calls

    @pytest.mark.parametrize("run, rays, pairs", [
        (lambda: kinematic_lhs(cube(2), _hexagon(0.4, [0.3, -0.2]), 0, s=2, samples=200, seed=35),
         2, [4, 24, 6]),
        (lambda: crofton_lhs(cube(3), 2, 0, s=2, samples=200, seed=35), 2, [12]),
        (lambda: crofton_lhs(cube(4), 2, 0, s=2, samples=200, seed=35), 2, [24]),
        (lambda: crofton_lhs(_BODIES["simplex3"](), 2, 1, s=2, samples=200, seed=35), 1, [4]),
        (lambda: crofton_lhs(cube(3), 1, 0, r=1, s=2, samples=200, seed=35), 1, [6]),
        (lambda: crofton_lhs(cube(3), 1, 1, s=2, samples=200, seed=35), 0, [1])],
        ids=["motion", "plane3", "plane4", "simplex-edges", "line-ends", "segments"])
    def test_cone_moments_receive_only_faces_that_exist(self, monkeypatch, run, rays, pairs):
        """Every pair of faces once per rotation, each level pair in blocks
        of 8 * 50 pairs: for the square and the hexagon, its 4 vertices
        against the hexagon, 4 x 6 edge pairs, and the square against the
        hexagon's 6 vertices."""
        calls = self._record(monkeypatch)
        run()
        blocks = [p * min(200 - at, max(1, 400 // p)) for p in pairs
                  for at in range(0, 200, max(1, 400 // p))]
        assert [size for _, size in calls] == blocks
        assert {got for got, _ in calls} == {rays}

    def test_blocks_without_a_hit(self, monkeypatch):
        """Blocks of 7 samples on the per-sample path, some of which hit
        nothing, give the estimate and stderr of the default blocks."""
        P2 = _turned_cube3()
        runs = [lambda: kinematic_lhs(cube(3), P2, 0, s=2, samples=40, seed=27, budget=400),
                lambda: crofton_lhs(cube(4), 3, 0, r=1, samples=40, seed=27)]
        default = [run() for run in runs]
        monkeypatch.setattr(verify_module, "_BATCH", 7)
        for run, (est, err, _) in zip(runs, default):
            est7, err7, _ = run()
            assert _relative_gap(est7, est) <= 1e-14
            assert _relative_gap(err7, err) <= 1e-14
        (A1, b1), (A2, b2) = cube(3).ambient_halfspaces(), P2.ambient_halfspaces()

        def hit(rho, t):        # whether P meets rho P2 + t
            try:
                Polytope.from_halfspaces(np.vstack([A1, A2 @ rho.T]),
                                         np.concatenate([b1, b2 + A2 @ rho.T @ t]))
            except EmptyPolytopeError:
                return False
            return True
        batch = sample_motions_coupling(cube(3), P2, 40, seed=27)
        hits = [hit(rho, t) for rho, t in zip(batch.rotations, batch.translations)]
        assert min(sum(hits[at:at + 7]) for at in range(0, 40, 7)) == 0


# -- one rotation, integrated by quadrature --------------------------------------

# the unit square, a corner cut (unnormalised) and a far row that no vertex touches
_PENTAGON = (np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0], [-1.0, 2.0]]),
             np.array([1.0, 0.0, 1.0, 0.0, 1.5, 10.0]))
_ONE_SECTION_INDICES = [(0, r, s, 0) for r in range(3) for s in range(4)] \
    + [(1, r, s, l) for r in range(3) for s in range(4) for l in range(2)]
# the unit cube with the corner at (1, 1, 1) cut off (unnormalised) and a far
# row that no vertex touches
_TRUNCATED_CUBE = (np.vstack([np.eye(3), -np.eye(3), [[1.0, 1.0, 1.0], [1.0, -2.0, 0.5]]]),
                   np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 2.4, 10.0]))
_SOLID_INDICES = [(j, r, s, l) for j in (1, 2) for r in range(3) for s in range(4) for l in range(2)]


def _prism(rows, n):
    """The rows of the body times [0, 1]^(n - d) in R^n."""
    A, b = rows
    d = A.shape[1]
    unit = np.vstack([np.eye(n - d), -np.eye(n - d)])
    return (np.block([[A, np.zeros((len(A), n - d))], [np.zeros((len(unit), d)), unit]]),
            np.concatenate([b, np.ones(n - d), np.zeros(n - d)]))


# kind -> (body rows, n, k, seed of the flat's rotation): the pentagon with
# lines, and with the whole plane as its one flat; its prism in R^3 with
# planes; the truncated cube with planes, and its prism in R^4 with 3-flats
_ONE_FLATS = {"line": (_PENTAGON, 2, 1, 13), "polygon": (_PENTAGON, 2, 2, 13),
              "polygon in R^3": (_prism(_PENTAGON, 3), 3, 2, 13),
              "axis line": (_PENTAGON, 2, 1, None),
              3: (_TRUNCATED_CUBE, 3, 2, 15), 4: (_prism(_TRUNCATED_CUBE, 4), 4, 3, 15)}


@functools.cache
def _one_flat(kind, window):
    """(P, k, rho, region, pieces) for one flat direction: rho's first k
    columns span L and the rest its complement.  The direction is a
    rotation from its seed's stream, or the x-axis, which is parallel to
    two of the pentagon's rows ("axis line").  The window is a box around
    (0.8, 0.6, 0.5, 0.5), which holds the pentagon's vertex (1, 0.5), or an
    oblique halfspace through (0.5, 0.4, 0.5, 0.5), each in the first n
    coordinates, and cuts the body.  pieces lists
    the sections P cap (L + h w), k = n - 1, at the 3-point Gauss-Legendre
    nodes between consecutive heights h = <w, v> of the vertices v of P and
    of its clip, with their weights: between them the sections' faces keep
    their combinatorics, so their moments are polynomials of degree
    j + r <= 5 in h, which the rule integrates exactly.  At k = n the one
    flat is the whole space."""
    rows, n, k, seed = _ONE_FLATS[kind]
    P = Polytope.from_halfspaces(*rows)
    rho = np.eye(n) if seed is None else random_rotation(stream(seed, n), n)
    region = {None: Region.universe(),
              "box": Region.box(np.array([0.8, 0.6, 0.5, 0.5][:n]) - 0.35,
                                np.array([0.8, 0.6, 0.5, 0.5][:n]) + 0.35),
              "halfspace": Region(stream(14, n).standard_normal(n)[None],
                                  [stream(14, n).standard_normal(n) @ [0.5, 0.4, 0.5, 0.5][:n]])}[window]
    if k == n:
        return P, k, rho, region, [(1.0, P)]
    A, b = P.ambient_halfspaces()
    B, w = rho[:, :k], rho[:, k]
    clip = P.intersect_region(region)
    heights = np.unique(np.round(np.concatenate([P.vertices @ w, clip.vertices @ w]), 12))
    nodes, weights = np.polynomial.legendre.leggauss(3)
    pieces = []
    for lo, hi in zip(heights[:-1], heights[1:]):
        for x, wt in zip(nodes, weights):
            q = (lo + hi) / 2 + (hi - lo) / 2 * x
            pieces.append(((hi - lo) / 2 * wt, _flat_section(A @ B, b - q * (A @ w), q * w, B)))
    return P, k, rho, region, pieces


def _one_rotation(kind, window, j, r, s, l):
    """(the face sum's integrand at the flat's rotation, the integral of
    tcm over the sections under the window)."""
    P, k, rho, region, pieces = _one_flat(kind, window)
    n = P.dim
    integrand = verify_module._crofton_pairs(P, k, j, r, s, l, region)
    got = SymTensor(n, r + s + 2 * l, integrand(rho[None])[0])
    want = functools.reduce(SymTensor.__add__, [tcm(sec, j, r, s, l, region=region).tensor.scale(wt)
                                                for wt, sec in pieces])
    return got, want


def _close(got, want):
    return got.max_abs_coordinate_diff(want) <= 1e-10 * max(1.0, np.abs(want.data).max())


class TestOneSection:
    """For one flat direction L, the face sum's integrand is the integral
    over L's translates of `tcm` of the sections (`_one_flat`), at every
    face level, with windows and with r, s, l > 0: hyperplanes in R^2, R^3
    and R^4, and the whole plane as the one flat."""

    @pytest.mark.parametrize("kind", ["polygon", "polygon in R^3", "line"])
    @pytest.mark.parametrize("j, r, s, l", _ONE_SECTION_INDICES)
    def test_equals_tcm(self, kind, j, r, s, l):
        assert _close(*_one_rotation(kind, None, j, r, s, l))

    @pytest.mark.parametrize("kind", ["polygon", "polygon in R^3", "line"])
    @pytest.mark.parametrize("window", ["box", "halfspace"])
    @pytest.mark.parametrize("j, r, s, l", _ONE_SECTION_INDICES)
    def test_windowed_equals_tcm(self, kind, window, j, r, s, l):
        got, want = _one_rotation(kind, window, j, r, s, l)
        assert _close(got, want)
        if r + s + l == 0:      # the window keeps part of the integral, not all of it
            assert 0.0 < want.value() < _one_rotation(kind, None, j, 0, 0, 0)[1].value()

    @pytest.mark.parametrize("window", [None, "box", "halfspace"])
    @pytest.mark.parametrize("r, s, l", [(r, s, l) for r in range(3) for s in range(4)
                                         for l in range(2)])
    def test_the_polygon_itself_equals_tcm(self, window, r, s, l):
        """j = k = 2 < n: each section is its own face, with the complement
        of L as its normal cone."""
        got, want = _one_rotation("polygon in R^3", window, 2, r, s, l)
        assert _close(got, want)
        if window and r + s + l == 0:
            assert 0.0 < want.value() < _one_rotation("polygon in R^3", None, 2, 0, 0, 0)[1].value()

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("window", [False, True])
    @pytest.mark.parametrize("j, r, s, l", _SOLID_INDICES)
    def test_truncated_cube_equals_tcm(self, n, window, j, r, s, l):
        """Edges and 2-faces of plane sections of the truncated cube, and of
        3-flat sections of its prism in R^4, whole or under the box, which
        cuts the corner's triangle and the edges and faces around it."""
        got, want = _one_rotation(n, "box" if window else None, j, r, s, l)
        assert _close(got, want)
        if window and r + s + l == 0:
            assert 0.0 < want.value() < _one_rotation(n, None, j, 0, 0, 0)[1].value()

    def test_line_parallel_to_a_violated_row_is_empty(self):
        """Lines along the x-axis are parallel to the rows y <= 1 and
        -y <= 0: the edges on those rows meet such a line in a point at
        most, so [F, L] = 0 drops them, and every index still equals the
        integral over the offsets."""
        P, k, rho, _, _ = _one_flat("axis line", None)
        assert np.allclose(np.abs(P._normal_rays(1)[:, 0] @ rho[:, 0]).min(), 0.0)
        for j, r, s, l in _ONE_SECTION_INDICES:
            assert _close(*_one_rotation("axis line", None, j, r, s, l))


# -- n = 2 by quadrature over the angle ------------------------------------------

def _polygon(points, seed):
    return Polytope.from_vertices(np.random.default_rng(seed).standard_normal((points, 2)))


_PLANAR = {"P": _polygon(6, 3), "P2": _polygon(5, 4)}
_PLANAR_WINDOW = Region.box([-0.5, -1.0], [1.0, 0.4])
_PLANAR_INDICES = [(j, r, s, l) for j in (0, 1, 2) for r in range(3) for s in range(5)
                   for l in range(2) if not (j == 0 and l) and not (j == 2 and s)]


def _angles(breaks, nodes=16):
    """Gauss-Legendre nodes and weights on [0, 2 pi), piecewise between the
    breakpoints (taken mod 2 pi), weights summing to one."""
    cuts = np.unique(np.concatenate([np.mod(breaks, 2 * math.pi), [0.0, 2 * math.pi]]))
    x, w = np.polynomial.legendre.leggauss(nodes)
    lo, hi = cuts[:-1, None], cuts[1:, None]
    return ((lo + hi) / 2 + (hi - lo) / 2 * x).ravel(), ((hi - lo) / 2 * w).ravel() / (2 * math.pi)


def _turns(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)


def _normal_angles(P):
    rays = P._normal_rays(1)[:, 0]
    return np.arctan2(rays[:, 1], rays[:, 0])


def _planar_gap(theorem, j, r, s, l, window):
    """The gap between the face sum integrated over the angle and the
    right-hand side, relative to the right-hand side or, where that is
    below 1 (it vanishes at odd s and j = k), to the bodies' unit scale.  The integrand
    is smooth between the angles where a direction of L is orthogonal to an
    edge normal (Crofton), or a moved edge normal is parallel to one of P's
    (motions)."""
    P, P2 = _PLANAR["P"], _PLANAR["P2"]
    region = _PLANAR_WINDOW if window else None
    phi = _normal_angles(P)
    if theorem == "crofton":
        theta, weight = _angles(np.concatenate([phi + math.pi / 2, phi - math.pi / 2]))
        values = verify_module._crofton_pairs(P, 1, j, r, s, l, region)(_turns(theta))
        want = crofton_rhs(P, 1, j, r, s, l, region=region)[0]
    else:
        diff = (phi[:, None] - _normal_angles(P2)[None]).ravel()
        theta, weight = _angles(np.concatenate([diff, diff + math.pi]))
        values = verify_module._kinematic_pairs(P, P2, j, r, s, l, region, region)(_turns(theta))
        want = kinematic_rhs(P, P2, j, r, s, l, region=region, region2=region)[0]
    return np.abs(weight @ values - want.data).max() / max(np.abs(want.data).max(), 1.0)


class TestPlanarQuadrature:
    """In R^2 the rotation integral is one angle, and the face sum's
    integrand a piecewise trigonometric polynomial: Gauss-Legendre between
    its breakpoints makes the left-hand side exact, so it must equal the
    right-hand side to 1e-12 for Crofton lines (k = 1) and motions of two
    random polygons, with and without windows."""

    def test_every_index_equals_the_right_hand_side(self):
        worst = max(_planar_gap(theorem, j, r, s, l, window)
                    for theorem in ("crofton", "kinematic") for window in (False, True)
                    for j, r, s, l in _PLANAR_INDICES if theorem == "kinematic" or j < 2)
        assert worst <= 1e-12

    def test_a_wrong_coefficient_fails(self, monkeypatch):
        """d_{2,1,1}^{2,0,1,1} (the top-measure term of the line Crofton
        formula at s = 2) off by 1e-6 relative: the quadrature sees it."""
        real = verify_module.d_coeff

        def wrong(n, j, k, s, l, i, m):
            value = real(n, j, k, s, l, i, m)
            return value * (1 + 1e-6) if (n, j, k, s, l, i, m) == (2, 1, 1, 2, 0, 1, 1) else value
        monkeypatch.setattr(verify_module, "d_coeff", wrong)
        assert _planar_gap("crofton", 1, 0, 2, 0, False) > 1e-12
        assert _planar_gap("kinematic", 1, 0, 2, 0, False) > 1e-12


class TestSampleCount:
    P2 = cube(2).transformed(random_rotation(stream(9, 0), 2), np.array([0.2, 0.1]))

    # generic: an index the face sum does not take (vertices of 3-flat
    # sections in R^4, or of intersections in R^3)
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
            if generic:
                kinematic_lhs(cube(3), _turned_cube3(), 0, samples=samples)
            else:
                kinematic_lhs(cube(2), self.P2, 0, samples=samples)

    @pytest.mark.parametrize("verify", [
        lambda samples: crofton_verify(cube(3), 2, 0, s=2, samples=samples),
        lambda samples: kinematic_verify(cube(3), _turned_cube3(), 0, samples=samples)],
        ids=["crofton", "kinematic"])
    def test_verifiers_check_before_measuring(self, monkeypatch, verify):
        # no measure of either side is computed for a count that fails
        def measure(*args, **kwargs):
            raise AssertionError("a measure was computed")
        monkeypatch.setattr(verify_module, "tcm", measure)
        monkeypatch.setattr(verify_module, "_face_pairs", measure)
        with pytest.raises(ValueError, match="at least one sample"):
            verify(0)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_steiner_check_needs_a_sample(self, samples):
        with pytest.raises(ValueError, match="at least one sample"):
            steiner_check(cube(2), [0.5], samples=samples)


class TestRejectedInput:
    """Arguments under which the identities do not hold as computed: bodies
    in different spaces, negative parallel distances, ranks outside the
    theorem, and negative orders r, s, l."""

    @pytest.mark.parametrize("call", [
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
        ids=["kinematic-lhs-dims", "kinematic-rhs-dims", "kinematic-rhs-dims-swapped",
             "steiner-eps", "independence-n", "independence-p", "independence-trials",
             "crofton-rhs-s", "kinematic-rhs-r", "crofton-lhs-l", "kinematic-lhs-s"])
    def test_raises_value_error(self, call):
        with pytest.raises(ValueError):
            call()


class TestRouting:
    """The index alone routes: d - j <= 2 takes the face sum (d = k for
    k-flats, d = n for motions), and the per-sample evaluator takes exactly
    Crofton (n, k, j) = (4, 3, 0), motions in R^3 at j = 0 and motions in
    R^4 at j <= 1."""

    @staticmethod
    def _refuse(monkeypatch, name):
        class Refused(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Refused
        monkeypatch.setattr(verify_module, name, refuse)
        return Refused

    def test_table_rows_take_the_batched_path(self, monkeypatch):
        self._refuse(monkeypatch, "_generic_lhs")
        for n in (2, 3, 4):
            for k in range(1, n):
                for j in range(k + 1):
                    if (n, k, j) != (4, 3, 0):
                        crofton_lhs(cube(n), k, j, s=2, l=int(j > 0), samples=5, seed=1)
        bodies = {2: (cube(2), cube(2).transformed(random_rotation(stream(9, 0), 2))),
                  3: (cube(3), _turned_cube3()), 4: (cube(4), _turned_cube4())}
        for n, (P, P2) in bodies.items():
            for j in range(max(0, n - 2), n + 1):
                kinematic_lhs(P, P2, j, s=2 * (j < n), samples=5, seed=1)
        window = Region.box([-1, -1], [0.5, 2])
        crofton_lhs(cube(2), 1, 1, region=window, samples=5, seed=1)
        kinematic_lhs(*bodies[2], 0, region2=window, samples=5, seed=1)

    def test_the_rest_reaches_the_generic_path(self, monkeypatch):
        self._refuse(monkeypatch, "_face_sum_lhs")
        Refused = self._refuse(monkeypatch, "_generic_lhs")
        cases = [
            lambda: crofton_lhs(cube(4), 3, 0, samples=5, seed=1),
            lambda: kinematic_lhs(cube(3), cube(3), 0, samples=5, seed=1),
            lambda: kinematic_lhs(cube(4), _turned_cube4(), 0, samples=5, seed=1),
            lambda: kinematic_lhs(cube(4), _turned_cube4(), 1, samples=5, seed=1),
        ]
        for case in cases:
            with pytest.raises(Refused):
                case()


class TestGenericPathErrors:
    def test_the_per_sample_error_is_the_weighted_sample_spread(self, monkeypatch):
        """Motions in n = 3 with j = 0: the intersections' vertex cones are
        sampled, each section on its own streams, so their errors are part
        of the spread of weight * values and do not add to it."""
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
        assert sum(mv.stderr.coordinates_array() for mv in seen).min() > 0.0     # sections carry errors
        np.testing.assert_allclose(err.coordinates_array(), coords.std(axis=0) / math.sqrt(samples),
                                   rtol=1e-9)

    def test_grazing_sections_are_counted_and_score_zero(self):
        """Lines in the square: one through the middle, one through the
        corner only (a point), one along the top edge (in a facet's line),
        and one that misses.  The two grazing ones, which `intersect_flat`
        rejects, are counted, and they score as the miss does: zero."""
        P = cube(2)
        diagonal = np.array([[1.0], [-1.0]]) / math.sqrt(2.0)
        flats = [(np.array([[1.0], [0.0]]), np.array([0.0, 0.5])), (diagonal, np.zeros(2)),
                 (np.array([[1.0], [0.0]]), np.array([0.0, 1.0])),
                 (np.array([[1.0], [0.0]]), np.array([0.0, 2.0]))]
        for B, q in flats[1:3]:
            with pytest.raises(GrazingIntersectionError):
                intersect_flat(P, B, q)

        def lhs(rows):
            sections = [(functools.partial(intersect_flat, P, *flats[i]), None) for i in rows]
            return verify_module._generic_lhs(2, 1, 0, 2, 0, sections, 1.0, 20000, 0)
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


class TestErrorCalibration:
    """A reported standard error is the spread an estimate has over seeds:
    the median |estimate - exact| / stderr is near 0.67, a Gaussian's.
    Summing errors that are independent, rather than adding them in
    quadrature, would put it far below."""

    @staticmethod
    def _median_z(est, exact, se):
        return float(np.median(np.abs(np.subtract(est, exact)) / np.asarray(se)))

    def test_vertex_cones_add_in_quadrature(self):
        """V_0 = 1 of a random body in R^3 whose nine vertex cones are
        sampled, over 100 seeds."""
        P = Polytope.from_vertices(stream(1, 0).standard_normal((12, 3)))
        mvs = [tcm(P, 0, budget=2000, seed=seed) for seed in range(100)]
        assert all(not mv.exact for mv in mvs)
        z = self._median_z([mv.tensor.value() for mv in mvs], 1.0, [mv.stderr.value() for mv in mvs])
        assert 0.45 <= z <= 0.95, z

    def test_the_per_sample_error_is_the_spread(self):
        """Motions of two cubes in R^3 at j = 0, s = 2 on the per-sample
        evaluator, whose sections' vertex cones are sampled, over 12 seeds;
        the cubes' right-hand side is exact."""
        P2 = cube(3).transformed(random_rotation(stream(12, 0), 3), np.array([0.1, 0.2, -0.1]))
        rows = []
        for seed in range(12):
            rep = kinematic_verify(cube(3), P2, 0, s=2, samples=50, seed=seed, budget=200)
            assert rep.evaluator == "per-sample" and not rep.rhs_stderr.data.any()
            rows += rep.coordinate_rows()
        z = self._median_z([r["lhs"] for r in rows], [r["rhs"] for r in rows],
                           [r["stderr"] for r in rows])
        assert 0.45 <= z <= 0.95, z


class TestSectionBlocks:
    """The sections and windows each theorem hands to the per-sample
    evaluator: for every flat E, P cap E by `intersect_flat` and the
    region, and for a motion g = (rho, t) the region cut by region2 moved
    by g."""

    @staticmethod
    def _sections(monkeypatch, run):
        seen = []

        def record(n, j, r, s, l, sections, *args):
            seen.append(sections)
            return None, None, 0
        monkeypatch.setattr(verify_module, "_generic_lhs", record)
        run()
        return seen[0]

    def test_flats_carry_the_region(self, monkeypatch):
        region = Region([[1.0, 1.0, -0.5, 0.2]], [0.9])
        sections = self._sections(monkeypatch, lambda: crofton_lhs(cube(4), 3, 0, region=region,
                                                                   samples=30, seed=3))
        batch = sample_flats_hitting(cube(4), 3, 30, seed=3)
        assert len(sections) == 30 and all(window is region for _, window in sections)
        for (build, _), B, q in zip(sections, batch.frames, batch.points):
            got, want = build(), intersect_flat(cube(4), B, q)
            assert (got is None) == (want is None)
            assert got is None or np.array_equal(got.vertices, want.vertices)

    def test_motions_carry_the_region_and_the_moved_region2(self, monkeypatch):
        P2 = _turned_cube3()
        region, region2 = Region.box([-1, -1, -1], [0.5, 2, 2]), Region([[1.0, 1.0, 0.0]], [1.2])
        sections = self._sections(monkeypatch, lambda: kinematic_lhs(
            cube(3), P2, 0, region=region, region2=region2, samples=30, seed=3))
        batch = sample_motions_coupling(cube(3), P2, 30, seed=3)
        assert len(sections) == 30
        for (_, window), rho, t in zip(sections, batch.rotations, batch.translations):
            moved = region2.transformed(rho, t)
            np.testing.assert_allclose(window.A, np.vstack([region.A, moved.A]), rtol=0, atol=1e-15)
            np.testing.assert_allclose(window.b, np.concatenate([region.b, moved.b]), rtol=0, atol=1e-14)

    def test_the_whole_space_has_no_rows(self, monkeypatch):
        for run in (lambda: crofton_lhs(cube(4), 3, 0, samples=30, seed=3),
                    lambda: kinematic_lhs(cube(3), _turned_cube3(), 0, samples=30, seed=3)):
            sections = self._sections(monkeypatch, run)
            assert len(sections) == 30
            assert all(window is None or window.is_universe for _, window in sections)


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
