import math
from unittest import mock

import numpy as np
import pytest

from tensorgeo.coeffs import c_norm
from tensorgeo.conemoment import cone_sphere_moment
from tensorgeo.flats import random_rotation
from tensorgeo.measures import (
    MeasureIndex,
    curvature_measure,
    intrinsic_volume,
    tcm,
    tcm_relation_check,
    valuation,
)
from tensorgeo.polytope import (
    Polytope,
    Region,
    cross_polytope,
    cube,
    polytope_moment,
    random_polytope,
    simplex,
    simplex_moment,
    triangulate,
)
from tensorgeo.rng import stream
from tensorgeo.special import omega
from tensorgeo.symtensor import SymTensor, metric_tensor, subspace_metric_tensor

from test_conemoment import _plane_sections


class TestIntrinsicVolumes:
    def test_unit_cube(self):
        P = cube(3)
        assert [intrinsic_volume(P, q) for q in range(4)] == \
            pytest.approx([1.0, 3.0, 3.0, 1.0])

    def test_square(self):
        P = cube(2)
        assert [intrinsic_volume(P, q) for q in range(3)] == pytest.approx([1.0, 2.0, 1.0])

    def test_triangle(self):
        P = simplex(2)
        # V_1 = half perimeter
        assert intrinsic_volume(P, 1) == pytest.approx((2 + math.sqrt(2)) / 2)
        assert intrinsic_volume(P, 2) == pytest.approx(0.5)
        assert intrinsic_volume(P, 0) == pytest.approx(1.0)

    def test_segment_in_space(self):
        seg = Polytope.from_vertices([[0, 0, 0], [2, 0, 0]])
        assert intrinsic_volume(seg, 0) == pytest.approx(1.0)
        assert intrinsic_volume(seg, 1) == pytest.approx(2.0)
        assert intrinsic_volume(seg, 2) == pytest.approx(0.0)

    def test_scaled_cube_homogeneity(self):
        P = cube(3).scaled(2.0)
        assert [intrinsic_volume(P, q) for q in range(4)] == \
            pytest.approx([1.0, 6.0, 12.0, 8.0])


class TestOutOfRangeIndices:
    def test_zero_cases(self):
        P = cube(2)
        assert tcm(P, 5).tensor.coeffs == {}
        assert tcm(P, -1).tensor.coeffs == {}
        assert tcm(P, 0, l=1).tensor.coeffs == {}
        assert tcm(P, 2, s=2).tensor.coeffs == {}

    def test_the_top_measure_of_a_lower_dimensional_body_is_zero(self):
        square = Polytope.from_vertices([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
        assert square.aff_dim == 2
        mv = tcm(square, 3, r=1, l=1)
        assert mv.tensor.coeffs == {} and mv.exact and mv.face_count == 0

    def test_index_rank(self):
        idx = MeasureIndex(j=1, r=1, s=2, l=1, m=1)
        assert idx.rank == 7


class TestLocality:
    def test_window_additivity(self):
        P = cube(2)
        left = Region.box([0, 0], [0.5, 1])
        right = Region.box([0.5, 0], [1, 1])
        for (j, r, s) in [(0, 0, 1), (1, 0, 2), (1, 1, 0), (2, 1, 0)]:
            whole = tcm(P, j, r, s).tensor
            parts = tcm(P, j, r, s, region=left).tensor + tcm(P, j, r, s, region=right).tensor
            assert whole.max_abs_coordinate_diff(parts) < 1e-9

    def test_window_missing_skeleton(self):
        P = cube(2)
        inner = Region.box([0.25, 0.25], [0.75, 0.75])
        # no vertex or edge intersects the inner window
        assert tcm(P, 0, region=inner).tensor.coeffs == {}
        assert tcm(P, 1, region=inner).tensor.coeffs == {}
        # but the volume measure sees it
        assert tcm(P, 2, region=inner).tensor.value() == pytest.approx(0.25)

    def test_vertex_window(self):
        P = cube(2)
        corner = Region.box([-0.1, -0.1], [0.1, 0.1])
        assert curvature_measure(P, 0, corner) == pytest.approx(0.25)


class TestCovariance:
    @pytest.mark.parametrize("case", range(10))
    def test_rotation_covariance(self, case):
        rng = stream(100 + case, 0)
        rho = random_rotation(rng, 2)
        P = [cube(2), simplex(2), cross_polytope(2)][case % 3]
        j, r, s, l = [(1, 0, 2, 0), (0, 1, 1, 0), (1, 1, 0, 1), (2, 2, 0, 0),
                      (1, 0, 3, 0)][case % 5]
        before = tcm(P, j, r, s, l).tensor.rotate(rho)
        after = tcm(P.transformed(rho), j, r, s, l).tensor
        assert before.max_abs_coordinate_diff(after) < 1e-9

    @pytest.mark.parametrize("lam", [0.5, 2.0, 3.0])
    def test_homogeneity_degree(self, lam):
        # phi_j^{r,s,l} scales with exponent j + r
        P = simplex(2)
        for (j, r, s, l) in [(0, 0, 2, 0), (1, 1, 1, 0), (1, 2, 0, 1), (2, 1, 0, 0)]:
            a = tcm(P.scaled(lam), j, r, s, l).tensor
            b = tcm(P, j, r, s, l).tensor.scale(lam ** (j + r))
            assert a.max_abs_coordinate_diff(b) < 1e-9 * max(1.0, lam ** (j + r))

    def test_translation_covariance_scalar(self):
        # r = s = 0 measures are translation invariant
        P = cube(2)
        t = np.array([3.0, -1.0])
        for j in range(3):
            assert curvature_measure(P.transformed(t=t), j) == \
                pytest.approx(curvature_measure(P, j), rel=1e-12)


class TestMetricRelation:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_polytopes_2d(self, seed):
        P = random_polytope(2, npoints=8, seed=seed)
        assert tcm_relation_check(P, r=seed % 2, s_prime=seed % 3) < 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_random_polytopes_3d(self, seed):
        P = random_polytope(3, npoints=9, seed=seed)
        assert tcm_relation_check(P, r=seed % 2, s_prime=seed % 2) < 1e-10

    def test_needs_two_dimensions(self):
        with pytest.raises(ValueError, match="n >= 2"):
            tcm_relation_check(cube(1))


class TestValuation:
    def test_metric_power_prefix(self):
        P = cube(2)
        idx = MeasureIndex(j=1, r=0, s=0, l=0, m=1)
        direct = valuation(P, idx)
        expected = metric_tensor(2) * tcm(P, 1).tensor
        assert direct.max_abs_coordinate_diff(expected) == 0.0

    def test_top_volume_tensor(self):
        # phi_n^{0,0,0} = volume
        assert tcm(cube(3), 3).tensor.value() == pytest.approx(1.0)
        # phi_n^{2,0,0}: second moment tensor / 2
        m = tcm(cube(2), 2, r=2).tensor
        assert m.coordinate((2, 0)) == pytest.approx(1 / 6)  # (1/2!) * 1/3
        assert m.coordinate((1, 1)) == pytest.approx(1 / 8)  # (1/2!) * 1/4


class TestSurfaceTensor:
    def test_square_normal_distribution(self):
        # phi_1^{0,2,0} of the square: (1/(8 pi)) sum over edges of len * nu^2;
        # two unit edges per axis direction give 1/(4 pi) on the diagonal
        m = tcm(cube(2), 1, s=2).tensor
        assert m.coordinate((2, 0)) == pytest.approx(1 / (4 * math.pi))
        assert m.coordinate((1, 1)) == pytest.approx(0.0, abs=1e-14)
        assert m.coordinate((0, 2)) == pytest.approx(1 / (4 * math.pi))


class TestConeMomentCache:
    """Sampled vertex cones of simplex(3) are cached per polytope; the cache
    must not hand a result drawn with one budget or seed to another."""

    def test_larger_budget_draws_afresh(self):
        S = simplex(3)
        small = tcm(S, 0, s=2, budget=200)
        large = tcm(S, 0, s=2, budget=20000)
        assert small.mc_samples == 600
        assert large.mc_samples == 60000
        assert large.stderr.coordinates_array().max() < small.stderr.coordinates_array().max()

    def test_other_seed_draws_afresh(self):
        S = simplex(3)
        a = tcm(S, 0, s=2, budget=500, seed=1)
        b = tcm(S, 0, s=2, budget=500, seed=2)
        assert a.tensor.max_abs_coordinate_diff(b.tensor) > 0.0
        assert tcm(S, 0, s=2, budget=500, seed=1).tensor.max_abs_coordinate_diff(a.tensor) == 0.0

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_raises(self, budget):
        # such a budget would leave each sampled cone to the 1 / _RATE_FLOOR
        # escalation; a cube, whose cones are all exact, is rejected too
        S = simplex(3)
        with pytest.raises(ValueError, match="budget"):
            tcm(S, 0, s=2, budget=budget)
        with pytest.raises(ValueError, match="budget"):
            tcm(cube(3), 0, budget=budget)
        with pytest.raises(ValueError, match="budget"):
            cone_sphere_moment(S.normal_cone(S.faces(0)[0]), 2, budget=budget)


def _windowed(body):
    """The body with a box window cutting it by two planes."""
    c, ptp = body.vertices.mean(axis=0), np.ptp(body.vertices, axis=0)
    lo, hi = body.vertices.min(axis=0) - 1.0, body.vertices.max(axis=0) + 1.0
    hi[0], lo[1] = c[0] + 0.1 * ptp[0], c[1] - 0.1 * ptp[1]
    return body, Region.box(lo, hi)


def _windowed_bodies():
    """Random bodies in R^2, R^3 and R^4 and rotated, translated copies,
    cross_polytope(4), whose edge cones are lunes, and plane sections of a
    cube and a random body in R^3 and R^4, each with a box window."""
    out = []
    for n, npoints in [(2, 12), (3, 14), (4, 8)]:
        rng = np.random.default_rng(40 + n)
        P = random_polytope(n, npoints=npoints, seed=n)
        for body in (P, P.transformed(random_rotation(rng, n), rng.standard_normal(n))):
            out.append(_windowed(body))
    out.append(_windowed(cross_polytope(4)))
    for n in (3, 4):
        sections = _plane_sections(n)
        out += [_windowed(sections[0]), _windowed(sections[-1])]
    return out


class TestPerFaceRoute:
    """tcm from the body's face lattice, one clip per window and one array
    pass per level of faces, against the route it replaced: every j-face
    rebuilt as a polytope, clipped to the window and triangulated into
    simplices, times Q(F)^l and one cone moment per face.  Some of these
    tensors vanish (Minkowski's relation), so the bound is 1e-10 of the
    largest coordinate or of 1, the size of these bodies."""

    @pytest.mark.parametrize("case", range(11))
    def test_exact_measures_match(self, case):
        P, window = _windowed_bodies()[case]
        n = P.dim
        simplices, cones = {}, {}

        def moment(vertices, r, region):
            key = (vertices.tobytes(), region is None)
            if key not in simplices:
                clipped = Polytope.from_vertices(vertices).intersect_region(region or Region.universe())
                simplices[key] = triangulate(clipped) if clipped is not None else []
            if key + (r,) not in simplices:
                simplices[key + (r,)] = sum((simplex_moment(simp, r) for simp in simplices[key]),
                                            SymTensor.zero(n, r))
            return simplices[key + (r,)]

        def cone(face, s):
            if (face.vertex_indices, s) not in cones:
                cones[face.vertex_indices, s] = cone_sphere_moment(P.normal_cone(face), s).tensor
            return cones[face.vertex_indices, s]

        def per_face(j, r, s, l, region):
            if j == n:
                return (metric_tensor(n).power(l) * moment(P.vertices, r, region)).scale(
                    c_norm(n, n, r, 0, l))
            total = SymTensor.zero(n, r + s + 2 * l)
            for face in P.faces(j):
                qf = subspace_metric_tensor(face.frame).power(l)
                total = total + qf * moment(face.vertices, r, region) * cone(face, s)
            return total.scale(c_norm(n, j, r, s, l) / omega(n - j))

        compared = 0
        for region in (None, window):
            for j in range(P.aff_dim + 1):
                for r in range(3):
                    for s in range(5 if j < n else 1):
                        for l in range(3 if j else 1):
                            mv = tcm(P, j, r, s, l, region=region, budget=200)
                            if not mv.exact:
                                continue
                            want = per_face(j, r, s, l, region).coordinates_array()
                            diff = np.max(np.abs(mv.tensor.coordinates_array() - want))
                            assert diff <= 1e-10 * max(1.0, np.max(np.abs(want))), (j, r, s, l, region)
                            compared += 1
        assert compared >= 20


class TestLatticeReuse:
    """tcm builds no polytope for a face: the whole space reads the body's
    lattice, and a window costs one clip per body and window."""

    def test_unwindowed_tcm_builds_nothing(self):
        P = random_polytope(3, npoints=14, seed=3)
        with mock.patch.object(Polytope, "from_vertices", wraps=Polytope.from_vertices) as build:
            for j in range(4):
                tcm(P, j, r=2, s=1 if j < 3 else 0, l=1 if j else 0, budget=500)
            polytope_moment(P, 2)
            P.volume()
        assert build.call_count == 0

    def test_one_clip_per_distinct_window(self):
        P = random_polytope(3, npoints=14, seed=3)
        c = P.vertices.mean(axis=0)
        w1 = Region.box(c - 0.5, c + 0.5)
        w2 = Region.box(c - 0.5, c + 0.6)               # other offsets
        w3 = Region(-w1.A, w1.b)                        # other normals, same offsets
        with mock.patch.object(Polytope, "from_halfspaces", wraps=Polytope.from_halfspaces) as build:
            first = [tcm(P, j, r=1, region=w1).tensor for j in (1, 2, 3)]
            again = [tcm(P, j, r=1, region=Region(w1.A.copy(), w1.b.copy())).tensor
                     for j in (1, 2, 3)]
            assert build.call_count == 1
            second = [tcm(P, j, r=1, region=w2).tensor for j in (1, 2, 3)]
            assert build.call_count == 2
            third = [tcm(P, j, r=1, region=w3).tensor for j in (1, 2, 3)]
            assert build.call_count == 3
        for got, want in zip(again, first):
            assert got.max_abs_coordinate_diff(want) == 0.0
        # each window's values are those of a fresh body, which has no clips
        for window, values in [(w1, first), (w2, second), (w3, third)]:
            fresh = random_polytope(3, npoints=14, seed=3)
            for j, got in zip((1, 2, 3), values):
                assert got.max_abs_coordinate_diff(tcm(fresh, j, r=1, region=window).tensor) == 0.0
        assert first[2].max_abs_coordinate_diff(second[2]) > 1e-3
        assert first[2].max_abs_coordinate_diff(third[2]) > 1e-3
