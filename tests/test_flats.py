import math

import numpy as np
import pytest
from scipy import stats

from tensorgeo.coeffs import alpha
from tensorgeo.flats import (
    _haar,
    random_rotation,
    sample_flats_hitting,
    sample_motions_coupling,
)
from tensorgeo.measures import intrinsic_volume, tcm
from tensorgeo.polytope import cube, simplex
from tensorgeo.rng import check_seed, stream
from tensorgeo.verify import crofton_rhs, crofton_verify, kinematic_rhs


def _hits(P, batch):
    """Whether each sampled line in the plane meets P: P's vertices lie on
    both sides of it (the frame turned by 90 degrees is the line's normal)."""
    normal = np.stack([-batch.frames[:, 1, 0], batch.frames[:, 0, 0]], axis=1)
    side = normal @ P.vertices.T - np.einsum("mi,mi->m", normal, batch.points)[:, None]
    return (side.min(axis=1) <= 0) & (side.max(axis=1) >= 0)


def _qr_rotation(rng, n, count=None):
    """The reference for `random_rotation`: LAPACK's QR of the same Gaussian
    draw, Q's columns signed to make R's diagonal positive, then the first
    column negated where det Q < 0."""
    shape = (n, n) if count is None else (count, n, n)
    z = rng.standard_normal(shape)
    q, r = np.linalg.qr(z)
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d[d == 0] = 1.0
    q = q * d[..., None, :]
    det = np.linalg.det(q)
    q[..., :, 0] *= np.where(det < 0, -1.0, 1.0)[..., None]
    return q


def _orthogonality_and_det_errors(q):
    n = q.shape[-1]
    orth = np.max(np.abs(np.einsum("mij,mkj->mik", q, q) - np.eye(n)))
    return orth, np.max(np.abs(np.linalg.det(q) - 1.0))


class TestStream:
    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_key_word_raises(self, seed):
        with pytest.raises(ValueError, match="seed"):
            stream(seed)

    def test_largest_seed(self):
        assert stream(2 ** 64 - 1).random() != stream(0).random()

    @pytest.mark.parametrize("seed", [1.7, 2.5, "3", None])
    def test_a_seed_that_is_no_integer_raises(self, seed):
        """numpy would truncate 1.7 to the key 1, so two seeds would share
        a stream."""
        with pytest.raises(ValueError, match="integer"):
            stream(seed)

    def test_non_integer_seeds_reach_the_check(self):
        with pytest.raises(ValueError, match="integer"):
            crofton_verify(cube(2), 1, 0, samples=200, seed=1.7)
        with pytest.raises(ValueError, match="integer"):
            tcm(simplex(3), 0, seed=2.5)

    @pytest.mark.parametrize("call", [
        lambda: tcm(cube(3), 0, seed=2.5),
        lambda: tcm(cube(3), 7, seed=-4),
        lambda: crofton_rhs(cube(3), 2, 1, seed=0.5),
        lambda: kinematic_rhs(cube(3), cube(3), 1, seed="x"),
    ], ids=["exact-cones", "zero-extension", "crofton-rhs", "kinematic-rhs"])
    def test_seeds_are_checked_where_no_cone_is_sampled(self, call):
        """A cube's cones are all closed forms and j = 7 is extended by
        zero, so no stream is drawn; the seed is still rejected."""
        with pytest.raises(ValueError, match="seed"):
            call()

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint64(2 ** 63 + 5), True])
    def test_numpy_and_bool_integers_are_seeds(self, seed):
        assert check_seed(seed) == int(seed) and type(check_seed(seed)) is int
        assert stream(seed).random() == stream(int(seed)).random()


class TestRandomRotation:
    def test_orthogonal_det_one(self):
        for n in range(1, 5):
            q = random_rotation(stream(0, n), n, count=100000)
            orth, det = _orthogonality_and_det_errors(q)
            assert orth < 1e-14 and det < 1e-14, (n, orth, det)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_qr_reference(self, n):
        """The closed form is the QR recipe's Q to rounding, for single
        draws and for full blocks of 4096, and leaves the stream where the
        QR recipe leaves it."""
        for seed in (0, 1, 7, 2 ** 40):
            for count in (None, 4096):
                rng, ref = stream(seed, n), stream(seed, n)
                q = random_rotation(rng, n, count)
                expected = _qr_rotation(ref, n, count)
                assert q.shape == expected.shape
                np.testing.assert_allclose(q, expected, rtol=0, atol=1e-13)
                assert np.array_equal(rng.standard_normal(8), ref.standard_normal(8))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_nearly_dependent_columns(self, n):
        """Columns 1e-12 apart still give a rotation whose first column is
        the first column's direction, signed by det z."""
        rng = stream(3, n)
        z = rng.standard_normal((1000, n, n))
        z[:, :, 1] = z[:, :, 0] + 1e-12 * rng.standard_normal((1000, n))
        q = _haar(z)
        orth, det = _orthogonality_and_det_errors(q)
        assert orth < 1e-14 and det < 1e-14, (orth, det)
        first = z[:, :, 0] / np.linalg.norm(z[:, :, 0], axis=1, keepdims=True)
        sign = np.sign(np.linalg.det(z))[:, None]
        np.testing.assert_allclose(q[:, :, 0], sign * first, rtol=0, atol=1e-15)

    def test_group_closure(self):
        rng = stream(1, 0)
        a = random_rotation(rng, 3)
        b = random_rotation(rng, 3)
        c = a @ b
        assert np.max(np.abs(c @ c.T - np.eye(3))) < 1e-12
        assert np.linalg.det(c) == pytest.approx(1.0, abs=1e-12)

    def test_n_one_is_identity(self):
        rng = stream(2, 0)
        q = random_rotation(rng, 1, count=10)
        assert np.allclose(q, 1.0)

    def test_mean_first_column_vanishes(self):
        rng = stream(3, 0)
        q = random_rotation(rng, 3, count=100000)
        mean = q[:, :, 0].mean(axis=0)
        assert np.max(np.abs(mean)) < 3.0 / math.sqrt(100000)

    def test_haar_first_coordinate_ks(self):
        # <rho e1, e1> has the first-coordinate distribution on S^{n-1};
        # for n = 3 that is uniform on [-1, 1]
        rng = stream(4, 0)
        q = random_rotation(rng, 3, count=100000)
        x = q[:, 0, 0]
        res = stats.kstest(x, stats.uniform(loc=-1, scale=2).cdf)
        assert res.pvalue > 0.01

    def test_haar_first_coordinate_ks_2d(self):
        # n = 2: first coordinate is cos(theta), density 1/(pi sqrt(1-x^2))
        rng = stream(5, 0)
        q = random_rotation(rng, 2, count=100000)
        x = q[:, 0, 0]
        cdf = lambda t: 1.0 - np.arccos(np.clip(t, -1, 1)) / np.pi
        res = stats.kstest(x, cdf)
        assert res.pvalue > 0.01


class TestFlatSampler:
    def test_reproducible(self):
        P = cube(2)
        a = sample_flats_hitting(P, 1, 100, seed=7)
        b = sample_flats_hitting(P, 1, 100, seed=7)
        assert np.array_equal(a.frames, b.frames)
        assert np.array_equal(a.points, b.points)

    def test_frames_orthonormal_and_invariants(self):
        P = cube(3)
        c, R = P.circumdata()
        batch = sample_flats_hitting(P, 2, 200, seed=1)
        for i in range(0, 200, 17):
            B = batch.frames[i]
            assert np.max(np.abs(B.T @ B - np.eye(2))) < 1e-10
            # base point lies in the complement disk of radius R around the
            # projected vertex mean
            q = batch.points[i]
            assert abs(q @ B[:, 0]) < 1e-9 and abs(q @ B[:, 1]) < 1e-9
            assert np.linalg.norm(q - (c - B @ (B.T @ c))) <= R + 1e-12
        assert batch.weight == pytest.approx(2 * R, rel=1e-15)     # kappa_1 R

    def test_draws_unchanged_for_a_fixed_seed(self):
        """Frames and points of a fixed seed, in the first and in a later
        block of 4096.  The frames (the rotations, which the face sums of
        `verify` draw alone) are those drawn while the ball had a margin of
        0.5 beyond the circumradius R; each point has moved towards the
        projected vertex mean by the factor R / (R + 0.5)."""
        small = sample_flats_hitting(cube(3), 2, 200, seed=1)
        large = sample_flats_hitting(cube(3), 2, 5000, seed=1)
        expected = [
            (small, 0, [[0.5068718837435828, 0.2561413226797328],
                        [0.2196201681515176, 0.8849530796901441],
                        [-0.8335753566482941, 0.3889083048262226]],
             [1.0254092266801509, -0.5115786343346129, 0.4887358022173617]),
            (small, 199, [[-0.391736406055877, -0.004462559516995727],
                          [-0.5414896193155717, 0.8095869065274615],
                          [-0.7438626085130926, -0.5869830715973445]],
             [0.9144309913168958, -0.22523497506738754, -0.31760368986827947]),
            (large, 4321, [[-0.2695905237571954, 0.45486736990052223],
                           [-0.706627382036091, -0.6922453349518553],
                           [0.6542160900322932, -0.5602607179137007]],
             [-0.04015642405349702, -0.0069329976081225105, -0.0240361519410386]),
        ]
        for batch, i, frame, point in expected:
            np.testing.assert_allclose(batch.frames[i], frame, rtol=0, atol=1e-15)
            np.testing.assert_allclose(batch.points[i], point, rtol=0, atol=1e-15)

    def test_hitting_probability_square(self):
        # mu_1-measure of lines meeting the unit square: alpha(2,0,1) * 2 V_1
        P = cube(2)
        batch = sample_flats_hitting(P, 1, 200000, seed=3)
        feasible = _hits(P, batch)
        est = batch.weight * feasible.mean()
        se = batch.weight * feasible.std() / math.sqrt(len(feasible))
        expected = alpha(2, 0, 1) * intrinsic_volume(P, 1)
        assert expected == pytest.approx(4 / math.pi, rel=1e-12)
        assert abs(est - expected) <= 3 * se

    def test_weight_compensates_margin(self):
        """The ball needs no margin beyond the circumradius: around the
        vertex mean of a triangle, which is not its circumcentre, it still
        holds every line that meets the triangle, so the weighted hit
        fraction is the measure of those lines, alpha(2, 0, 1) V_1."""
        P = simplex(2)
        batch = sample_flats_hitting(P, 1, 100000, seed=9)
        feasible = _hits(P, batch)
        est = batch.weight * feasible.mean()
        se = batch.weight * feasible.std() / math.sqrt(len(feasible))
        assert abs(est - alpha(2, 0, 1) * intrinsic_volume(P, 1)) <= 3 * se

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            sample_flats_hitting(cube(2), 2, 10)


class TestMotionSampler:
    def test_reproducible_and_orthogonal(self):
        P, P2 = cube(2), cube(2)
        a = sample_motions_coupling(P, P2, 50, seed=11)
        b = sample_motions_coupling(P, P2, 50, seed=11)
        assert np.array_equal(a.rotations, b.rotations)
        assert np.array_equal(a.translations, b.translations)
        err = np.max(np.abs(np.einsum("mij,mkj->mik", a.rotations, a.rotations) - np.eye(2)))
        assert err < 1e-12

    def test_box_contains_all_overlaps(self):
        # whenever P intersects rho P2 + t, t must be inside the sampled box
        P, P2 = cube(2), cube(2)
        c, r0 = P.circumdata()
        c2, r2 = P2.circumdata()
        h = r0 + r2
        batch = sample_motions_coupling(P, P2, 1000, seed=13)
        center = c - np.einsum("mij,j->mi", batch.rotations, c2)
        assert np.all(np.abs(batch.translations - center) <= h + 1e-9)
        assert batch.weight == pytest.approx((2 * h) ** 2)

    def test_degenerate_second_body(self):
        # a tiny second body: the motion integral of the overlap indicator
        # approaches vol-of-box-normalized coverage ~ vol(P) * kappa-style mass;
        # here only check the sampler runs and weights stay constant
        tiny = cube(2).scaled(1e-3)
        batch = sample_motions_coupling(cube(2), tiny, 100, seed=1)
        assert batch.weight > 0

    def test_bodies_in_different_spaces(self):
        with pytest.raises(ValueError, match="R\\^2 and R\\^3"):
            sample_motions_coupling(cube(2), cube(3), 10)
