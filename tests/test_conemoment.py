import collections
import dataclasses
import math

import numpy as np
import pytest

from tensorgeo import conemoment, flats, verify
from tensorgeo.conemoment import (
    cone_sphere_moment,
    _arc_ends,
    _monte_carlo_moment,
    _trig_recurrence,
)
from tensorgeo.flats import sample_flats_hitting
from tensorgeo.measures import tcm
from tensorgeo.polytope import (SLACK, GeometryError, Polytope, cross_polytope, cube, intersect_flat,
                                random_polytope, simplex)
from tensorgeo.rng import stream
from tensorgeo.special import gamma_half, omega
from tensorgeo.symtensor import SymTensor, multi_degrees, multinomial, vector_power


def trig_integral(p, q, t1, t2):
    """Definite integral of cos^p(t) sin^q(t) over [t1, t2] by the
    power-reduction recurrence, for scalar or array endpoints."""
    return _trig_recurrence(p, q, *_arc_ends(t1, t2))


class TestTrigIntegral:
    @pytest.mark.parametrize("p,q", [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1),
                                     (0, 2), (3, 2), (2, 4), (5, 0)])
    def test_against_quadrature(self, p, q):
        from scipy.integrate import quad
        for (t1, t2) in [(0, math.pi / 2), (-0.3, 1.1), (1.0, 4.0)]:
            expected, _ = quad(lambda t: math.cos(t) ** p * math.sin(t) ** q, t1, t2)
            assert trig_integral(p, q, t1, t2) == pytest.approx(expected, abs=1e-12)

    def test_array_endpoints(self):
        t2 = np.array([0.5, 1.0, 2.0])
        vals = trig_integral(2, 1, 0.0, t2)
        for i, t in enumerate(t2):
            assert vals[i] == pytest.approx(trig_integral(2, 1, 0.0, float(t)))


    def test_equals_recursion_on_arrays(self):
        # the recursion that evaluates cos and sin at every level, kept as
        # the reference: sharing them must not change a bit
        def recursion(p, q, t1, t2):
            if p >= 2:
                term = (np.cos(t2) ** (p - 1) * np.sin(t2) ** (q + 1)
                        - np.cos(t1) ** (p - 1) * np.sin(t1) ** (q + 1)) / (p + q)
                return term + (p - 1) / (p + q) * recursion(p - 2, q, t1, t2)
            if p == 1:
                return (np.sin(t2) ** (q + 1) - np.sin(t1) ** (q + 1)) / (q + 1)
            if q >= 2:
                term = (-np.cos(t2) * np.sin(t2) ** (q - 1)
                        + np.cos(t1) * np.sin(t1) ** (q - 1)) / q
                return term + (q - 1) / q * recursion(0, q - 2, t1, t2)
            if q == 1:
                return -(np.cos(t2) - np.cos(t1))
            return t2 - t1

        rng = np.random.default_rng(0)
        t1 = rng.uniform(-4, 4, (50, 7))
        t2 = t1 + rng.uniform(0, 4, (50, 7))
        for p in range(7):
            for q in range(7 - p):
                assert np.array_equal(trig_integral(p, q, t1, t2), recursion(p, q, t1, t2))
                assert trig_integral(p, q, -0.3, 1.1) == recursion(p, q, -0.3, 1.1)


def _arc_per_integral(n, s, pa, pb, t1, t2):
    """The arc moment assembled from one `trig_integral` per term, each
    computing cos and sin of both endpoints afresh."""
    out = vector_power(pb, s).scale(trig_integral(0, s, t1, t2))
    for i in range(1, s + 1):
        c = math.comb(s, i) * trig_integral(i, s - i, t1, t2)
        out = out + (vector_power(pa, i) * vector_power(pb, s - i)).scale(c)
    return out


def _lune_per_integral(n, s, pa, pb, t1, t2, w):
    out = SymTensor.zero(n, s)
    for i in range(s + 1):
        phi = float(trig_integral(i + 1, s - i, -math.pi / 2, math.pi / 2))
        if phi == 0.0:
            continue
        arc = _arc_per_integral(n, i, pa, pb, t1, t2)
        out = out + (arc * vector_power(w, s - i)).scale(math.comb(s, i) * phi)
    return out


def _product_cone_moment(n, s, ray_frame, sub_frame):
    """Moment over the cone {sum a_i r_i + w : a_i >= 0, w in W} with the
    r_i pairwise orthonormal and orthogonal to W, summed over monomials: the
    intersection with the sphere is an 'orthant' in the orthonormal frame
    [r_1..r_q, W], so the integral of a monomial c^a is
    2^{1-q} prod Gamma((a_i+1)/2) / Gamma((s+d)/2), vanishing when a
    W-exponent is odd.  The frames are (..., n, q) and (..., n, w)."""
    q = ray_frame.shape[-1]
    w = sub_frame.shape[-1]
    cols = [ray_frame[..., :, i] for i in range(q)] + [sub_frame[..., :, i] for i in range(w)]
    denom = gamma_half((s + q + w) / 2)
    out = SymTensor.zero(n, s)
    for a in multi_degrees(q + w, s):
        if any(ai % 2 for ai in a[q:]):
            continue
        val = 2.0 ** (1 - q) / denom
        for ai in a:
            val *= gamma_half((ai + 1) / 2)
        term = SymTensor.scalar(n, multinomial(s, a) * val)
        for col, ai in zip(cols, a):
            if ai:
                term = term * vector_power(col, ai)
        out = out + term
    return out


def _rel_gap(got, want):
    return np.max(np.abs(got.data - want.data)) / np.max(np.abs(want.data))


class TestSharedEndpoints:
    """Arc moments take cos and sin of the endpoints once per call; the
    result is bit-identical to one `trig_integral` per term.  Lunes, an arc
    plus a line, agree with the per-integral reference within 1e-14."""

    @pytest.mark.parametrize("s", range(7))
    def test_batched_arcs_and_lunes(self, s):
        rng = np.random.default_rng(s)
        frames = np.linalg.qr(rng.standard_normal((40, 3, 3)))[0]
        pa, pb, w = frames[..., 0], frames[..., 1], frames[..., 2]
        t1 = rng.uniform(-1.5, 1.5, 40)
        t2 = t1 + rng.uniform(0.0, 3.0, 40)
        ends = conemoment._arc_ends(t1, t2)
        assert np.array_equal(conemoment._arc_moment(3, s, pa, pb, ends).data,
                              _arc_per_integral(3, s, pa, pb, t1, t2).data)
        lune = conemoment._cone_moment(3, s, np.zeros((3, 0)), w[..., None], (pa, pb, ends))
        assert _rel_gap(lune, _lune_per_integral(3, s, pa, pb, t1, t2, w)) <= 1e-14


class TestOrthogonalSums:
    """`_cone_moment`, the Gaussian product over a cone's orthogonal parts,
    against the closed forms it replaced and against sampling."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rays_and_lines_match_the_product_form(self, n):
        frames = np.linalg.qr(np.random.default_rng(n).standard_normal((20, n, n)))[0]
        for s in range(7):
            for q, w in [(q, w) for q in range(n + 1) for w in range(n + 1 - q) if q + w]:
                got = conemoment._cone_moment(n, s, frames[..., :q], frames[..., q:q + w])
                want = _product_cone_moment(n, s, frames[..., :q], frames[..., q:q + w])
                if not want.data.any():     # odd s on lines alone
                    assert not got.data.any()
                    continue
                assert _rel_gap(got, want) <= 1e-14, (s, q, w)

    @pytest.mark.parametrize("n, w", [(2, 0), (3, 0), (3, 1), (4, 0), (4, 1)])
    def test_arcs_and_lunes_match_the_per_integral_forms(self, n, w):
        rng = np.random.default_rng(10 * n + w)
        frames = np.linalg.qr(rng.standard_normal((20, n, n)))[0]
        pa, pb, W = frames[..., 0], frames[..., 1], frames[..., 2:2 + w]
        t1 = rng.uniform(-1.5, 1.5, 20)
        t2 = t1 + rng.uniform(0.0, 3.0, 20)
        for s in range(7):
            got = conemoment._cone_moment(n, s, np.zeros((n, 0)), W, (pa, pb, conemoment._arc_ends(t1, t2)))
            want = (_lune_per_integral(n, s, pa, pb, t1, t2, W[..., 0]) if w
                    else _arc_per_integral(n, s, pa, pb, t1, t2))
            assert _rel_gap(got, want) <= 1e-14, s

    def test_arc_plus_a_plane_against_sampling(self):
        """An arc of 1.3 rad plus a 2-dimensional lineality space in R^4:
        theta pi at s = 0, and within 3 sigma of 400 000 sampled directions
        for s <= 4."""
        Q = np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4)))[0]
        t1, t2 = -0.4, 0.9
        arc = (Q[:, 0], Q[:, 1], conemoment._arc_ends(t1, t2))
        W = Q[:, 2:]
        assert conemoment._cone_moment(4, 0, np.zeros((4, 0)), W, arc).value() == \
            pytest.approx(1.3 * math.pi, rel=1e-14)
        u = stream(7, 0).standard_normal((400000, 4))
        u /= np.linalg.norm(u, axis=1)[:, None]
        angle = np.arctan2(u @ Q[:, 1], u @ Q[:, 0])
        inside = u[(angle >= t1) & (angle <= t2)]
        for s in range(5):
            vals = omega(4) * vector_power(inside, s).coordinates_array()   # zero outside
            mean = vals.sum(axis=0) / len(u)
            se = np.sqrt(((vals ** 2).sum(axis=0) / len(u) - mean ** 2) / len(u))
            got = conemoment._cone_moment(4, s, np.zeros((4, 0)), W, arc).coordinates_array()
            assert np.all(np.abs(got - mean) <= 3 * se), s

    def test_heptagon_in_a_plane_of_R4(self):
        """Every vertex cone of a polygon in R^4 is an arc plus the plane's
        complement, so V_0 is exact."""
        t = 2 * math.pi * np.arange(7) / 7
        R = flats.random_rotation(stream(3, 0), 4)
        P = Polytope.from_vertices(np.c_[np.cos(t), np.sin(t)] @ R[:, :2].T + 0.1)
        mv = tcm(P, 0)
        assert mv.methods == {"arc": 7} and mv.exact
        assert mv.tensor.value() == pytest.approx(1.0, abs=1e-12)


class TestArcGap:
    """Both callers of `conemoment._arc`: `_closed_forms` and the face sum's
    `_pointed`."""

    @pytest.mark.parametrize("n,w", [(3, 0), (3, 1), (4, 0)])
    def test_arcs_near_a_half_turn(self, n, w):
        # arcs closer to a half turn than eps / SLACK are sampled; farther,
        # the closed form is within SLACK of one from the exact mean ray
        rng = np.random.default_rng(n + w)
        for delta in (0.5 * conemoment._ARC_GAP, 2 * conemoment._ARC_GAP, 1e-3):
            for _ in range(10):
                Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
                a = rng.uniform(0.0, 2 * math.pi)
                rays = np.array([[math.cos(a), math.sin(a)],
                                 [math.cos(a + math.pi - delta), math.sin(a + math.pi - delta)]])
                W = Q[:, 2:2 + w]
                a_ray, b_ray = rays @ Q[:, :2].T
                out, method = conemoment._closed_forms(3, np.array([[a_ray, b_ray]]), W)
                if delta < conemoment._ARC_GAP:
                    assert method[0] == "monte-carlo"
                    continue
                mid = a + (math.pi - delta) / 2
                pa = (np.array([math.cos(mid), math.sin(mid)]) @ Q[:, :2].T)[None]
                pb = (np.array([-math.sin(mid), math.cos(mid)]) @ Q[:, :2].T)[None]
                t1, t2 = np.array([mid - a - math.pi + delta]), np.array([mid - a])
                want = (_lune_per_integral(n, 3, pa, pb, t1, t2, W[:, 0]) if w
                        else _arc_per_integral(n, 3, pa, pb, t1, t2)).data[0]
                assert method[0] == "arc"
                # the face sum's arcs (`_pointed`) share the kernel and its bound
                pointed = verify._pointed(n, 3, 0, [a_ray, b_ray], W, None)[1].data
                for got in (out[0], pointed):
                    assert np.max(np.abs(got - want)) <= SLACK * np.max(np.abs(want))


class TestExactPaths:
    def test_full_sphere_s0(self):
        seg = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        from tensorgeo.polytope import Polytope
        P = Polytope.from_vertices(seg)
        cone = P.normal_cone(P.faces(1)[0])
        res = cone_sphere_moment(cone, 0)
        assert res.method == "full-sphere"
        assert res.tensor.value() == pytest.approx(omega(2))  # circle in the 2-plane

    def test_full_sphere_odd_moments_vanish(self):
        from tensorgeo.polytope import Polytope
        P = Polytope.from_vertices(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))
        cone = P.normal_cone(P.faces(1)[0])
        for s in (1, 3):
            res = cone_sphere_moment(cone, s)
            assert all(abs(c) < 1e-14 for c in res.tensor.coeffs.values())

    @pytest.mark.parametrize("s", range(4))
    def test_body_cone_is_the_origin(self, s):
        # the normal cone of a full-dimensional body at itself is {0}:
        # moment 1 at s = 0, as the face sum's top measure needs
        P = simplex(3)
        res = cone_sphere_moment(P.normal_cone(P.faces(3)[0]), s)
        assert res.method == "empty" and res.samples == 0
        assert res.tensor.data.tolist() == ([1.0] if s == 0 else [0.0] * len(multi_degrees(3, s)))

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("batch", [(), (5,)], ids=["unbatched", "batched"])
    def test_no_parts_are_the_origin(self, n, batch):
        # _cone_moment of no rays, no lines and no arc is the cone {0}: 1 at
        # s = 0 and zero above, a number that broadcasts into the batch
        rays, W = np.zeros(batch + (n, 0)), np.zeros(batch + (n, 0))
        assert conemoment._cone_moment(n, 0, rays, W).data.tolist() == [1.0]
        top = conemoment._cone_moment(n, 2, rays, W)
        assert top.rank == 2 and top.data.tolist() == [0.0] * len(multi_degrees(n, 2))

    @pytest.mark.parametrize("s", [0, 2])
    def test_the_classifier_takes_the_origin_from_the_closed_form(self, s, monkeypatch):
        # a level of three cones {0} is one `_cone_moment` call of no parts
        calls, closed_form = [], conemoment._cone_moment
        monkeypatch.setattr(conemoment, "_cone_moment",
                            lambda *args: calls.append(args) or closed_form(*args))
        moment, method = conemoment._closed_forms(s, np.zeros((3, 0, 3)), np.zeros((3, 0)))
        assert method.tolist() == ["empty"] * 3 and len(calls) == 1
        assert np.array_equal(moment, np.ones((3, 1)) if s == 0 else np.zeros((3, 6)))

    def test_halfspace_point_s0(self):
        # facet of the square: cone is a single ray; s = 0 moment is 1 (a
        # zero-dimensional sphere point has counting measure 1)
        P = cube(2)
        f = P.faces(1)[0]
        res = cone_sphere_moment(P.normal_cone(f), 0)
        assert res.tensor.value() == pytest.approx(1.0)
        assert res.stderr.coeffs == {}

    def test_quarter_circle_vertex_cone(self):
        # vertex cone of the square: quarter circle; s = 0 gives pi/2,
        # u^1 integrates to (1, 1) componentwise on the (-x, -y) quadrant
        P = cube(2)
        face = [f for f in P.faces(0) if np.allclose(f.point, [0, 0])][0]
        cone = P.normal_cone(face)
        res0 = cone_sphere_moment(cone, 0)
        assert res0.tensor.value() == pytest.approx(math.pi / 2)
        res1 = cone_sphere_moment(cone, 1)
        assert res1.tensor.coordinate((1, 0)) == pytest.approx(-1.0)
        assert res1.tensor.coordinate((0, 1)) == pytest.approx(-1.0)

    def test_orthant_cone_s2(self):
        # vertex cone of the unit cube: spherical octant; s = 0 gives 4 pi/8,
        # diagonal u_i^2 entries are omega(3)/(3 * 8) by symmetry
        P = cube(3)
        face = [f for f in P.faces(0) if np.allclose(f.point, [0, 0, 0])][0]
        cone = P.normal_cone(face)
        res = cone_sphere_moment(cone, 0)
        assert res.method == "product"
        assert res.tensor.value() == pytest.approx(math.pi / 2)
        res2 = cone_sphere_moment(cone, 2)
        assert res2.tensor.coordinate((2, 0, 0)) == pytest.approx(4 * math.pi / 24)

    def test_edge_cone_of_cube_is_quarter_arc(self):
        # edge cone: wedge of the two orthogonal facet normals; its trace on
        # the sphere is a quarter arc of length pi/2
        P = cube(3)
        edge = P.faces(1)[0]
        cone = P.normal_cone(edge)
        res = cone_sphere_moment(cone, 0)
        assert res.stderr.coeffs == {}
        assert res.tensor.value() == pytest.approx(math.pi / 2)

    def test_dihedral_lune_against_mc(self):
        # non-orthogonal dihedral cone (simplex edge) stays on an exact path
        P = simplex(3)
        edge = P.faces(1)[0]
        cone = P.normal_cone(edge)
        res = cone_sphere_moment(cone, 2)
        assert res.stderr.coeffs == {}
        mc = _monte_carlo_moment(cone, 2, budget=400000, seed=5)
        for beta in multi_degrees(3, 2):
            se = max(mc.stderr.coordinate(beta), 1e-12)
            assert abs(res.tensor.coordinate(beta) - mc.tensor.coordinate(beta)) <= 4 * se


class TestMonteCarloPath:
    def test_simplex_vertex_cone_total_mass(self):
        # external angles of any 3-polytope sum to 1 at s = 0
        P = simplex(3)
        total = 0.0
        for f in P.faces(0):
            res = cone_sphere_moment(P.normal_cone(f), 0, budget=200000, seed=2)
            total += res.tensor.value() / omega(3)
        assert total == pytest.approx(1.0, abs=5e-3)

    def test_mc_reproducible(self):
        P = simplex(3)
        cone = P.normal_cone(P.faces(0)[0])
        a = _monte_carlo_moment(cone, 2, budget=50000, seed=9)
        b = _monte_carlo_moment(cone, 2, budget=50000, seed=9)
        assert a.tensor.max_abs_coordinate_diff(b.tensor) == 0.0

    def test_cross_polytope_vertex_cone_mc_vs_symmetry(self):
        # vertex cone of the 3-cross-polytope at e_1: by symmetry its s = 0
        # external angle is 1/6 of the sphere
        P = cross_polytope(3)
        face = [f for f in P.faces(0) if np.allclose(f.point, [1, 0, 0])][0]
        res = cone_sphere_moment(P.normal_cone(face), 0, budget=300000, seed=3)
        se = max(res.stderr.value() if res.stderr.coeffs else 0.0, 1e-12)
        assert abs(res.tensor.value() - omega(3) / 6) <= 4 * se

    def test_unseen_thin_cone_is_sampled_until_seen(self):
        """The apex of a flat pyramid has a normal cone of about 0.1 % of the
        sphere, which 400 directions miss at seed 0 (the sampler used to
        raise there, with an estimate of zero and a zero stderr).  It is
        sampled on, in the same batches, until a direction falls inside."""
        t = np.array([0.0, 2 * math.pi / 3, 4 * math.pi / 3])
        P = Polytope.from_vertices(np.vstack([np.stack([np.cos(t), np.sin(t), 0 * t], 1),
                                              [[0.0, 0.0, 0.05]]]))
        cone = P.normal_cone([f for f in P.faces(0) if f.point[2] > 0.01][0])
        thin = cone_sphere_moment(cone, 0, budget=400, seed=0)
        assert thin.method == "monte-carlo" and 400 < thin.samples <= 10000
        assert thin.tensor.value() > 0.0 and thin.stderr.value() > 0.0
        reference = cone_sphere_moment(cone, 0, budget=400000, seed=1)
        assert abs(thin.tensor.value() - reference.tensor.value()) <= 4 * thin.stderr.value()
        # a cone hit within the budget draws exactly the budget, as before
        assert cone_sphere_moment(cone, 0, budget=400, seed=7).samples == 400

    def test_a_cone_below_the_rate_floor_raises_with_its_partial(self):
        """The apex of a square pyramid 1e-3 high has a normal cone of about
        3e-7 of the sphere, which 1 / _RATE_FLOOR directions miss: the
        sampler raises and carries what it drew, and tcm passes it on."""
        base = [[x, y, 0.0] for x in (-1.0, 1.0) for y in (-1.0, 1.0)]
        P = Polytope.from_vertices(base + [[0.0, 0.0, 1e-3]])
        apex = [f for f in P.faces(0) if f.point[2] > 0.0][0]
        with pytest.raises(conemoment.ConeMomentBudgetError) as info:
            cone_sphere_moment(P.normal_cone(apex), 0, budget=100, seed=0)
        partial = info.value.partial
        assert partial.method == "monte-carlo" and partial.samples == round(1 / conemoment._RATE_FLOOR)
        assert partial.tensor.value() == 0.0 and partial.stderr.value() == 0.0
        with pytest.raises(conemoment.ConeMomentBudgetError):
            tcm(P, 0, budget=100)


class TestHalfSphereFold:
    """The sampler folds each direction onto the half-sphere <u, axis> >= 0
    that holds the cone, at half the sphere's area."""

    @staticmethod
    def _cones():
        """An orthant, a lune plus a lineality space and an arc 2e-3 short
        of a half turn, each with a closed form."""
        orthant = cube(3).normal_cone([f for f in cube(3).faces(0) if not f.point.any()][0])
        section = intersect_flat(cube(3), flats.random_rotation(stream(4, 0), 3)[:, :2],
                                 np.full(3, 0.5))
        lune = section.normal_cone(section.faces(0)[0])
        thin = Polytope.from_vertices([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-3]])
        arc = thin.normal_cone([f for f in thin.faces(0) if not f.point.any()][0])
        return {"orthant": orthant, "lune": lune, "arc": arc}

    @pytest.mark.parametrize("which, method", [("orthant", "product"), ("lune", "arc"), ("arc", "arc")])
    def test_sampled_cones_agree_with_their_closed_forms(self, which, method):
        cone = self._cones()[which]
        assert cone_sphere_moment(cone, 0).method == method
        assert cone.lineality.shape[1] == (which == "lune")
        assert (cone.rays[0] @ cone.rays[1] < -0.999) == (which == "arc")
        for s in range(5):
            exact = cone_sphere_moment(cone, s).tensor.coordinates_array()
            mc = _monte_carlo_moment(cone, s, budget=100000, seed=30 + s)
            se = np.maximum(mc.stderr.coordinates_array(), 1e-12)
            assert np.all(np.abs(mc.tensor.coordinates_array() - exact) <= 4 * se), s

    def test_orthant_variance_is_that_of_the_half_sphere(self):
        # at s = 0 each draw is omega_3 / 2 with probability Omega / (omega_3 / 2)
        # and 0 otherwise: N stderr^2 = Omega (omega_3 / 2 - Omega), 3 Omega^2
        # for the octant, where the whole sphere gave Omega (omega_3 - Omega)
        cone, N = self._cones()["orthant"], 40000
        mc = _monte_carlo_moment(cone, 0, budget=N, seed=2)
        big_omega = omega(3) / 8
        assert mc.stderr.value() ** 2 * N == pytest.approx(big_omega * (omega(3) / 2 - big_omega), rel=0.1)

    def test_every_sampled_cone_has_a_separating_axis(self):
        rng = np.random.default_rng(8)
        bodies = [simplex(3), cross_polytope(3), cross_polytope(4), random_polytope(3, npoints=12, seed=1),
                  random_polytope(4, npoints=12, seed=2)]
        bodies += _plane_sections() + [
            intersect_flat(P, flats.random_rotation(rng, P.dim)[:, :k], P.vertices.mean(axis=0))
            for P in bodies + [cube(4)] for k in range(1, P.dim)]
        sampled = 0
        for P in bodies:
            for j in range(P.aff_dim + 1):
                _, method = conemoment._closed_forms(0, P._normal_rays(j), P.complement_basis)
                for i in np.flatnonzero(method == "monte-carlo"):
                    cone = P.normal_cone(P.faces(j)[i])
                    assert len(cone.rays) and np.min(cone.rays @ cone.axis) > 0.0
                    sampled += 1
        assert sampled > 100

    def test_an_axis_that_does_not_separate_the_rays_raises(self):
        P = simplex(3)
        cone = P.normal_cone(P.faces(0)[1])
        centred = dataclasses.replace(cone, apex_point=P.vertices.mean(axis=0))
        with pytest.raises(GeometryError, match="does not separate"):
            _monte_carlo_moment(centred, 0, budget=100, seed=0)


def _record_draws(module, monkeypatch):
    """Patch module.stream so every stream it opens records its first draws."""
    draws = []

    def recording(*args):
        draws.append(stream(*args).standard_normal(8))
        return stream(*args)
    monkeypatch.setattr(module, "stream", recording)
    return draws


class TestStreams:
    def test_simplex_vertex_cones_draw_different_numbers(self, monkeypatch):
        draws = _record_draws(conemoment, monkeypatch)
        P = simplex(3)
        methods = [cone_sphere_moment(P.normal_cone(f), 2, budget=100, seed=0).method
                   for f in P.faces(0)]
        assert methods.count("monte-carlo") == 3 == len(draws)
        assert len({tuple(d) for d in draws}) == 3

    def test_cone_moment_and_flat_sampler_draw_different_numbers(self, monkeypatch):
        cone_draws = _record_draws(conemoment, monkeypatch)
        flat_draws = _record_draws(flats, monkeypatch)
        P = simplex(3)
        _monte_carlo_moment(P.normal_cone(P.faces(0)[1]), 2, budget=100, seed=5)
        sample_flats_hitting(P, 1, 100, seed=5)
        assert cone_draws and flat_draws
        assert not any(np.array_equal(a, b) for a in cone_draws for b in flat_draws)

    def test_sampler_stream_keyed_by_seed_alone(self):
        # the flat and motion samplers keep the streams they drew before
        # purpose words existed
        bg = np.random.Philox(key=np.uint64(5))
        bg.advance(3 << 40)
        assert np.array_equal(stream(5, 3).random(8), np.random.Generator(bg).random(8))


# -- normal cones: rays and lineality space -----------------------------------

def _plane_sections(n=4):
    """Plane sections of three n-bodies through points near their centres."""
    rng = np.random.default_rng(11)
    out = []
    for P in (cube(n), cross_polytope(n), random_polytope(n, npoints=12, seed=2)):
        c = P.vertices.mean(axis=0)
        for _ in range(6):
            S = intersect_flat(P, flats.random_rotation(rng, n)[:, :2], c + 0.2 * rng.standard_normal(n))
            if S is not None:
                out.append(S)
    return out


def _generator_span(P, face):
    """The span frame of the cone's generator list: the facet normals, then
    +w and -w for each lineality vector w, normalised, and one SVD.  The
    Monte-Carlo sampler draws its directions in this frame, so a change in
    its last bit changes every draw."""
    tight = np.all(P.incidence[list(face.vertex_indices)], axis=0)
    gens = [P.frame @ P.A[f] for f in np.nonzero(tight)[0]]
    W = P.complement_basis
    for i in range(W.shape[1]):
        gens += [W[:, i], -W[:, i]]
    gens = np.array(gens).reshape(-1, P.dim)
    gens = gens / np.linalg.norm(gens, axis=1)[:, None]
    u, sv, _ = np.linalg.svd(gens.T, full_matrices=False)
    return u[:, :int(np.sum(sv > 1e-10))]


class TestNormalCones:
    @pytest.mark.parametrize("which", ["bodies", "sections"])
    def test_rays_and_lineality(self, which):
        rng = np.random.default_rng(3)
        bodies = [cube(3), simplex(3), cross_polytope(4), random_polytope(3, npoints=12, seed=1)]
        if which == "sections":
            bodies = _plane_sections() + [
                intersect_flat(P, flats.random_rotation(rng, P.dim)[:, :k], P.vertices.mean(axis=0))
                for P in bodies for k in range(1, P.dim)]
        for P in bodies:
            for j in range(P.aff_dim + 1):
                for face in P.faces(j):
                    cone = P.normal_cone(face)
                    W = cone.lineality
                    assert W.shape == (P.dim, P.dim - P.aff_dim)
                    # W spans the orthogonal complement of the hull
                    assert np.max(np.abs(W.T @ W - np.eye(W.shape[1])), initial=0.0) <= 1e-12
                    assert np.max(np.abs(P.frame.T @ W), initial=0.0) <= 1e-12
                    assert np.max(np.abs(np.linalg.norm(cone.rays, axis=1) - 1.0), initial=0.0) <= 1e-12
                    assert np.max(np.abs(cone.rays @ W), initial=0.0) <= 1e-12
                    # one ray per facet of P at the face, and none for P itself
                    facets = np.all(P.incidence[list(face.vertex_indices)], axis=0)
                    assert len(cone.rays) == np.count_nonzero(facets) and (j < P.aff_dim or not len(cone.rays))
                    assert cone.lin_dim - W.shape[1] == (np.linalg.matrix_rank(cone.rays) if len(cone.rays) else 0)
                    assert np.array_equal(cone.lin_frame, _generator_span(P, face))

    def test_method_histogram(self):
        """The closed form chosen for every face; the counts were measured
        while the lineality space was recovered from the generators.  The
        vertex cones of the plane sections in R^4 are arcs plus the plane's
        2-dimensional complement."""
        def methods(bodies):
            count = collections.Counter()
            for P in bodies:
                for j in range(P.aff_dim + 1):
                    for face in P.faces(j):
                        try:
                            count[cone_sphere_moment(P.normal_cone(face), 0, budget=100).method] += 1
                        except conemoment.ConeMomentBudgetError as exc:
                            count[exc.partial.method] += 1
            return dict(count)

        assert methods([cube(4)]) == {"product": 72, "point": 8, "empty": 1}
        assert methods([simplex(3)]) == {"product": 4, "monte-carlo": 3, "arc": 3, "point": 4, "empty": 1}
        assert methods([cross_polytope(4)]) == {"monte-carlo": 32, "arc": 32, "point": 16, "empty": 1}
        sections = _plane_sections()
        assert len(sections) == 18
        assert methods(sections) == {"arc": 142, "product": 142, "full-sphere": 18}

    def test_measures_report_the_method_histogram(self):
        """tcm classifies each level of faces at once; the methods it reports
        are those of one `cone_sphere_moment` per face."""
        for P in [cube(4), simplex(3), cross_polytope(4)] + _plane_sections():
            for j in range(P.aff_dim + 1):
                count = collections.Counter()
                for face in P.faces(j):
                    try:
                        count[cone_sphere_moment(P.normal_cone(face), 0, budget=100).method] += 1
                    except conemoment.ConeMomentBudgetError as exc:
                        count[exc.partial.method] += 1
                assert tcm(P, j, budget=2000).methods == count, (P.vertices, j)

    @pytest.mark.parametrize("body, samples, tensor, stderr", [
        (simplex(3), 60000,
         [0.07921749680386901, 8.915904500083739e-06, 9.321942728895334e-05, 0.07934196398407187,
          4.0846792877200874e-05, 0.07970742564135844],
         [0.00040044842390263557, 0.00028237289685199005, 0.0002826145856521575, 0.0004007339608045454,
          0.00028239391194737783, 0.00040258120860559515]),
        (cross_polytope(4), 160000,
         [0.07955634498558434, -0.0006122444854973257, 0.0001575796786222005, -9.855167740223256e-05,
          0.0793453191214602, -8.173161046213072e-05, 0.0003736218754249156, 0.07962354355865114,
          -0.00023564895104891332, 0.07907643902133608],
         [0.0004999019750693158, 0.00032366716450210473, 0.00032440649026538917, 0.0003238373913098698,
          0.0004970920077309794, 0.0003262300853304577, 0.0003245601192066719, 0.0004994280344604421,
          0.00032348585602421157, 0.0004968581346508146]),
    ], ids=["simplex3", "cross4"])
    def test_monte_carlo_vertex_measures_keep_their_draws(self, body, samples, tensor, stderr):
        """tcm(P, 0, s=2) as measured when the sampler first folded each
        vertex cone's draws onto the half-sphere of its axis, with the stderr
        of the vertices' own streams added in quadrature.
        The values are bit-identical on x86-64 with OpenBLAS; the tolerance
        lets other BLAS builds round the sums differently, while other draws
        would move them by about one stderr."""
        mv = tcm(body, 0, s=2)
        assert mv.mc_samples == samples
        np.testing.assert_allclose(mv.tensor.coordinates_array(), tensor, rtol=1e-12, atol=0)
        np.testing.assert_allclose(mv.stderr.coordinates_array(), stderr, rtol=1e-12, atol=0)
