import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorgeo import polytope
from tensorgeo.polytope import (
    EmptyPolytopeError,
    GeometryError,
    GrazingIntersectionError,
    Polytope,
    Region,
    cross_polytope,
    cube,
    builtin_polytope,
    intersect_flat,
    polytope_moment,
    random_polytope,
    simplex,
    simplex_moment,
    triangulate,
)
from tensorgeo.conemoment import ConeMomentBudgetError
from tensorgeo.measures import tcm
from tensorgeo.verify import kinematic_lhs


class TestConstruction:
    def test_cube_counts(self):
        P = cube(3)
        assert len(P.vertices) == 8
        assert len(P.b) == 6
        assert P.aff_dim == 3

    def test_simplex_counts(self):
        P = simplex(3)
        assert len(P.vertices) == 4
        assert len(P.b) == 4

    def test_cross_polytope_counts(self):
        P = cross_polytope(3)
        assert len(P.vertices) == 6
        assert len(P.b) == 8

    def test_interior_points_dropped(self):
        pts = np.vstack([cube(2).vertices, [[0.5, 0.5]]])
        P = Polytope.from_vertices(pts)
        assert len(P.vertices) == 4

    def test_from_halfspaces_roundtrip(self):
        P = cube(3)
        A, b = P.ambient_halfspaces()
        P2 = Polytope.from_halfspaces(A, b)
        assert sorted(map(tuple, np.round(P2.vertices, 9))) == \
            sorted(map(tuple, np.round(P.vertices, 9)))

    def test_empty_halfspaces(self):
        with pytest.raises(EmptyPolytopeError):
            Polytope.from_halfspaces(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))

    def test_lower_dimensional(self):
        seg = Polytope.from_vertices([[0, 0, 0], [1, 1, 1]])
        assert seg.aff_dim == 1
        assert seg.volume() == pytest.approx(math.sqrt(3))

    def test_no_vertices(self):
        with pytest.raises(EmptyPolytopeError):
            Polytope.from_vertices([])

    def test_ambient_halfspaces_need_a_full_dimensional_body(self):
        with pytest.raises(GeometryError, match="full-dimensional"):
            Polytope.from_vertices([[0.0, 0.0], [1.0, 1.0]]).ambient_halfspaces()


class TestFaces:
    def test_cube_face_counts(self):
        P = cube(3)
        assert len(P.faces(0)) == 8
        assert len(P.faces(1)) == 12
        assert len(P.faces(2)) == 6
        assert len(P.faces(3)) == 1

    def test_simplex_face_counts(self):
        P = simplex(3)
        assert [len(P.faces(j)) for j in range(4)] == [4, 6, 4, 1]

    def test_cross_face_counts(self):
        P = cross_polytope(3)
        assert [len(P.faces(j)) for j in range(4)] == [6, 12, 8, 1]

    def test_normal_cone_dimension(self):
        P = cube(3)
        for j in range(3):
            for f in P.faces(j):
                assert P.normal_cone(f).lin_dim == 3 - j

    def test_vertex_cone_membership(self):
        P = cube(2)
        # vertex at the origin: normal cone is the negative quadrant
        face = [f for f in P.faces(0) if np.allclose(f.point, [0, 0])][0]
        cone = P.normal_cone(face)
        assert cone.contains(np.array([-1.0, -1.0]) / math.sqrt(2))[0]
        assert not cone.contains(np.array([1.0, 0.0]))[0]


class TestVolumeAndMoments:
    def test_volumes(self):
        assert cube(3).volume() == pytest.approx(1.0)
        assert simplex(3).volume() == pytest.approx(1 / 6)
        assert cross_polytope(3).volume() == pytest.approx(4 / 3)

    def test_simplex_moment_r0_is_volume(self):
        verts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        assert simplex_moment(verts, 0).value() == pytest.approx(2.0)

    def test_simplex_moment_r1_is_centroid_times_volume(self):
        verts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        m = simplex_moment(verts, 1)
        vol = 4.5
        centroid = verts.mean(axis=0)
        assert m.coordinate((1, 0)) == pytest.approx(vol * centroid[0])
        assert m.coordinate((0, 1)) == pytest.approx(vol * centroid[1])

    def test_cube_moment_r2_against_quadrature(self):
        # integral of x_i x_j over the unit cube: 1/3 diagonal, 1/4 off-diagonal
        m = polytope_moment(cube(2), 2)
        assert m.coordinate((2, 0)) == pytest.approx(1 / 3)
        assert m.coordinate((0, 2)) == pytest.approx(1 / 3)
        assert m.coordinate((1, 1)) == pytest.approx(1 / 4)

    def test_moment_with_region(self):
        reg = Region.box([0, 0], [0.5, 1.0])
        m = polytope_moment(cube(2), 0, reg)
        assert m.value() == pytest.approx(0.5)

    def test_triangulation_volumes_add_up(self):
        P = random_polytope(3, npoints=12, seed=3)
        vol = sum(abs(np.linalg.det(s[1:] - s[0])) / 6 for s in triangulate(P))
        assert vol == pytest.approx(P.volume(), rel=1e-10)


class TestTransforms:
    def test_rigid_motion_preserves_volume(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        P = simplex(3).transformed(q, np.array([1.0, -2.0, 0.5]))
        assert P.volume() == pytest.approx(1 / 6, rel=1e-10)
        assert len(P.faces(1)) == 6

    def test_scaling(self):
        P = cube(2).scaled(3.0)
        assert P.volume() == pytest.approx(9.0)

    def test_contains(self):
        P = cube(2)
        inside = P.contains(np.array([[0.5, 0.5], [1.5, 0.5]]))
        assert inside.tolist() == [True, False]


class TestFlatSections:
    def test_line_section_of_square(self):
        B = np.array([[1.0], [0.0]])
        sec = intersect_flat(cube(2), B, np.array([0.0, 0.5]))
        assert sec.aff_dim == 1
        assert sec.volume() == pytest.approx(1.0)

    def test_missing_flat_returns_none(self):
        B = np.array([[1.0], [0.0]])
        assert intersect_flat(cube(2), B, np.array([0.0, 2.0])) is None

    def test_grazing_raises(self):
        B = np.array([[1.0], [0.0]])
        with pytest.raises(GrazingIntersectionError):
            intersect_flat(cube(2), B, np.array([0.0, 1.0]))

    def test_diagonal_plane_section_of_cube(self):
        # plane x + y + z = 1.5 cuts the cube in a regular hexagon
        nrm = np.ones(3) / math.sqrt(3)
        B = np.linalg.svd(np.eye(3) - np.outer(nrm, nrm))[0][:, :2]
        sec = intersect_flat(cube(3), B, np.array([0.5, 0.5, 0.5]))
        assert sec.aff_dim == 2
        assert len(sec.vertices) == 6
        # hexagon with side sqrt(2)/2: area = 3 sqrt(3)/2 * (1/2)
        assert sec.volume() == pytest.approx(3 * math.sqrt(3) / 4, rel=1e-9)


class TestRegionsAndJson:
    def test_region_box_contains(self):
        reg = Region.box([0, 0], [1, 1])
        assert reg.contains(np.array([[0.5, 0.5]]))[0]
        assert not reg.contains(np.array([[1.5, 0.5]]))[0]

    def test_region_transform(self):
        reg = Region.box([0, 0], [1, 1]).transformed(t=np.array([2.0, 0.0]))
        assert reg.contains(np.array([[2.5, 0.5]]))[0]
        assert not reg.contains(np.array([[0.5, 0.5]]))[0]

    def test_polytope_json_roundtrip(self):
        P = simplex(3)
        P2 = Polytope.from_json(P.to_json())
        assert sorted(map(tuple, np.round(P2.vertices, 9))) == \
            sorted(map(tuple, np.round(P.vertices, 9)))

    def test_region_json_roundtrip(self):
        reg = Region.box([0, 1], [2, 3])
        reg2 = Region.from_json(reg.to_json())
        x = np.array([[1.0, 2.0], [3.0, 2.0]])
        assert reg.contains(x).tolist() == reg2.contains(x).tolist()

    def test_universe_roundtrip(self):
        assert Region.from_json(Region.universe().to_json()).is_universe

    def test_universe_contains_everything(self):
        assert Region().contains(np.array([[1e9, -1e9], [0.0, 0.0]])).tolist() == [True, True]


class TestBuiltins:
    def test_names(self):
        assert builtin_polytope("cube3").volume() == pytest.approx(1.0)
        assert builtin_polytope("simplex2").volume() == pytest.approx(0.5)
        assert builtin_polytope("cross2").volume() == pytest.approx(2.0)
        assert builtin_polytope("random3-7").aff_dim == 3

    def test_unknown_name(self):
        with pytest.raises(GeometryError):
            builtin_polytope("dodecahedron")


# -- per-subset loops: the reference for the batched d-subset enumeration ----

def _first_of_each_loop(values, tol, tight=None):
    keep = []
    for i, v in enumerate(values):
        near = [np.abs(v - values[k]) <= tol for k in keep]
        if tight is not None:
            near = [c | ~(tight[i] | tight[k]) for c, k in zip(near, keep)]
        if not any(np.all(c) for c in near):
            keep.append(i)
    return keep


def _vertices_loop(A, b):
    f, d = A.shape
    tol = polytope.DIRECTION_TOL
    norm = np.maximum(np.linalg.norm(A, axis=1), tol)
    unit, offset = A / norm[:, None], b / norm
    cand = []
    for idx in itertools.combinations(range(f), d):
        M = A[list(idx)]
        sv = np.linalg.svd(M, compute_uv=False)
        if sv[-1] <= sv[0] / polytope._COND_GUARD or sv[-1] <= tol:
            continue
        x = np.linalg.solve(M, b[list(idx)])
        if np.all(unit @ x <= offset + polytope.SLACK * np.linalg.norm(x)):
            cand.append(x)
    if not cand:
        return np.zeros((0, d))
    # one vertex: residuals within the kept one's slack, SLACK |x|, on every
    # row tight at either
    out = []
    for x in cand:
        r = offset - unit @ x
        slack = polytope.SLACK * np.linalg.norm(x)
        tight = np.abs(r) <= slack
        if not any(np.all(np.abs(r - r2)[tight | t2] <= s2) for r2, t2, s2, _ in out):
            out.append((r, tight, slack, x))
    return np.array([x for *_, x in out])


def _same_rows(got, want):
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _check_vertices(A, b):
    _same_rows(polytope._vertices_brute_force(A, b), _vertices_loop(A, b))


def _check_build(points):
    """Polytope.from_vertices with the batched enumeration against the
    loops, the polar's vertices by the per-subset vertex loop: same vertices
    in the same order, same facets, same faces."""
    def build():
        try:
            return Polytope.from_vertices(points)
        except GeometryError as exc:
            return type(exc)
    got = build()
    with mock.patch.multiple(polytope, _first_of_each=_first_of_each_loop,
                             _vertices_brute_force=_vertices_loop):
        want = build()
    if isinstance(want, type):
        assert got is want
        return None
    _same_rows(got.vertices, want.vertices)
    _same_rows(got.A, want.A)
    _same_rows(got.b, want.b)
    assert got._face_vertex_sets() == want._face_vertex_sets()
    # the loop makes one SVD per subset: skip the vertex check on the
    # 48-56-facet 4-bodies that perturbed 4-cubes become (C(56, 4) = 367290)
    if got.aff_dim == got.dim and math.comb(len(got.b), got.dim) <= 20000:
        _check_vertices(*got.ambient_halfspaces())
    return got


def _rotation(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


seeds = st.integers(0, 2 ** 32 - 1)


class TestBatchedEnumeration:
    @given(n=st.integers(2, 4), extra=st.integers(1, 8), seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_random_points(self, n, extra, seed):
        rng = np.random.default_rng(seed)
        P = _check_build(rng.standard_normal((n + extra, n)))
        # a random k-flat section system of the same body
        k = int(rng.integers(1, n)) if P is not None and P.aff_dim == n else 0
        if k:
            A, b = P.ambient_halfspaces()
            B = _rotation(rng, n)[:, :k]
            q = 0.3 * rng.standard_normal(n)
            _check_vertices(A @ B, b - A @ q)

    @given(n=st.integers(2, 4), seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_rotated_cubes_and_cross_polytopes(self, n, seed):
        rng = np.random.default_rng(seed)
        rho, t = _rotation(rng, n), rng.standard_normal(n)
        for body in (cube(n), cross_polytope(n)):
            P = _check_build(body.vertices @ rho.T + t)
            assert len(P.b) == len(body.b)

    @given(n=st.integers(2, 4), seed=seeds, eps=st.sampled_from([0.0, 1e-13, 1e-10]))
    @settings(max_examples=20, deadline=None)
    def test_duplicate_vertices(self, n, seed, eps):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((n + 3, n))
        dup = pts[rng.integers(0, len(pts), 4)] + eps * rng.standard_normal((4, n))
        pts = np.vstack([pts, dup])[rng.permutation(len(pts) + 4)]
        assert polytope._first_of_each(pts, 1e-9) == _first_of_each_loop(pts, 1e-9)
        _check_build(pts)

    @given(n=st.integers(2, 4), k=st.integers(0, 3), seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_lower_dimensional(self, n, k, seed):
        rng = np.random.default_rng(seed)
        k = min(k, n - 1)
        pts = rng.standard_normal((k + 4, k)) @ _rotation(rng, n)[:k] + rng.standard_normal(n)
        P = _check_build(pts)
        assert P.aff_dim == k

    @given(n=st.integers(2, 4), seed=seeds, eps=st.sampled_from([1e-13, 1e-11, 1e-9, 1e-7, 1e-5]))
    @settings(max_examples=30, deadline=None)
    def test_near_coplanar(self, n, seed, eps):
        rng = np.random.default_rng(seed)
        pts = cube(n).vertices + eps * rng.standard_normal((2 ** n, n))
        _check_build(pts)
        flat = rng.standard_normal((n + 4, n))
        flat[:, -1] = eps * rng.standard_normal(n + 4)
        _check_build(flat)

    @given(n=st.integers(2, 4), seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_fewer_constraints_than_dimension_and_empty(self, n, seed):
        rng = np.random.default_rng(seed)
        for f in range(n):
            A, b = rng.standard_normal((f, n)), rng.standard_normal(f)
            assert polytope._vertices_brute_force(A, b).shape == (0, n)
            _check_vertices(A, b)
        # an infeasible system: x_0 <= -1 and x_0 >= 1 inside a box
        A = np.vstack([np.eye(n), -np.eye(n)])
        b = np.ones(2 * n)
        b[0] = -1.0
        _check_vertices(A, b)

    @pytest.mark.parametrize("block", [1024, 1034, 1035])
    def test_block_boundaries(self, block, monkeypatch):
        # 46 tangents of the unit circle (a regular 46-gon) and its 46
        # vertices: C(46, 2) = 1035 subsets, so a block of 1034 leaves a last
        # block of one subset and a block of 1035 takes them all in one.
        monkeypatch.setattr(polytope, "_BLOCK", block)
        t = 2 * math.pi * np.arange(46) / 46
        A = np.column_stack([np.cos(t), np.sin(t)])
        _check_vertices(A, np.ones(46))
        P = _check_build(A)
        assert len(P.b) == 46

    @pytest.mark.parametrize("seed", [0, 1])
    def test_forty_points_in_r3(self, seed):
        # C(40, 3) = 9880 subsets: nine full blocks and one of 664
        P = _check_build(np.random.default_rng(seed).standard_normal((40, 3)))
        assert P.aff_dim == 3

    @given(n=st.integers(2, 4), kind=st.sampled_from(["random", "cube", "slab"]),
           eps=st.sampled_from([1e-9, 1e-7, 1e-5]), scale=st.sampled_from([1e-3, 1.0, 1e3]),
           seed=seeds)
    @example(n=2, kind="slab", eps=1e-7, scale=1e3, seed=0)
    @example(n=4, kind="cube", eps=1e-7, scale=1e3, seed=0)
    @example(n=3, kind="random", eps=1e-9, scale=1e3, seed=0)
    @settings(max_examples=30, deadline=None)
    def test_scaled_and_near_degenerate_inputs(self, n, kind, eps, scale, seed):
        # the closed-form screen on every block, however small: a margin
        # that does not grow with the body would drop a facet or a vertex
        rng = np.random.default_rng(seed)
        if kind == "random":
            pts = rng.standard_normal((n + 6, n))
        elif kind == "cube":
            pts = cube(n).vertices + eps * rng.standard_normal((2 ** n, n))
        else:
            pts = rng.standard_normal((n + 6, n))
            pts[:, -1] *= eps
            pts = pts @ _rotation(rng, n).T
        pts = scale * pts
        with mock.patch.object(polytope, "_SCREEN_MIN", 0):
            P = _check_build(pts)
            if P is None or P.aff_dim < n:
                return
            # the body's halfspaces with a box around the points that cuts it
            A, b = P.ambient_halfspaces()
            centre, half = pts.mean(axis=0), 0.3 * np.ptp(pts, axis=0)
            A = np.vstack([A, np.eye(n), -np.eye(n)])
            b = np.concatenate([b, centre + half, half - centre])
            if math.comb(len(b), n) <= 20000:
                _check_vertices(A, b)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_screen_leaves_few_subsets_to_the_exact_path(self, seed):
        # of the C(40, 3) = 9880 subsets of the polar's rows, about one per
        # facet reaches the SVD condition guard of the vertex search; of the
        # halfspace system's subsets, about those of the rows tight at each
        # vertex
        pts = np.random.default_rng(seed).standard_normal((40, 3))
        guarded, svd = [], np.linalg.svd

        def count_guarded(M, *args, **kwargs):
            if not kwargs.get("compute_uv", True):
                guarded.append(len(M))
            return svd(M, *args, **kwargs)

        with mock.patch.object(np.linalg, "svd", count_guarded):
            P = Polytope.from_vertices(pts)
        assert sum(guarded) <= 2 * len(P.b)
        A, b = P.ambient_halfspaces()
        guarded.clear()
        with mock.patch.object(np.linalg, "svd", count_guarded):
            V = polytope._vertices_brute_force(A, b)
        tight = np.abs(V @ A.T - b) <= P.slack
        assert len(V) == len(P.vertices)
        assert sum(guarded) <= 2 * sum(math.comb(int(k), 3) for k in tight.sum(axis=1))


# -- halfspace systems: the rows become the facets ---------------------------

def _check_halfspaces(A, b, origin=None, frame=None):
    """Polytope.from_halfspaces against from_vertices on the system's
    vertices, which finds the facets as the vertices of their polar: the
    same vertex rows in the same order, the same facets up to order, the
    same face lattice."""
    n = A.shape[1]
    origin = np.zeros(n) if origin is None else origin
    frame = np.eye(n) if frame is None else frame
    try:
        got = Polytope.from_halfspaces(A, b, origin, frame)
    except EmptyPolytopeError:
        assert len(polytope._vertices_brute_force(A, b)) == 0
        return None
    want = Polytope.from_vertices(origin + polytope._vertices_brute_force(A, b)
                                  @ frame.T)
    assert np.array_equal(got.vertices, want.vertices)
    assert np.array_equal(got.origin, want.origin) and np.array_equal(got.frame, want.frame)
    assert len(got.b) == len(want.b)
    facets = np.column_stack([got.A, got.b])
    for row in np.column_stack([want.A, want.b]):
        assert np.min(np.max(np.abs(facets - row), axis=1)) <= 1e-9
    assert got._face_vertex_sets() == want._face_vertex_sets()
    for j in range(got.aff_dim + 1):
        assert [f.vertex_indices for f in got.faces(j)] == [f.vertex_indices for f in want.faces(j)]
    return got


def _box_system(rng, n, extra):
    """A box around the origin cut by `extra` random halfspaces that keep
    the origin inside; some of them miss the box and are redundant."""
    A = np.vstack([np.eye(n), -np.eye(n), rng.standard_normal((extra, n))])
    b = np.concatenate([rng.uniform(0.5, 1.5, 2 * n), rng.uniform(0.1, 3.0, extra)])
    return A, b


class TestFromHalfspaces:
    @given(n=st.integers(2, 4), extra=st.integers(0, 6), seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_random_and_rotated_systems(self, n, extra, seed):
        rng = np.random.default_rng(seed)
        A, b = _box_system(rng, n, extra)
        assert _check_halfspaces(A, b).aff_dim == n
        # the same system rotated, translated and with rows of other lengths
        rho, t = _rotation(rng, n), rng.standard_normal(n)
        lengths = rng.uniform(0.5, 2.0, len(b))
        Ar = lengths[:, None] * (A @ rho.T)
        assert _check_halfspaces(Ar, lengths * (b + A @ rho.T @ t)).aff_dim == n

    @given(n=st.integers(2, 4), seed=seeds, eps=st.sampled_from([1e-13, 1e-11, 1e-9, 1e-3]))
    @example(n=2, seed=680, eps=1e-9)
    @example(n=4, seed=449, eps=1e-3)
    @example(n=4, seed=9843, eps=1e-3)
    @settings(max_examples=30, deadline=None)
    def test_near_coplanar_rows(self, n, seed, eps):
        # three rows again, tilted by eps: near-duplicate facets, and vertices
        # where more than n facets nearly meet
        rng = np.random.default_rng(seed)
        A, b = _box_system(rng, n, 2)
        rows = rng.choice(len(b), 3, replace=False)
        At = np.vstack([A, A[rows] + eps * rng.standard_normal((3, n))])
        bt = np.concatenate([b, b[rows] + eps * rng.standard_normal(3)])
        if eps in (1e-13, 1e-3):
            _check_halfspaces(At, bt)
            return
        # a tilt above the solver's condition guard and below the slack
        # merges with its row: the body is the untilted one
        got, want = Polytope.from_halfspaces(At, bt), Polytope.from_halfspaces(A, b)
        assert len(got.vertices) == len(want.vertices) and len(got.b) == len(want.b)
        gap = np.max(np.abs(got.vertices[:, None] - want.vertices[None]), axis=2)
        assert np.max(np.min(gap, axis=1)) <= 1e-8

    def test_vertices_meet_unit_rows_within_the_body_slack(self):
        """test_near_coplanar_rows' system at seed 8670 (n = 4, eps = 1e-3).
        The vertex search tested unnormalised rows with a slack scaled by
        max |b|, and admitted a point 2.4e-7 outside a unit row, beyond the
        body's slack of 1.5e-7; from_vertices on its points then kept a
        near-facet through that point (13 facets and 33 vertices)."""
        rng = np.random.default_rng(8670)
        A, b = _box_system(rng, 4, 2)
        rows = rng.choice(len(b), 3, replace=False)
        At = np.vstack([A, A[rows] + 1e-3 * rng.standard_normal((3, 4))])
        bt = np.concatenate([b, b[rows] + 1e-3 * rng.standard_normal(3)])
        body = Polytope.from_halfspaces(At, bt)
        verts = polytope._vertices_brute_force(At, bt)
        assert np.max((verts @ At.T - bt) / np.linalg.norm(At, axis=1)) <= body.slack
        rebuilt = Polytope.from_vertices(verts)
        assert (len(rebuilt.b), len(rebuilt.vertices)) == (len(body.b), len(body.vertices)) == (12, 32)

    @pytest.mark.parametrize("seed", [136, 192])
    def test_tilted_rows_at_a_small_angle(self, seed):
        """test_near_coplanar_rows' system at eps = 1e-5 in R^3, whose
        tilted rows leave sides with vertices coplanar only within about
        1e-5: from_vertices on its vertices builds what from_halfspaces
        builds.  Seed 192 was once measured with 5 % too much volume; seed
        136 loses a vertex, and 57 % of its volume, when the polar search
        merges facets by the slack of the facet nearest the points' mean."""
        rng = np.random.default_rng(seed)
        A, b = _box_system(rng, 3, 2)
        rows = rng.choice(len(b), 3, replace=False)
        At = np.vstack([A, A[rows] + 1e-5 * rng.standard_normal((3, 3))])
        bt = np.concatenate([b, b[rows] + 1e-5 * rng.standard_normal(3)])
        _check_halfspaces(At, bt)

    @given(n=st.integers(2, 4), seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_flat_sections(self, n, seed):
        rng = np.random.default_rng(seed)
        P = random_polytope(n, npoints=n + 6, seed=int(rng.integers(1000)))
        A, b = P.ambient_halfspaces()
        for k in range(1, n):
            B = _rotation(rng, n)[:, :k]
            q = P.vertices.mean(axis=0) + 0.3 * rng.standard_normal(n)
            _check_halfspaces(A @ B, b - A @ q, q, B)

    @given(n=st.integers(2, 4), seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_clips(self, n, seed):
        rng = np.random.default_rng(seed)
        P = random_polytope(n, npoints=n + 3, seed=int(rng.integers(1000)))
        A, b = P.ambient_halfspaces()
        f = int(rng.integers(len(b)))
        cut = rng.standard_normal((2, n))
        windows = [Region(cut, cut @ P.vertices.mean(axis=0) + 0.2),    # two planes
                   Region(A[f:f + 1], b[f:f + 1]),                      # repeats a facet
                   Region(np.vstack([A[f], cut[0]]), [b[f], cut[0] @ P.vertices[0]]),
                   Region(-A[f:f + 1], -b[f:f + 1]),                    # only touches a facet
                   Region(-A[f:f + 1], -b[f:f + 1] - 1e-3)]             # misses the body
        for window in windows:
            clip = _check_halfspaces(np.vstack([P.A, window.A @ P.frame]),
                                     np.concatenate([P.b, window.b - window.A @ P.origin]),
                                     P.origin, P.frame)
            got = P.intersect_region(window)
            assert (got is None) == (clip is None)
            if clip is not None:
                assert np.array_equal(got.vertices, clip.vertices)
        assert P.intersect_region(windows[1]).aff_dim == n
        assert P.intersect_region(windows[3]).aff_dim == n - 1
        assert P.intersect_region(windows[4]) is None

    @given(n=st.integers(2, 4), seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_two_body_intersections(self, n, seed):
        rng = np.random.default_rng(seed)
        A1, b1 = random_polytope(n, npoints=n + 3, seed=int(rng.integers(1000))).ambient_halfspaces()
        A2, b2 = simplex(n).ambient_halfspaces()
        rho, t = _rotation(rng, n), 0.3 * rng.standard_normal(n)
        Ag = A2 @ rho.T
        _check_halfspaces(np.vstack([A1, Ag]), np.concatenate([b1, b2 + Ag @ t]))

    def test_no_facet_search_for_full_dimensional_results(self):
        P, Q = random_polytope(3, npoints=12, seed=5), cube(3, -0.6, 0.6)
        c = P.vertices.mean(axis=0)
        B = _rotation(np.random.default_rng(1), 3)[:, :2]
        window = Region.box(c - 0.4, c + 0.4)
        with mock.patch.object(polytope, "_polar_facets", side_effect=AssertionError):
            assert intersect_flat(P, B, c).aff_dim == 2
            assert P.intersect_region(window).aff_dim == 3
            assert intersect_flat(P, B, c).intersect_region(window).aff_dim == 2
            est, _, rejections = kinematic_lhs(P, Q, 1, samples=30, seed=2)
        assert np.any(est.data) and rejections == 0


# -- one tolerance policy: a slack that scales with the body ----------------

def _slab():
    """Eight points in a slab 2.2e-7 thick, turned by 0.7 rad: thinner than
    its slack (SLACK times a scale of about 2.5), so a segment."""
    pts = np.random.default_rng(0).standard_normal((8, 2))
    pts[:, 1] *= 1e-7
    c, s = math.cos(0.7), math.sin(0.7)
    return pts @ np.array([[c, -s], [s, c]]).T


def _points(kind, n, eps, rng):
    if kind == "random":
        return rng.standard_normal((n + 6, n))
    if kind == "coplanar":          # a cube with its vertices moved by eps
        return cube(n).vertices - 0.5 + eps * rng.standard_normal((2 ** n, n))
    pts = rng.standard_normal((n + 6, n))
    pts[:, -1] *= eps               # a slab eps thick
    return pts @ _rotation(rng, n).T


def _exact_levels(P):
    """The face levels whose normal cones all have closed forms: the
    facets and the body, and every level of a segment, or of a polygon in
    R^2 or R^3."""
    d = P.aff_dim
    return range(0 if d <= 1 or (d == 2 and P.dim <= 3) else d - 1, d + 1)


def _measures(P):
    """tcm of P at `_exact_levels`, or the error that rejects it: a body a
    few slacks thin can have near-parallel facets on each side, whose
    lattice the window test rejects or whose cones sample too thin."""
    try:
        return [tcm(P, j).tensor.data for j in _exact_levels(P)]
    except (GeometryError, ConeMomentBudgetError) as exc:
        return type(exc)


class TestTolerancePolicy:
    @pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
    def test_thin_slab_is_a_segment_at_every_scale(self, lam):
        P, unit = Polytope.from_vertices(lam * _slab()), Polytope.from_vertices(_slab())
        assert (P.aff_dim, len(P.vertices)) == (unit.aff_dim, len(unit.vertices)) == (1, 2)
        for j in (0, 1):
            got, want = tcm(P, j).tensor.value(), lam ** j * tcm(unit, j).tensor.value()
            assert got == pytest.approx(want, rel=1e-10, abs=0)
        assert tcm(unit, 1).tensor.value() == pytest.approx(np.ptp(_slab() @ P.frame[:, 0]))

    @given(n=st.integers(2, 4), kind=st.sampled_from(["random", "coplanar", "slab"]),
           eps=st.sampled_from([1e-11, 1e-9, 1e-7, 1e-5]), seed=seeds)
    @example(n=2, kind="slab", eps=1e-5, seed=0)
    @example(n=3, kind="coplanar", eps=1e-5, seed=0)
    @example(n=2, kind="slab", eps=1e-7, seed=14)
    @settings(max_examples=30, deadline=None)
    def test_scaled_and_rotated_copies_take_the_same_branches(self, n, kind, eps, seed):
        rng = np.random.default_rng(seed)
        pts = _points(kind, n, eps, rng)
        P = Polytope.from_vertices(pts)
        copies = [Polytope.from_vertices(pts @ _rotation(rng, n).T)]
        want = _measures(P)
        for lam in (1e-3, 1e3):
            Q = Polytope.from_vertices(lam * pts)
            copies.append(Q)
            got = _measures(Q)
            if isinstance(want, type):          # rejected alike at every scale
                assert got is want
                continue
            # within 1e-10 of the scale to the power j: a sliver's area
            # carries the rounding of its long sides, not of its width
            for j, g, w in zip(_exact_levels(P), got, want):
                assert np.max(np.abs(g - lam ** j * w)) <= 1e-10 * (lam * P.scale) ** j
        for Q in copies:
            assert (len(Q.vertices), len(Q.b)) == (len(P.vertices), len(P.b))
            assert Q._face_vertex_sets() == P._face_vertex_sets()

    @pytest.mark.parametrize("eps, seed", [(1e-7, s) for s in (3, 8, 11, 12, 32, 34, 36)]
                             + [(1e-5, 19)])
    def test_jittered_cubes_measure_their_hull(self, eps, seed):
        # near-coplanar vertices on every side: the facet planes that
        # point triples span once built each draw here wrong, its volume
        # 17-64 % below the hull's
        from scipy.spatial import ConvexHull
        pts = _points("coplanar", 3, eps, np.random.default_rng(seed))
        hull, P = ConvexHull(pts), Polytope.from_vertices(pts)
        assert tcm(P, 3).tensor.value() == pytest.approx(hull.volume, rel=1e-6, abs=0)
        assert tcm(P, 2).tensor.value() == pytest.approx(hull.area / 2, rel=1e-6, abs=0)

    @pytest.mark.parametrize("widths", [(1, 0), (1, 1, 0), (1, 0, 0)])
    @pytest.mark.parametrize("turn", [False, True])
    def test_thin_boxes_lose_their_thin_sides(self, widths, turn):
        # a box 1.5 slacks thin across each 0: the hull drops those
        # directions, and the corners that differ only across them are one
        # vertex, whether the thin sides lie along the axes or not
        k = sum(widths)
        thin = 1.5 * polytope.SLACK * math.sqrt(k)      # the box's scale is about sqrt(k)
        pts = np.array(list(itertools.product(*[[0.0, w or thin] for w in widths])), dtype=float)
        if turn:
            pts = pts @ _rotation(np.random.default_rng(1), len(widths)).T
        P = Polytope.from_vertices(pts)
        assert (P.aff_dim, len(P.vertices)) == (k, 2 ** k)
        assert tcm(P, 0).tensor.value() == pytest.approx(1.0, rel=1e-12)
        assert tcm(P, k).tensor.value() == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("turn", [0.0, 0.7])
    def test_off_centre_wedge(self, turn):
        # a triangle 2.4 slacks thick, its points bunched at the end far from
        # its apex, the origin inside: measured from their mean, 1.8 times
        # farther than from the origin, the slack would put every point
        # within it of the line from the apex through the middle of that end
        h = 1.2 * polytope.SLACK
        x = np.linspace(0.9, 0.99, 10)
        side = h * (x + 0.95) / 1.95
        pts = np.vstack([[[-0.95, 0.0], [1.0, h], [1.0, -h], [1.0, 0.0]],
                         np.column_stack([x, side]), np.column_stack([x, -side])])
        c, s = math.cos(turn), math.sin(turn)
        P = Polytope.from_vertices(pts @ np.array([[c, -s], [s, c]]).T)
        assert (P.aff_dim, len(P.vertices), len(P.b)) == (2, 3, 3)
        got = [tcm(P, j).tensor.value() for j in range(3)]
        assert got == pytest.approx([1.0, 1.95 + h, 1.95 * h], rel=1e-9, abs=0)

    def test_unbounded_systems_raise(self):
        quadrant = (-np.eye(2), np.zeros(2))
        prism = (np.vstack([np.eye(3)[:2], -np.eye(3)]), np.array([1.0, 1.0, 0.0, 0.0, 0.0]))
        ray = (np.array([[1.0], [2.0]]), np.array([1.0, 3.0]))
        plane_pair = (np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]), np.ones(2))
        for A, b in (quadrant, prism, ray, plane_pair):
            with pytest.raises(GeometryError, match="unbounded"):
                Polytope.from_halfspaces(A, b)
        # closing each of them bounds it
        closed = Polytope.from_halfspaces(np.vstack([-np.eye(2), [[1.0, 1.0]]]), [0.0, 0.0, 1.0])
        assert len(closed.vertices) == 3
        box = Polytope.from_halfspaces(np.vstack([prism[0], [[0.0, 0.0, 1.0]]]),
                                       np.append(prism[1], 1.0))
        assert len(box.vertices) == 8


# -- the face lattice and its moment recursion ------------------------------

def lattice_bodies():
    """Random bodies in R^2, R^3 and R^4, each with a rotated and
    translated copy, and a box window that cuts each of them by two
    planes through points near the vertex mean."""
    out = []
    for n, npoints in [(2, 12), (3, 14), (4, 8)]:
        rng = np.random.default_rng(40 + n)
        P = random_polytope(n, npoints=npoints, seed=n)
        for body in (P, P.transformed(_rotation(rng, n), rng.standard_normal(n))):
            c, ptp = body.vertices.mean(axis=0), np.ptp(body.vertices, axis=0)
            lo, hi = body.vertices.min(axis=0) - 1.0, body.vertices.max(axis=0) + 1.0
            hi[0], lo[1] = c[0] + 0.1 * ptp[0], c[1] - 0.1 * ptp[1]
            out.append((body, Region.box(lo, hi)))
    return out


def _qhull_moments(points):
    """Volume (Qhull) and first moment (sum over Delaunay simplices of
    volume times centroid) of the hull of `points`."""
    from scipy.spatial import ConvexHull, Delaunay
    simp = points[Delaunay(points).simplices]
    vols = np.abs(np.linalg.det(simp[:, 1:] - simp[:, :1])) / math.factorial(points.shape[1])
    return ConvexHull(points).volume, vols @ simp.mean(axis=1)


def _rank_faces(P, j):
    """(vertex indices, frame, point) of the j-faces by the affine-rank
    filter over the closure of the facet sets, the enumeration the lattice
    replaced."""
    def rank(points):
        # the leading singular directions along which the points' root-mean-
        # square spread exceeds the body's slack
        centred = points - points.mean(axis=0)
        spread = np.std(centred @ np.linalg.svd(centred)[2].T, axis=0)
        return int(np.cumprod(spread > P.slack).sum())

    m = len(P.vertices)
    if j == P.aff_dim:
        sets = [tuple(range(m))]
    elif j == 0:
        sets = [(i,) for i in range(m)]
    else:
        sets = [tuple(sorted(fs)) for fs in sorted(P._face_vertex_sets(), key=sorted)
                if len(fs) > 1 and rank(P.vertices[sorted(fs)]) == j]
    return [(idx, *polytope._affine_frame(P.vertices[list(idx)])[:2]) for idx in sets]


class TestFaceLattice:
    @pytest.mark.parametrize("case", range(6))
    def test_volume_and_first_moment_against_qhull(self, case):
        from scipy.spatial import HalfspaceIntersection
        P, window = lattice_bodies()[case]
        A, b = P.ambient_halfspaces()
        cut = HalfspaceIntersection(np.column_stack([np.vstack([A, window.A]),
                                                     -np.concatenate([b, window.b])]),
                                    P.vertices.mean(axis=0)).intersections
        for region, points in [(None, P.vertices), (window, cut)]:
            vol, first = _qhull_moments(points)
            assert polytope_moment(P, 0, region).value() == pytest.approx(vol, rel=1e-12, abs=0)
            got = polytope_moment(P, 1, region).coordinates_array()
            assert np.max(np.abs(got - first)) <= 1e-12 * np.max(np.abs(first))
        assert P.volume() == pytest.approx(_qhull_moments(P.vertices)[0], rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_recursion_matches_simplex_moment(self, n):
        rng = np.random.default_rng(n)
        for j in range(n + 1):
            verts = rng.standard_normal((j + 1, n)) + rng.standard_normal(n)
            S = Polytope.from_vertices(verts)
            assert S.aff_dim == j
            for r in range(5):
                want = simplex_moment(verts, r).coordinates_array()
                got = polytope_moment(S, r).coordinates_array()
                assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("case", range(6))
    def test_faces_match_the_rank_enumeration(self, case):
        P, window = lattice_bodies()[case]
        for body in (P, P.intersect_region(window), cube(P.dim), cross_polytope(P.dim)):
            for j in range(body.aff_dim + 1):
                want = _rank_faces(body, j)
                got = body.faces(j)
                assert [f.vertex_indices for f in got] == [w[0] for w in want]
                for f, (_, point, frame) in zip(got, want):
                    assert f.j == j
                    assert np.array_equal(f.frame, frame) and np.array_equal(f.point, point)

    def test_lower_dimensional_body_and_point(self):
        seg = Polytope.from_vertices([[0.0, 1.0, 2.0], [2.0, 3.0, 3.0]])
        assert polytope_moment(seg, 2).coordinates_array() == pytest.approx(
            simplex_moment(seg.vertices, 2).coordinates_array(), rel=1e-13)
        point = Polytope.from_vertices([[1.0, -2.0]])
        assert point.volume() == 1.0
        assert polytope_moment(point, 3).coordinate((1, 2)) == pytest.approx(4.0)
