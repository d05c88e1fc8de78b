"""Convex polytopes at desk scale (ambient dimension <= 4, <= ~40 facets).

Vertex and facet enumeration visit every d-subset of the constraints or
points, in lexicographic order and in blocks of at most 1024: each block
is one stack of d x d systems, one batched SVD for the rank or condition
guard, one batched solve (vertices) or null vector (facets), and one
matrix product against all constraints or points for the feasibility or
supporting-side test.  Duplicates are then dropped in that order by one
greedy pass that compares each kept row with all rows at once.  Only
vertex input needs the facet search: a halfspace system (section, clip,
intersection) keeps its rows tight on maximal vertex sets as its facets.
Lower-dimensional polytopes are first class: each records its affine
hull as an origin plus orthonormal frame, keeps its facets in intrinsic
coordinates, and gives every normal cone the hull's orthogonal complement
as its lineality space.

Each body builds its face lattice once, from the incidence: every face,
the body included, with its vertex set, dimension, origin x0 (the vertex
mean) and frame, and for each facet G of a k-face F the distance h_G
from x0 to aff G.  Monomial moments M_r(F) = integral of x^r over F come
down the lattice by Lasserre's divergence-theorem recursion
(k + r) M_r(F) = sum_G h_G M_r(G) + r x0 M_{r-1}(F), M_r(v) = v^r, one
array pass per (k, r), memoised on the body.  A window clips the body
once (cached per window); F meets it in the face of the clip whose
vertices lie on every facet of the body containing F.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .symtensor import SymTensor, multi_degrees, vector_power

__all__ = [
    "GeometryError",
    "EmptyPolytopeError",
    "GrazingIntersectionError",
    "Polytope",
    "Face",
    "Cone",
    "Region",
    "intersect_flat",
    "triangulate",
    "simplex_moment",
    "polytope_moment",
    "cube",
    "simplex",
    "cross_polytope",
    "random_polytope",
    "builtin_polytope",
    "GEOM_TOL",
]

GEOM_TOL = 1e-9
_COND_GUARD = 1e12


class GeometryError(ValueError):
    pass


class EmptyPolytopeError(GeometryError):
    pass


class GrazingIntersectionError(GeometryError):
    """A flat meets the polytope only in a degenerate (lower-dimensional)
    set; callers reject and resample such positions."""


def _dedupe_points(points, tol):
    """Rows of `points` in order, without those within `tol` of an earlier
    kept row in every coordinate; `tol` is a scalar or one bound per
    coordinate."""
    dropped = np.zeros(len(points), dtype=bool)
    keep = []
    for i in range(len(points)):
        if not dropped[i]:
            keep.append(i)
            dropped |= np.all(np.abs(points - points[i]) <= tol, axis=1)
    return points[keep]


def _affine_frame(points, tol):
    """Origin, orthonormal frame of the affine hull, and its dimension."""
    p0 = points.mean(axis=0)
    centered = points - p0
    if len(points) == 1:
        return p0, np.zeros((points.shape[1], 0)), 0
    _, sv, vt = np.linalg.svd(centered, full_matrices=True)
    scale = max(1.0, float(np.max(np.abs(points))))
    d = int(np.sum(sv > tol * scale * 10))
    return p0, vt[:d].T, d


def _orth_complement(frame, n):
    """Orthonormal basis of the orthogonal complement of the column span."""
    d = frame.shape[1]
    if d == n:
        return np.zeros((n, 0))
    proj = np.eye(n) - frame @ frame.T
    u, _, _ = np.linalg.svd(proj)
    return u[:, : n - d]


class Polytope:
    """Bounded convex polytope, possibly lower-dimensional in its ambient
    space.  Immutable after construction; derived data is cached."""

    def __init__(self, vertices, origin, frame, halfspaces_A, halfspaces_b, tol=GEOM_TOL):
        self.vertices = np.asarray(vertices, dtype=float)
        self.origin = np.asarray(origin, dtype=float)
        self.frame = np.asarray(frame, dtype=float)
        self.A = np.asarray(halfspaces_A, dtype=float)      # intrinsic facet normals
        self.b = np.asarray(halfspaces_b, dtype=float)      # intrinsic facet offsets
        self.tol = tol
        self.scale = max(1.0, float(np.max(np.abs(self.vertices))) if len(self.vertices) else 1.0)
        self.intrinsic = (self.vertices - self.origin) @ self.frame
        if self.A.size:
            self.incidence = np.abs(self.intrinsic @ self.A.T - self.b) <= self.slack
        else:
            self.incidence = np.zeros((len(self.vertices), 0), dtype=bool)
        self._lattice = None
        self._moments = {}          # (k, r) -> moments of the k-faces
        self._clips = {}            # window halfspaces -> clip or None
        self._cone_moment_cache = {}

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_vertices(points, tol=GEOM_TOL):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.size == 0:
            raise EmptyPolytopeError("no vertices given")
        n = points.shape[1]
        scale = max(1.0, float(np.max(np.abs(points))))
        points = _dedupe_points(points, 100 * tol * scale)
        p0, U, d = _affine_frame(points, tol)
        X = (points - p0) @ U
        A, b = _facets_brute_force(X, tol)
        if d >= 1 and len(A):
            on = np.sum(np.abs(X @ A.T - b) <= 100 * tol * scale, axis=1)
            keep = on >= d
            points, X = points[keep], X[keep]
        return Polytope(points, p0, U, A, b, tol)

    @staticmethod
    def from_halfspaces(A, b, origin=None, frame=None, tol=GEOM_TOL):
        """{origin + frame y : A y <= b}, frame orthonormal (default: R^d).
        The nonzero rows, normalised, are the facets, less each row whose
        tight vertices are a strict subset of another row's or equal an
        earlier row's; as in from_vertices, vertices on fewer than d facets
        drop.  Vertices spanning less than the frame go to from_vertices."""
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        d = A.shape[1]
        origin = np.zeros(d) if origin is None else np.asarray(origin, dtype=float)
        frame = np.eye(d) if frame is None else np.asarray(frame, dtype=float)
        verts = _vertices_brute_force(A, b, tol)
        if len(verts) == 0:
            raise EmptyPolytopeError("halfspace intersection is empty")
        points = origin + verts @ frame.T
        scale = max(1.0, float(np.max(np.abs(points))))
        points = _dedupe_points(points, 100 * tol * scale)
        p0, U, dim = _affine_frame(points, tol)
        if dim < d:
            return Polytope.from_vertices(points, tol)
        A_amb = A @ frame.T
        norm = np.linalg.norm(A, axis=1)
        rows = norm > tol
        A = A_amb[rows] @ U / norm[rows, None]
        b = (b[rows] + A_amb[rows] @ (origin - p0)) / norm[rows]
        tight = (np.abs(((points - p0) @ U) @ A.T - b) <= 100 * tol * scale).astype(int)
        size = tight.sum(axis=0)
        within = tight.T @ tight == size[:, None]          # [i, j]: row i's set in row j's
        earlier = np.arange(len(b))[:, None] > np.arange(len(b))
        keep = ~np.any(within & ((size[:, None] < size) | earlier), axis=1)
        return Polytope(points[tight[:, keep].sum(axis=1) >= d], p0, U, A[keep], b[keep], tol)

    # -- basic queries ---------------------------------------------------

    @property
    def dim(self):
        return self.vertices.shape[1]

    @property
    def aff_dim(self):
        return self.frame.shape[1]

    @property
    def slack(self):
        """The body's distance tolerance, 100 tol times its coordinate
        scale: a point this close to a facet or to the affine hull counts
        as on it."""
        return 100 * self.tol * self.scale

    @property
    def complement_basis(self):
        return _orth_complement(self.frame, self.dim)

    def ambient_halfspaces(self):
        """(A, b) with P = {x : A x <= b}; only for full-dimensional P."""
        if self.aff_dim != self.dim:
            raise GeometryError("ambient halfspaces require a full-dimensional polytope")
        A = self.A @ self.frame.T
        b = self.b + A @ self.origin
        return A, b

    def contains(self, x):
        """Membership test (vectorized over rows of x)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = (x - self.origin)
        ok = np.ones(len(x), dtype=bool)
        if self.aff_dim < self.dim:
            resid = y - (y @ self.frame) @ self.frame.T
            ok &= np.max(np.abs(resid), axis=1) <= self.slack
        if self.A.size:
            ok &= np.all((y @ self.frame) @ self.A.T <= self.b + self.slack, axis=1)
        return ok

    def circumdata(self):
        c = self.vertices.mean(axis=0)
        r = float(np.max(np.linalg.norm(self.vertices - c, axis=1)))
        return c, r

    def volume(self):
        """Intrinsic aff_dim-volume."""
        return float(self._level_moments(self.aff_dim, 0)[0, 0])

    # -- transforms ------------------------------------------------------

    def transformed(self, rho=None, t=None):
        """Apply x -> rho x + t, reusing the facet combinatorics."""
        n = self.dim
        rho = np.eye(n) if rho is None else np.asarray(rho, dtype=float)
        t = np.zeros(n) if t is None else np.asarray(t, dtype=float)
        return Polytope(self.vertices @ rho.T + t, rho @ self.origin + t,
                        rho @ self.frame, self.A, self.b, self.tol)

    def scaled(self, lam):
        return Polytope(lam * self.vertices, lam * self.origin, self.frame,
                        self.A, lam * self.b, self.tol)

    # -- faces and normal cones ------------------------------------------

    def _face_vertex_sets(self):
        """All proper nonempty faces as vertex-index frozensets: the closure
        of the facet sets under intersection."""
        facet_sets = [frozenset(np.nonzero(self.incidence[:, f])[0]) for f in range(len(self.b))]
        found = set(fs for fs in facet_sets if fs)
        frontier = set(found)
        while frontier:
            new = set()
            for fs in frontier:
                for gs in facet_sets:
                    h = fs & gs
                    if h and h not in found:
                        new.add(h)
            found |= new
            frontier = new
        return found

    def _face_lattice(self):
        """Levels of faces in `faces` order, the map vertex set -> (k, i),
        and per k >= 1 the heights h[F, G] (zero where G is no facet of F)."""
        if self._lattice is None:
            d, m = self.aff_dim, len(self.vertices)
            proper = [self._make_face(tuple(sorted(fs)))
                      for fs in sorted(self._face_vertex_sets(), key=sorted) if len(fs) > 1]
            levels = ([[self._make_face((i,)) for i in range(m)]] if d else []) \
                + [[f for f in proper if f.j == k] for k in range(1, d)] \
                + [[self._make_face(tuple(range(m)))]]
            heights = [None]
            for k in range(1, d + 1):
                upper, lower = levels[k], levels[k - 1]
                f, g = np.array([(a, b) for a, F in enumerate(upper) for b, G in enumerate(lower)
                                 if set(G.vertex_indices) <= set(F.vertex_indices)]).T
                U = np.array([G.frame for G in lower])[g]
                gap = np.array([G.point for G in lower])[g] - np.array([F.point for F in upper])[f]
                gap -= np.einsum("pij,pj->pi", U, np.einsum("pij,pi->pj", U, gap))
                heights.append(np.zeros((len(upper), len(lower))))
                heights[k][f, g] = np.linalg.norm(gap, axis=1)
            index = {frozenset(face.vertex_indices): (k, i)
                     for k, level in enumerate(levels) for i, face in enumerate(level)}
            self._lattice = (levels, index, heights)
        return self._lattice

    def faces(self, j):
        """All j-dimensional faces; faces(aff_dim) is the polytope itself."""
        if j < 0 or j > self.aff_dim:
            return []
        return list(self._face_lattice()[0][j])

    def _make_face(self, idx):
        pts = self.vertices[list(idx)]
        p0, U, d = _affine_frame(pts, self.tol)
        return Face(j=d, vertex_indices=idx, vertices=pts, frame=U, point=p0)

    def _level_moments(self, k, r):
        """Coefficient rows of M_r(F) for the k-faces F, in `faces(k)` order."""
        if (k, r) not in self._moments:
            levels, _, heights = self._face_lattice()
            x0 = np.array([face.point for face in levels[k]])
            if k == 0:
                mom = vector_power(x0, r).data
            else:
                mom = heights[k] @ self._level_moments(k - 1, r)
                if r:
                    lower = SymTensor(self.dim, r - 1, self._level_moments(k, r - 1))
                    mom = mom + r * (vector_power(x0, 1) * lower).data
                mom = mom / (k + r)
            self._moments[k, r] = mom
        return self._moments[k, r]

    def face_moments(self, j, r, region=None):
        """Moments of F cut by `region` for the j-faces F, in `faces(j)`
        order; zero where the cut is empty or of dimension below j."""
        faces = self.faces(j)
        out = np.zeros((len(faces), len(multi_degrees(self.dim, r))))
        clip = self.intersect_region(Region.universe() if region is None else region)
        if clip is None or not faces or j > clip.aff_dim:
            return SymTensor(self.dim, r, out)
        _, index, _ = clip._face_lattice()
        moments = clip._level_moments(j, r)
        # the clip's vertices on each facet of P, and each face's facets of P
        on_facet = np.abs(((clip.vertices - self.origin) @ self.frame) @ self.A.T - self.b) <= self.slack
        for i, face in enumerate(faces):
            facets = np.all(self.incidence[list(face.vertex_indices)], axis=0)
            on_face = frozenset(np.flatnonzero(np.all(on_facet[:, facets], axis=1)).tolist())
            found = index.get(on_face)
            if found is None and on_face:
                raise GeometryError(f"the window meets face {face.vertex_indices} "
                                    "outside the clip's face lattice")
            if found and found[0] == j:
                out[i] = moments[found[1]]
        return SymTensor(self.dim, r, out)

    def normal_cone(self, face):
        """Ambient normal cone at `face`: the unit outer normals of the
        facets containing the face are its rays, and the orthogonal
        complement of the affine hull is its lineality space."""
        tight = np.all(self.incidence[list(face.vertex_indices)], axis=0)
        W = self.complement_basis
        gens = np.array([self.frame @ self.A[f] for f in np.flatnonzero(tight)]
                        + [g for w in W.T for g in (w, -w)]).reshape(-1, self.dim)
        gens = gens / np.linalg.norm(gens, axis=1)[:, None]
        u, sv, _ = np.linalg.svd(gens.T, full_matrices=False)
        return Cone(rays=gens[:np.count_nonzero(tight)], lineality=W,
                    lin_frame=u[:, :int(np.sum(sv > 1e-10))], apex_point=face.point,
                    parent_vertices=self.vertices, tol=self.slack,
                    face_key=face.vertex_indices)

    # -- set operations --------------------------------------------------

    def intersect_region(self, region):
        """P intersected with a Region (cached per window); None when empty."""
        if region.is_universe:
            return self
        key = (region.A.shape, region.A.tobytes(), region.b.tobytes())
        if key not in self._clips:
            self._clips[key] = self._clip(region)
        return self._clips[key]

    def _clip(self, region):
        if self.aff_dim == 0:
            ok = np.all(region.A @ self.vertices[0] <= region.b + self.slack)
            return self if ok else None
        try:
            return Polytope.from_halfspaces(
                np.vstack([self.A, region.A @ self.frame]),
                np.concatenate([self.b, region.b - region.A @ self.origin]),
                self.origin, self.frame, self.tol)
        except EmptyPolytopeError:
            return None

    # -- serialization ---------------------------------------------------

    def to_json(self):
        obj = {"dim": self.dim, "vertices": self.vertices.tolist()}
        if self.aff_dim == self.dim:
            A, b = self.ambient_halfspaces()
            obj["halfspaces"] = [{"normal": a.tolist(), "offset": float(o)} for a, o in zip(A, b)]
        return obj

    @staticmethod
    def from_json(obj, tol=GEOM_TOL):
        return Polytope.from_vertices(np.asarray(obj["vertices"], dtype=float), tol)


@dataclass(frozen=True)
class Face:
    j: int
    vertex_indices: tuple
    vertices: np.ndarray
    frame: np.ndarray           # ambient orthonormal frame of the direction space
    point: np.ndarray           # relative interior point


@dataclass(frozen=True)
class Cone:
    """The cone {sum_i a_i rays_i + W c : a_i >= 0} with apex at the
    origin; membership is decided against the parent polytope's vertices,
    u in N iff <u, v - x0> <= tol for every vertex v."""

    rays: np.ndarray            # (q, n) unit rays, orthogonal to the lineality space
    lineality: np.ndarray       # (n, w) orthonormal basis W of the lineality space
    lin_frame: np.ndarray       # (n, lin_dim) orthonormal basis of the cone's span
    apex_point: np.ndarray
    parent_vertices: np.ndarray
    tol: float
    face_key: tuple = ()        # vertex indices of the face; keys its sampling stream

    @property
    def lin_dim(self):
        return self.lin_frame.shape[1]

    def contains(self, u):
        u = np.atleast_2d(np.asarray(u, dtype=float))
        diffs = self.parent_vertices - self.apex_point
        return np.max(u @ diffs.T, axis=1) <= self.tol


class Region:
    """Observation window beta: either the whole space or a convex
    H-polyhedron {x : A x <= b}."""

    def __init__(self, A=None, b=None):
        if A is None:
            self.A = None
            self.b = None
        else:
            self.A = np.atleast_2d(np.asarray(A, dtype=float))
            self.b = np.atleast_1d(np.asarray(b, dtype=float))

    @property
    def is_universe(self):
        return self.A is None

    @staticmethod
    def universe():
        return Region()

    @staticmethod
    def box(lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        n = len(lo)
        A = np.vstack([np.eye(n), -np.eye(n)])
        b = np.concatenate([hi, -lo])
        return Region(A, b)

    def contains(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.is_universe:
            return np.ones(len(x), dtype=bool)
        return np.all(x @ self.A.T <= self.b + 1e-9, axis=1)

    def transformed(self, rho=None, t=None):
        if self.is_universe:
            return self
        n = self.A.shape[1]
        rho = np.eye(n) if rho is None else np.asarray(rho, dtype=float)
        t = np.zeros(n) if t is None else np.asarray(t, dtype=float)
        A = self.A @ rho.T
        return Region(A, self.b + A @ t)

    def scaled(self, lam):
        if self.is_universe:
            return self
        return Region(self.A, lam * self.b)

    def to_json(self):
        if self.is_universe:
            return {"universe": True}
        return {"halfspaces": [{"normal": a.tolist(), "offset": float(o)}
                               for a, o in zip(self.A, self.b)]}

    @staticmethod
    def from_json(obj):
        if obj.get("universe"):
            return Region.universe()
        hs = obj["halfspaces"]
        return Region([h["normal"] for h in hs], [h["offset"] for h in hs])


# -- d-subset enumeration ---------------------------------------------------

_BLOCK = 1024  # d-subsets per array pass; bounds the size of the stacks


def _subset_blocks(m, d):
    """The d-subsets of range(m) in lexicographic order, as (K, d) index
    arrays of at most _BLOCK rows."""
    combos = itertools.combinations(range(m), d)
    while True:
        flat = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, _BLOCK)),
                           dtype=np.intp)
        if not flat.size:
            return
        yield flat.reshape(-1, d)


def _facets_brute_force(X, tol):
    """Facets of a full-dimensional polytope in R^d given its vertices, by
    supporting-hyperplane search over all d-subsets."""
    m, d = X.shape
    if d == 0:
        return np.zeros((0, 0)), np.zeros(0)
    scale = max(1.0, float(np.max(np.abs(X))))
    if d == 1:
        lo, hi = float(np.min(X[:, 0])), float(np.max(X[:, 0]))
        return np.array([[1.0], [-1.0]]), np.array([hi, -lo])
    bound = 100 * tol * scale
    cand = [np.zeros((0, d + 1))]
    for idx in _subset_blocks(m, d):
        pts = X[idx]
        _, sv, vt = np.linalg.svd(pts[:, 1:] - pts[:, :1], full_matrices=True)
        spans = np.sum(sv > 1e-8 * scale, axis=1) >= d - 1  # points span a hyperplane
        a = vt[spans, -1]
        h = (a[:, None, :] @ pts[spans, 0, :, None])[:, 0, 0]  # the dot kernel of a @ pts[0]
        side = a @ X.T - h[:, None]
        below = np.max(side, axis=1) <= bound
        supporting = below | (np.min(side, axis=1) >= -bound)
        sign = np.where(below, 1.0, -1.0)[supporting, None]
        cand.append(sign * np.column_stack([a, h])[supporting])
    facets = _dedupe_points(np.concatenate(cand), np.append(np.full(d, 1e-7), 1e-7 * scale))
    if not len(facets):
        raise GeometryError("facet enumeration failed (degenerate vertex set)")
    return facets[:, :d], facets[:, d]


def _vertices_brute_force(A, b, tol):
    """Vertices of {x : A x <= b} in R^d by solving all d-subsets."""
    f, d = A.shape
    scale = max(1.0, float(np.max(np.abs(b))) if len(b) else 1.0)
    if d == 1:
        pos = A[:, 0] > tol
        neg = A[:, 0] < -tol
        degenerate = ~pos & ~neg
        if np.any(b[degenerate] < -100 * tol * scale):
            return np.zeros((0, 1))
        hi = np.min(b[pos] / A[pos, 0]) if np.any(pos) else None
        lo = np.max(b[neg] / A[neg, 0]) if np.any(neg) else None
        if hi is None or lo is None:
            raise GeometryError("unbounded 1-d halfspace intersection")
        if lo > hi + 100 * tol * scale:
            return np.zeros((0, 1))
        return _dedupe_points(np.array([[lo], [hi]]), 100 * tol * scale)
    cand = [np.zeros((0, d))]
    for idx in _subset_blocks(f, d):
        M = A[idx]
        sv = np.linalg.svd(M, compute_uv=False)
        ok = (sv[:, -1] > sv[:, 0] / _COND_GUARD) & (sv[:, -1] > 1e-12)
        x = np.linalg.solve(M[ok], b[idx[ok], None])[..., 0]
        slack = 100 * tol * np.maximum(scale, np.max(np.abs(x), axis=1))
        cand.append(x[np.all(x @ A.T <= b + slack[:, None], axis=1)])
    return _dedupe_points(np.concatenate(cand), 1e-7 * max(scale, 1.0))


# -- flat sections ----------------------------------------------------------

def intersect_flat(P, B, q, tol=GEOM_TOL):
    """Intersection of a full-dimensional polytope with the affine k-flat
    {q + B y}, returned as an ambient (lower-dimensional) Polytope.

    Returns None for an empty intersection; raises
    GrazingIntersectionError when the section is nonempty but degenerate
    (dimension below k), which callers treat as a rejected sample.
    """
    B = np.asarray(B, dtype=float)
    q = np.asarray(q, dtype=float)
    k = B.shape[1]
    A_amb, b_amb = P.ambient_halfspaces()
    try:
        poly = Polytope.from_halfspaces(A_amb @ B, b_amb - A_amb @ q, q, B, tol)
    except EmptyPolytopeError:
        return None
    if poly.aff_dim < k:
        raise GrazingIntersectionError(f"flat meets polytope in dimension {poly.aff_dim} < {k}")
    resid = np.abs(poly.vertices @ A_amb.T - b_amb)
    if np.any(np.max(resid, axis=0) <= poly.slack):
        raise GrazingIntersectionError("flat is tangent to a facet")
    return poly


# -- triangulation and exact monomial moments -------------------------------

def _simplex_volume(verts):
    verts = np.asarray(verts, dtype=float)
    j = len(verts) - 1
    if j == 0:
        return 1.0
    G = verts[1:] - verts[0]
    gram = G @ G.T
    det = float(np.linalg.det(gram))
    if det <= 0.0:
        return 0.0
    return math.sqrt(det) / math.factorial(j)


def triangulate(P):
    """Fan triangulation of a convex polytope into aff_dim-simplices, each
    returned as an array of aff_dim + 1 ambient vertices."""
    d = P.aff_dim
    if d == 0:
        return [P.vertices[:1]]
    if d == 1:
        return [P.vertices[:2]] if len(P.vertices) >= 2 else []
    v0_idx = 0
    v0 = P.vertices[v0_idx]
    scale = max(1.0, float(np.max(np.abs(P.vertices))))
    out = []
    for f in range(len(P.b)):
        members = np.nonzero(P.incidence[:, f])[0]
        if v0_idx in members:
            continue
        sub = Polytope.from_vertices(P.vertices[members], P.tol)
        for s in triangulate(sub):
            simplex = np.vstack([[v0], s])
            if _simplex_volume(simplex) > 1e-12 * scale ** d:
                out.append(simplex)
    return out


def simplex_moment(verts, r):
    """Exact monomial moment of a j-simplex: the rank-r tensor with
    polynomial y -> integral over the simplex of <x, y>^r dH^j(x).

    Uses the barycentric formula: the integral of lambda^a over the
    simplex is j! vol (prod a_i!) / (j + |a|)!.
    """
    verts = np.asarray(verts, dtype=float)
    j = len(verts) - 1
    n = verts.shape[1]
    vol = _simplex_volume(verts)
    out = SymTensor.zero(n, r)
    if vol == 0.0:
        return out
    # sum over compositions a of r into j+1 parts of prod v_i^{a_i};
    # the multinomial(r; a) of the expansion cancels the prod a_i! of the
    # barycentric integral, leaving the constant r! j! vol / (j + r)!.
    const = math.factorial(r) * math.factorial(j) * vol / math.factorial(j + r)
    for a in multi_degrees(j + 1, r):
        term = SymTensor.scalar(n, 1.0)
        for vi, ai in zip(verts, a):
            if ai:
                term = term * vector_power(vi, ai)
        out = out + term
    return out.scale(const)


def polytope_moment(P, r, region=None):
    """Integral of x^r over P intersected with `region`, as a rank-r tensor
    (zero when the intersection is lower-dimensional than P)."""
    return SymTensor(P.dim, r, P.face_moments(P.aff_dim, r, region).data[0])


# -- built-ins --------------------------------------------------------------

def cube(n, low=0.0, high=1.0):
    pts = np.array(list(itertools.product([low, high], repeat=n)), dtype=float)
    return Polytope.from_vertices(pts)


def simplex(n):
    pts = np.vstack([np.zeros(n), np.eye(n)])
    return Polytope.from_vertices(pts)


def cross_polytope(n):
    pts = np.vstack([np.eye(n), -np.eye(n)])
    return Polytope.from_vertices(pts)


def random_polytope(n, npoints=10, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    pts = scale * rng.standard_normal((npoints, n))
    return Polytope.from_vertices(pts)


def builtin_polytope(name):
    """Named generators used by the CLI: cube2, cube3, simplex3,
    cross3, random3-<seed>, ..."""
    import re
    m = re.fullmatch(r"(cube|simplex|cross|random)(\d)(?:-(\d+))?", name)
    if not m:
        raise GeometryError(f"unknown built-in polytope {name!r}")
    kind, n, seed = m.group(1), int(m.group(2)), m.group(3)
    if kind == "cube":
        return cube(n)
    if kind == "simplex":
        return simplex(n)
    if kind == "cross":
        return cross_polytope(n)
    return random_polytope(n, seed=int(seed or 0))
