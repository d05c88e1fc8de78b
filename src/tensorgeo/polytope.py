"""Convex polytopes at desk scale (ambient dimension <= 4, <= ~40 facets).

One search finds vertices from every d-subset of a system's rows, in
lexicographic order, in blocks of at most 1024, each behind a closed-form
screen (Cramer's rule from cofactors) that drops no subset the exact path
(batched SVD and solve) keeps, so the result is that of the exact path
alone, bit for bit; only a handful of subsets reach it (24 of 9880 for 40
points in R^3).  The facets of a point set are the vertices of its polar;
a halfspace system (section, clip, intersection) keeps its rows tight on
maximal vertex sets as its facets.  A lower-dimensional polytope records
its affine hull as an origin plus orthonormal frame, keeps its facets in
intrinsic coordinates, and gives every normal cone the hull's orthogonal
complement as its lineality space.

Each body builds its face lattice once, level by level: every face, the
body included, with its vertex set, dimension, origin x0 (the vertex
mean), frame (one batched SVD per vertex count), facets (one product of
the vertex sets with the incidence), and for each facet G of a k-face F
the distance h_G from x0 to aff G.  Monomial moments M_r(F) = integral of
x^r over F come down the lattice by Lasserre's divergence-theorem
recursion (k + r) M_r(F) = sum_G h_G M_r(G) + r x0 M_{r-1}(F),
M_r(v) = v^r, one array pass per (k, r), memoised on the body.  A window
clips the body once (cached per window); F meets it in the face of the
clip whose vertices lie on every facet of the body containing F.

Tolerances.  Three constants make every geometric decision.
- SLACK (10^-7) is a length per unit of scale: a body's slack is SLACK
  times its scale, the largest distance of a point from the origin, with
  no floor, so scaled and rotated copies take the same branches.  Its
  faces' ranks use this slack too.  The vertex search measures from the
  system's origin: a solution x may lie SLACK |x| outside a unit row, so a
  facet plane of points centred at their mean may have a point x up to
  SLACK |x| above it.  A point within the slack of a plane lies on it
  (incidence, tight sets, support, clips, grazing).  Points span the
  singular directions along
  which their root-mean-square spread exceeds the slack; then they extend
  more than twice the slack along every direction of their hull, and no
  plane has them all within the slack on both sides.  Points within the
  slack in the hull's coordinates are one, and so are two solutions x of
  the vertex search whose residuals differ by at most SLACK |x| on every
  unit row tight at either: two facet planes whose distances from each
  point x differ by about SLACK |x| at most.  Coordinates carry about
  10^-15 relative error.
- DIRECTION_TOL (10^-10, in `symtensor`, the lowest module using it)
  decides every test on unit vectors: rows shorter than it are zero, and
  unit vectors within it of parallel, orthogonal or dependent (singular
  values) are so.  Unit vectors carry about 10^-15 error.  An arc's mean
  ray, from a sum of length delta, errs by eps / delta: arcs closer to a
  half turn than eps / SLACK are sampled (`conemoment`).
- _COND_GUARD (10^12) bounds the ratio of extreme singular values of d rows
  that meet in a vertex.  The screen trusts cofactors at its square root;
  its margins derive from these three.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .symtensor import DIRECTION_TOL, SymTensor, multi_degrees, vector_power

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
    "SLACK",
    "DIRECTION_TOL",
]

SLACK = 1e-7            # length tolerance per unit of a body's scale
_COND_GUARD = 1e12      # ratio of extreme singular values beyond which rows meet in no vertex


class GeometryError(ValueError):
    pass


class EmptyPolytopeError(GeometryError):
    pass


class GrazingIntersectionError(GeometryError):
    """A flat meets the polytope only in a degenerate (lower-dimensional)
    set; callers count such positions as rejected samples."""


def _first_of_each(values, tol, tight=None):
    """Which rows of `values` to keep, in order: a row goes when within `tol`
    (the kept row's, if a column) of an earlier kept one in every column
    (where either is `tight`).  Rows not yet dropped are compared with all
    rows as many at a time as fit in about 2^14 entries."""
    dropped = np.zeros(len(values), dtype=bool)
    keep = []
    step = max(1, 2 ** 14 // max(1, values.size))
    tol = np.broadcast_to(tol, (len(values), 1))
    live = np.arange(min(step, len(values)))
    while len(live):
        far = np.abs(values[live, None] - values) > tol[live, None]
        if tight is not None:
            far &= tight[live, None] | tight
        for i, near in zip(live, ~np.any(far, axis=2)):
            if not dropped[i]:
                keep.append(int(i))
                dropped |= near
        dropped[live] = True
        live = np.flatnonzero(~dropped)[:step]
    return keep


def _scale(x):
    """The scale a slack grows with: the largest length of a row of x,
    over its last two axes (one scale per stack); 0 for no rows."""
    return np.linalg.norm(x, axis=-1).max(axis=-1, initial=0.0)


def _affine_frames(points, scale):
    """`_affine_frame` of G stacks of c points (G, c, n) at `scale` in one
    batched SVD; the first dims[g] columns of frames[g] (G, n, n), leading
    singular directions the points span (`_spans`), span the g-th hull."""
    p0 = points.mean(axis=1)
    _, sv, vt = np.linalg.svd(points - p0[:, None], full_matrices=True)
    spans = _spans(sv / math.sqrt(points.shape[1]), scale)
    return p0, np.swapaxes(vt, 1, 2), np.cumprod(spans, axis=1).sum(axis=1)


def _spans(spread, scale):
    """Whether points whose root-mean-square spread about their mean along
    a direction is `spread` span it: it exceeds the slack."""
    return spread > SLACK * scale


def _affine_frame(points):
    """Origin, orthonormal frame of the affine hull, and its dimension."""
    p0, frames, dims = _affine_frames(points[None], _scale(points))
    return p0[0], frames[0, :, :dims[0]], int(dims[0])


def _on_facets(points, p0, U, A, b, slack):
    """The body on `points` with its irredundant facets A y <= b, and the points on d of them."""
    tight = np.abs(((points - p0) @ U) @ A.T - b) <= slack
    keep = _irredundant(tight)
    return Polytope(points[tight[:, keep].sum(axis=1) >= U.shape[1]], p0, U, A[keep], b[keep])


class Polytope:
    """Bounded convex polytope, possibly lower-dimensional in its ambient
    space.  Immutable after construction; derived data is cached."""

    def __init__(self, vertices, origin, frame, halfspaces_A, halfspaces_b):
        self.vertices = np.asarray(vertices, dtype=float)
        self.origin = np.asarray(origin, dtype=float)
        self.frame = np.asarray(frame, dtype=float)
        self.A = np.asarray(halfspaces_A, dtype=float)      # intrinsic facet normals
        self.b = np.asarray(halfspaces_b, dtype=float)      # intrinsic facet offsets
        self.scale = _scale(self.vertices)
        self.intrinsic = (self.vertices - self.origin) @ self.frame
        self.incidence = np.abs(self.intrinsic @ self.A.T - self.b) <= self.slack
        self._lattice = None
        self._moments = {}          # (k, r) -> moments of the k-faces
        self._clips = {}            # window halfspaces -> clip or None
        self._cone_moment_cache = {}

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_vertices(points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.size == 0:
            raise EmptyPolytopeError("no vertices given")
        scale = _scale(points)
        slack = SLACK * scale
        p0, U, d = _affine_frame(points)
        # one point per spot of the hull, which drops the directions the
        # points do not span
        points = points[_first_of_each((points - p0) @ U, slack)]
        X = (points - p0) @ U
        A, b = _polar_facets(X, scale)
        if d >= 2:
            A, b = _refit_facets(X, A, b, np.abs(X @ A.T - b) <= slack, scale)
        return _on_facets(points, p0, U, A, b, slack)

    @staticmethod
    def from_halfspaces(A, b, origin=None, frame=None):
        """{origin + frame y : A y <= b}, frame orthonormal (default: R^d).
        The nonzero rows, normalised, are the facets, pruned as in
        from_vertices (`_on_facets`); vertices spanning less than the frame
        go to from_vertices.  Rows leaving a direction free raise."""
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        d = A.shape[1]
        origin = np.zeros(d) if origin is None else np.asarray(origin, dtype=float)
        frame = np.eye(d) if frame is None else np.asarray(frame, dtype=float)
        norm = np.linalg.norm(A, axis=1)
        rows = norm > DIRECTION_TOL
        if _free_direction(A[rows] / norm[rows, None]):
            raise GeometryError("unbounded halfspace intersection")
        verts = _vertices_brute_force(A, b)
        if len(verts) == 0:
            raise EmptyPolytopeError("halfspace intersection is empty")
        points = origin + verts @ frame.T
        slack = SLACK * _scale(points)
        p0, U, dim = _affine_frame(points)
        if dim < d:
            return Polytope.from_vertices(points)
        points = points[_first_of_each((points - p0) @ U, slack)]
        A_amb = A @ frame.T
        A = A_amb[rows] @ U / norm[rows, None]
        b = (b[rows] + A_amb[rows] @ (origin - p0)) / norm[rows]
        return _on_facets(points, p0, U, A, b, slack)

    # -- basic queries ---------------------------------------------------

    @property
    def dim(self):
        return self.vertices.shape[1]

    @property
    def aff_dim(self):
        return self.frame.shape[1]

    @property
    def slack(self):
        """The body's distance tolerance, SLACK times its scale: a point
        this close to a facet or to the affine hull counts as on it."""
        return SLACK * self.scale

    @functools.cached_property
    def complement_basis(self):
        """Orthonormal basis of the orthogonal complement of the affine hull."""
        return np.linalg.svd(np.eye(self.dim) - self.frame @ self.frame.T)[0][:, :self.dim - self.aff_dim]

    def ambient_halfspaces(self):
        """(A, b) with P = {x : A x <= b}; only for full-dimensional P."""
        if self.aff_dim != self.dim:
            raise GeometryError("ambient halfspaces require a full-dimensional polytope")
        A = self.A @ self.frame.T
        b = self.b + A @ self.origin
        return A, b

    def contains(self, x):
        """Membership of each row of x: within the slack of the affine hull
        and of every facet."""
        y = np.atleast_2d(np.asarray(x, dtype=float)) - self.origin
        z = y @ self.frame
        return ((np.max(np.abs(y - z @ self.frame.T), axis=1) <= self.slack)
                & np.all(z @ self.A.T <= self.b + self.slack, axis=1))

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
                        rho @ self.frame, self.A, self.b)

    def scaled(self, lam):
        return Polytope(lam * self.vertices, lam * self.origin, self.frame,
                        self.A, lam * self.b)

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
        """The faces level by level, as `_Level`s: every face's frame comes
        from one batched SVD per vertex count, every level's facets from
        one product of its vertex sets with the incidence."""
        if self._lattice is None:
            d, m = self.aff_dim, len(self.vertices)
            proper = [tuple(sorted(fs)) for fs in sorted(self._face_vertex_sets(), key=sorted)]
            sets = ([(i,) for i in range(m)] if d else []) + [f for f in proper if len(f) > 1] \
                + [tuple(range(m))]
            sizes = np.array([len(idx) for idx in sets])
            member = np.zeros((len(sets), m), dtype=bool)
            member[np.repeat(np.arange(len(sets)), sizes), np.concatenate(sets)] = True
            points, frames = np.zeros((len(sets), self.dim)), np.zeros((len(sets), self.dim, self.dim))
            dims = np.zeros(len(sets), dtype=int)
            for c in np.unique(sizes):
                at = np.flatnonzero(sizes == c)
                stacks = self.vertices[np.nonzero(member[at])[1]].reshape(len(at), c, -1)
                points[at], frames[at], dims[at] = _affine_frames(stacks, self.scale)
            # vertices, the proper faces by dimension, and the body
            level_of = np.where((dims >= 1) & (dims < d), dims, -1)
            level_of[:m if d else 0], level_of[-1] = 0, d
            self._lattice = []
            for k in range(d + 1):
                at, heights = np.flatnonzero(level_of == k), None
                if k:       # h[F, G] for the facets G of each F, zero elsewhere
                    lower = self._lattice[k - 1]
                    f, g = np.nonzero((~member[at] @ lower.member.T.astype(float)) == 0)
                    U = lower.frames[g]
                    gap = lower.points[g] - points[at][f]
                    gap -= np.einsum("pij,pj->pi", U, np.einsum("pij,pi->pj", U, gap))
                    heights = np.zeros((len(at), len(lower.faces)))
                    heights[f, g] = np.linalg.norm(gap, axis=1)
                faces = [Face(int(dims[i]), sets[i], self.vertices[list(sets[i])],
                              frames[i, :, :dims[i]], points[i]) for i in at]
                self._lattice.append(_Level(faces, points[at], frames[at, :, :k], member[at],
                                            (member[at] @ (~self.incidence).astype(float)) == 0, heights))
        return self._lattice

    def faces(self, j):
        """All j-dimensional faces; faces(aff_dim) is the polytope itself."""
        if j < 0 or j > self.aff_dim:
            return []
        return list(self._face_lattice()[j].faces)

    def _level_moments(self, k, r):
        """Coefficient rows of M_r(F) for the k-faces F, in `faces(k)` order."""
        if (k, r) not in self._moments:
            level = self._face_lattice()[k]
            if k == 0:
                mom = vector_power(level.points, r).data
            else:
                mom = level.heights @ self._level_moments(k - 1, r)
                if r:
                    lower = SymTensor(self.dim, r - 1, self._level_moments(k, r - 1))
                    mom = mom + r * (vector_power(level.points, 1) * lower).data
                mom = mom / (k + r)
            self._moments[k, r] = mom
        return self._moments[k, r]

    def face_moments(self, j, r, region=None):
        """Moments of F cut by `region` (None: F itself) for the j-faces F,
        in `faces(j)` order; zero where the cut is empty or of dimension below j."""
        faces = self.faces(j)
        out = np.zeros((len(faces), len(multi_degrees(self.dim, r))))
        clip = self.intersect_region(region)
        if clip is None or not faces or j > clip.aff_dim:
            return SymTensor(self.dim, r, out)
        levels = clip._face_lattice()
        # the clip's vertices on each facet of P, on every facet of P at each
        # j-face, and the clip face with just those vertices
        on_facet = np.abs(((clip.vertices - self.origin) @ self.frame) @ self.A.T - self.b) <= self.slack
        on_face = (self._face_lattice()[j].tight @ (~on_facet.T).astype(float)) == 0
        member = np.concatenate([level.member for level in levels]).astype(float)
        shared = on_face @ member.T
        same = (shared == on_face.sum(axis=1)[:, None]) & (shared == member.sum(axis=1))
        lost = np.flatnonzero(on_face.any(axis=1) & ~same.any(axis=1))
        if len(lost):
            raise GeometryError(f"the window meets face {faces[lost[0]].vertex_indices} "
                                "outside the clip's face lattice")
        start = sum(len(level.faces) for level in levels[:j])
        face, found = np.nonzero(same[:, start:start + len(levels[j].faces)])
        out[face] = clip._level_moments(j, r)[found]
        return SymTensor(self.dim, r, out)

    def _normal_rays(self, k):
        """The rays of the k-faces' normal cones as `normal_cone` lists them,
        in one array (F, q, n) padded with zero rows."""
        tight = self._face_lattice()[k].tight
        normals = self.A @ self.frame.T
        order = np.argsort(~tight, axis=1, kind="stable")[:, :tight.sum(axis=1).max(initial=0)]
        return (np.take_along_axis(tight, order, axis=1)[..., None] * normals[order]
                / np.linalg.norm(normals, axis=1)[order, None])

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
                    lin_frame=u[:, :int(np.sum(sv > DIRECTION_TOL))], apex_point=face.point,
                    parent_vertices=self.vertices, slack=self.slack,
                    face_key=face.vertex_indices)

    # -- set operations --------------------------------------------------

    def intersect_region(self, region):
        """P intersected with a Region (cached per window), P itself for
        None (the whole space); None when empty."""
        if region is None:
            return self
        region.check_width(self.dim)
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
                self.origin, self.frame)
        except EmptyPolytopeError:
            return None

    # -- serialization ---------------------------------------------------

    def to_json(self):
        obj = {"dim": self.dim, "vertices": self.vertices.tolist()}
        if self.aff_dim == self.dim:
            obj.update(Region(*self.ambient_halfspaces()).to_json())
        return obj

    @staticmethod
    def from_json(obj):
        return Polytope.from_vertices(np.asarray(_json_field(obj, "vertices", "polytope"), dtype=float))


@dataclass(frozen=True)
class Face:
    j: int
    vertex_indices: tuple
    vertices: np.ndarray
    frame: np.ndarray           # ambient orthonormal frame of the direction space
    point: np.ndarray           # relative interior point


# The k-faces of a body in `faces` order, with stacked arrays: their vertex
# means (F, n), orthonormal frames (F, n, k), member[F, v] (vertex v lies on
# F), tight[F, f] (facet f contains F), and for k >= 1 the distances
# heights[F, G] from x0 to the (k-1)-faces G of F, zero elsewhere.
_Level = collections.namedtuple("_Level", "faces points frames member tight heights")


@dataclass(frozen=True)
class Cone:
    """The cone {sum_i a_i rays_i + W c : a_i >= 0} with apex at the
    origin; membership is decided against the parent polytope's vertices,
    u in N iff <u, v - x0> <= slack for every vertex v."""

    rays: np.ndarray            # (q, n) unit rays, orthogonal to the lineality space
    lineality: np.ndarray       # (n, w) orthonormal basis W of the lineality space
    lin_frame: np.ndarray       # (n, lin_dim) orthonormal basis of the cone's span
    apex_point: np.ndarray
    parent_vertices: np.ndarray
    slack: float
    face_key: tuple = ()        # vertex indices of the face; keys its sampling stream

    @property
    def lin_dim(self):
        return self.lin_frame.shape[1]

    @property
    def axis(self):
        """x0 minus the mean g of the parent's vertices: every u in N has
        <u, x0 - g> >= 0, and each ray r_i, the normal of a facet a_i x <= b_i
        at the face, has <r_i, x0 - g> = b_i - a_i g > 0, g lying inside."""
        return self.apex_point - self.parent_vertices.mean(axis=0)

    def contains(self, u):
        u = np.atleast_2d(np.asarray(u, dtype=float))
        # (vertices, directions): the reduction runs over the short axis
        diffs = self.parent_vertices - self.apex_point
        return np.max(diffs @ u.T, axis=0) <= self.slack


class Region:
    """Observation window beta: the convex H-polyhedron {x : A x <= b}.  The
    whole space is no Region: every function taking a window reads None so,
    and a Region of no halfspaces raises."""

    def __init__(self, A, b):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.b = np.atleast_1d(np.asarray(b, dtype=float))
        if not self.A.size:
            raise GeometryError("a Region needs a halfspace: the whole space is None")

    def check_width(self, n):
        """Raise GeometryError, naming both dimensions, unless the window lies in R^n."""
        if self.A.shape[1] != n:
            raise GeometryError(f"a window in R^{self.A.shape[1]} does not fit a body in R^{n}")

    @staticmethod
    def box(lo, hi):
        eye = np.eye(len(lo))
        return Region(np.vstack([eye, -eye]), np.concatenate([hi, -np.asarray(lo, dtype=float)]))

    def contains(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.all(x @ self.A.T <= self.b + SLACK * np.linalg.norm(x, axis=1)[:, None], axis=1)

    def transformed(self, rho=None, t=None):
        n = self.A.shape[1]
        rho = np.eye(n) if rho is None else np.asarray(rho, dtype=float)
        t = np.zeros(n) if t is None else np.asarray(t, dtype=float)
        A = self.A @ rho.T
        return Region(A, self.b + A @ t)

    def intersect(self, other):
        """The window self cap other: both sets of rows, self's first."""
        return Region(np.vstack([self.A, other.A]), np.concatenate([self.b, other.b]))

    def to_json(self):
        return {"halfspaces": [{"normal": a.tolist(), "offset": float(o)}
                               for a, o in zip(self.A, self.b)]}

    @staticmethod
    def from_json(obj):
        """The window of a JSON object; None, the whole space, for
        {"universe": true} or an empty halfspace list."""
        if isinstance(obj, dict) and obj.get("universe"):
            return None
        hs = _json_field(obj, "halfspaces", "region")
        if not isinstance(hs, list):
            raise GeometryError(f"a region's 'halfspaces' must be a JSON list, got {hs!r:.80}")
        return Region([_json_field(h, "normal", "halfspace") for h in hs],
                      [_json_field(h, "offset", "halfspace") for h in hs]) if hs else None


def _json_field(obj, key, what):
    """obj[key] of the JSON object describing a `what`, or GeometryError."""
    if not isinstance(obj, dict) or key not in obj:
        raise GeometryError(f"a {what} must be a JSON object with the key {key!r}, got {obj!r:.80}")
    return obj[key]


# -- d-subset enumeration ---------------------------------------------------

_BLOCK = 1024  # d-subsets per array pass; bounds the size of the stacks
_EPS = float(np.finfo(float).eps)
# The closed-form screen in front of the search trusts a subset's Cramer
# point only where its determinant exceeds _DECIDE times the product of its
# rows' norms; `_vertices_brute_force` derives its tests from the exact
# path's guards.  Blocks of fewer than _SCREEN_MIN subsets skip the screen:
# its fixed cost, some 30 array operations, is then about what it saves on
# random bodies, and more on cubes and cross-polytopes, where most subsets
# survive or are singular.
_DECIDE = 1 / math.sqrt(_COND_GUARD)
_SCREEN_MIN = 100
_VERTEX_MARGIN = SLACK + 1e4 * _EPS / _DECIDE    # per unit of |x|


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


@functools.lru_cache(maxsize=None)
def _laplace_plan(r):
    """Index arrays for the minors of an r x (r + 1) stack, top row down:
    level s holds the s x s minors of the first s rows over the s-subsets S
    of the columns (lexicographic), each expanded along its last row as the
    sum over t of (-1)^(s-1+t) D[s - 1, S_t] times the level s - 1 minor
    over S less S_t.  Returns the levels' (columns, lower minors, signs) and
    where in the last level the minor without column j sits."""
    n = r + 1
    prev = {(c,): c for c in range(n)}
    levels = []
    for s in range(2, r + 1):
        subsets = list(itertools.combinations(range(n), s))
        lower = [[prev[S[:t] + S[t + 1:]] for t in range(s)] for S in subsets]
        levels.append((np.array(subsets), np.array(lower), (-1.0) ** (s - 1 + np.arange(s))))
        prev = {S: i for i, S in enumerate(subsets)}
    last = [prev[tuple(c for c in range(n) if c != j)] for j in range(n)]
    return levels, np.array(last)


def _cofactors(R, idx):
    """The cofactor vectors c (K, r + 1) of the stacks R[idx] (K, r, r + 1)
    of r-subsets of R's rows in lexicographic order, c_j = (-1)^j det(R[idx]
    without column j): R[idx] c = 0 and |c| is the r-volume of the rows.
    The minors of each run of equal first r - 1 rows are expanded once."""
    r = idx.shape[1]
    levels, last = _laplace_plan(r)
    head = np.diff(idx[:, :-1] @ len(R) ** np.arange(r - 1), prepend=-1) != 0
    first = idx[head]
    rows = [R.T[:, first[:, s]] for s in range(r - 1)] + [R.T[:, idx[:, -1]]]
    minors = rows[0]
    for s, (cols, lower, signs) in enumerate(levels, 2):
        if s == r:
            minors = minors[:, np.cumsum(head) - 1]
        minors = signs @ (rows[s - 1][cols] * minors[lower])
    return (minors[last] * ((-1.0) ** np.arange(r + 1))[:, None]).T


def _may_be_vertex(Ab, idx, rows):
    """Which d-subsets `idx` (K, d) of the rows [M | c] of Ab may solve
    M x = c to a vertex of {y : rows (y, -1) <= 0}, unit rows: those with a
    trusted determinant and a Cramer point x within _VERTEX_MARGIN |x| of
    every row, and the rest unless their cofactors prove M singular."""
    d = idx.shape[1]
    c = _cofactors(Ab, idx)
    trusted = c[:, d] ** 2 > _DECIDE ** 2 * np.einsum("ij,ij->i", Ab[:, :d], Ab[:, :d])[idx].prod(axis=1)
    keep = np.empty(len(idx), dtype=bool)
    x = c[trusted] / -c[trusted, d:]            # (x, -1)
    keep[trusted] = np.max(rows @ x.T, axis=0) <= _VERTEX_MARGIN * np.linalg.norm(x[:, :d], axis=1)
    c, norm2 = c[~trusted], np.einsum("ij,ij->i", Ab, Ab)[idx[~trusted]]
    size = np.sqrt(norm2.sum(axis=1))
    keep[~trusted] = (size * (np.abs(c[:, d]) + 1e3 * _EPS * np.sqrt(norm2.prod(axis=1)))
                      > (DIRECTION_TOL / 2 - 40 * _EPS * size) * np.linalg.norm(c[:, :d], axis=1))
    return keep


def _subset_planes(pts, scale):
    """The hyperplanes a y = h, a a unit normal, through the stacks of d
    points `pts` (K, d, d) that span one, and which stacks do: those that
    span the leading d - 1 singular directions of their differences."""
    d = pts.shape[2]
    _, _, vt = np.linalg.svd(pts[:, 1:] - pts[:, :1], full_matrices=True)
    spans = np.all(_spans(np.std(pts @ np.swapaxes(vt[:, :d - 1], 1, 2), axis=1), scale), axis=1)
    a = vt[spans, -1]
    h = (a[:, None, :] @ pts[spans, 0, :, None])[:, 0, 0]  # the dot kernel of a @ pts[0]
    return spans, a, h


def _polar_facets(X, scale):
    """The facets A y <= b, unit rows, of the hull of the points X, full-
    dimensional in R^d and centred at an interior point: each vertex a of
    the polar {a : (X / scale) a <= 1} is the facet y a / |a| <= scale / |a|.
    They come sorted by their tight points, as a lexicographic subset search
    meets a simplicial body's facets, and a facet with exactly d tight
    points takes the plane `_subset_planes` fits through them."""
    m, d = X.shape
    if d == 0:
        return np.zeros((0, 0)), np.zeros(0)
    a = _vertices_brute_force(X / scale, np.ones(m))
    norm = np.linalg.norm(a, axis=1)
    A, b = a / norm[:, None], scale / norm
    tight = np.abs(X @ A.T - b) <= SLACK * scale
    order = np.lexsort(~tight[::-1])
    A, b, tight = A[order], b[order], tight[:, order]
    simple = np.flatnonzero(tight.sum(axis=0) == d)
    spans, a, h = _subset_planes(X[np.nonzero(tight[:, simple].T)[1].reshape(len(simple), d)], scale)
    flip = np.where(np.einsum("ki,ki->k", a, A[simple[spans]]) < 0, -1.0, 1.0)
    A[simple[spans]], b[simple[spans]] = a * flip[:, None], h * flip
    if not len(b):
        raise GeometryError("facet enumeration failed (degenerate vertex set)")
    return A, b


def _refit_facets(X, A, b, tight, scale):
    """The facet planes A y <= b refitted where a tight vertex X[tight] lies
    more than strict = DIRECTION_TOL scale off one: the plane through d of
    its tight vertices that most of them lie within strict of takes its
    place, unless it has a vertex more than twice the slack above it.  Near
    a ridge at a small angle the polar search may keep a plane up to the
    slack off either facet; twice allows for vertices admitted up to the
    slack outside."""
    A, b = A.copy(), b.copy()
    d = X.shape[1]
    bound, strict = SLACK * scale, DIRECTION_TOL * scale
    for i in np.flatnonzero(np.max(np.abs(X @ A.T - b) * tight, axis=0) > strict):
        on = np.flatnonzero(tight[:, i])
        best = np.sum(np.abs(X[on] @ A[i] - b[i]) <= strict)
        for idx in _subset_blocks(len(on), d):
            _, a, h = _subset_planes(X[on[idx]], scale)
            flip = np.where(a @ A[i] < 0, -1.0, 1.0)
            a, h = a * flip[:, None], h * flip
            side = a @ X.T - h[:, None]
            count = np.where(np.max(side, axis=1) <= 2 * bound,
                             np.sum(np.abs(side[:, on]) <= strict, axis=1), 0)
            if len(count) and np.max(count) > best:
                k = np.argmax(count)
                best, A[i], b[i] = count[k], a[k], h[k]
    return A, b


def _irredundant(tight):
    """Which facet candidates to keep, given `tight[v, i]`: vertex v lies on
    candidate i.  A candidate goes if its tight vertices are a strict subset
    of another's or equal an earlier one's; near-coplanar vertices otherwise
    leave planes through a ridge, or twins of one facet, as extra facets."""
    tight = tight.astype(int)
    size = tight.sum(axis=0)
    within = tight.T @ tight == size[:, None]          # [i, j]: i's set in j's
    earlier = np.arange(len(size))[:, None] > np.arange(len(size))
    return ~np.any(within & ((size[:, None] < size) | earlier), axis=1)


def _vertices_brute_force(A, b):
    """Vertices of {x : A x <= b} in R^d by solving all d-subsets.

    `_may_be_vertex` screens each block first, from the cofactors c of
    D = [M | b] for a subset's rows M; the rest take the exact path in the
    same order.  A subset with |det M| > _DECIDE prod |M_i| goes when its
    Cramer point x violates a unit row by more than _VERTEX_MARGIN |x|: its
    unit rows N have cond(N) < d^(d/2) / _DECIDE <= 16 / _DECIDE (d <= 4),
    so the exact path's pivoted solve errs by at most 3 d 2^(d-1) cond(N)
    eps |x| < 1.6e3 eps / _DECIDE |x| and Cramer's rule by 7e2 eps / _DECIDE
    |x|, both within 1e4 eps / _DECIDE.  Any other subset goes when c proves
    M singular: c errs by less than 1e3 eps prod |D_i|, so sigma_min(M) <=
    |M c[:d]| / |c[:d]| <= |D| (|c_d| + 1e3 eps prod |D_i|) / |c[:d]|, and
    where that plus the SVD's own error, 40 eps |D|, is within
    DIRECTION_TOL / 2 the exact path's floor rejects M.  Solutions within
    SLACK |x| of every unit row are kept, one per vertex by residual
    identity (module docstring)."""
    f, d = A.shape
    norm = np.maximum(np.linalg.norm(A, axis=1), DIRECTION_TOL)
    unit, offset = A / norm[:, None], b / norm
    Ab, rows = np.column_stack([A, b]), np.column_stack([unit, offset])
    cand = [np.zeros((0, d))]
    for idx in _subset_blocks(f, d):
        if len(idx) >= _SCREEN_MIN:
            idx = idx[_may_be_vertex(Ab, idx, rows)]
        M = A[idx]
        sv = np.linalg.svd(M, compute_uv=False)
        ok = (sv[:, -1] > sv[:, 0] / _COND_GUARD) & (sv[:, -1] > DIRECTION_TOL)
        x = np.linalg.solve(M[ok], b[idx[ok], None])[..., 0]
        slack = SLACK * np.linalg.norm(x, axis=1)
        cand.append(x[np.all(x @ unit.T <= offset + slack[:, None], axis=1)])
    x = np.concatenate(cand)
    resid = offset - x @ unit.T
    slack = SLACK * np.linalg.norm(x, axis=1)[:, None]
    return x[_first_of_each(resid, slack, np.abs(resid) <= slack)]


def _free_direction(unit):
    """Whether the unit rows leave a direction u free, unit u <= DIRECTION_TOL:
    their rank is below d, or the normal u of d - 1 of them, an extreme ray
    of {u : unit u <= 0} when it is pointed, has every row on one side."""
    f, d = unit.shape
    rays = [np.ones((1, 1))] if d == 1 else [np.zeros((0, d))]
    for idx in _subset_blocks(f, d - 1) if d > 1 else ():
        c = _cofactors(unit, idx)
        size = np.linalg.norm(c, axis=1)
        rays.append(c[size > DIRECTION_TOL] / size[size > DIRECTION_TOL, None])
    side = np.concatenate(rays) @ unit.T
    return not len(side) or np.any((side <= DIRECTION_TOL).all(1) | (side >= -DIRECTION_TOL).all(1))


# -- flat sections ----------------------------------------------------------

def intersect_flat(P, B, q):
    """Intersection of a full-dimensional polytope with the affine k-flat
    {q + B y}, returned as an ambient (lower-dimensional) Polytope, or None
    when empty; a grazing flat raises (`_flat_section`).  The per-sample
    Crofton evaluator (`verify.crofton_lhs`) builds every section here."""
    B = np.asarray(B, dtype=float)
    q = np.asarray(q, dtype=float)
    A_amb, b_amb = P.ambient_halfspaces()
    return _flat_section(A_amb @ B, b_amb - A_amb @ q, q, B)


def _flat_section(g, h, q, B):
    """The section {q + B y : g y <= h} of a body with rows g = A B, as an
    ambient Polytope, or None when empty.  A section of dimension below B's,
    or with every vertex within its slack of one constraint plane, grazes:
    GrazingIntersectionError, which callers count as a rejected sample."""
    try:
        sec = Polytope.from_halfspaces(g, h, q, B)
    except EmptyPolytopeError:
        return None
    resid = np.abs((sec.vertices - q) @ B @ g.T - h)
    if sec.aff_dim < B.shape[1] or np.any(np.max(resid, axis=0) <= sec.slack):
        raise GrazingIntersectionError("flat grazes the polytope (low dimension or along a facet)")
    return sec


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
    v0_idx = 0
    v0 = P.vertices[v0_idx]
    out = []
    for f in range(len(P.b)):
        members = np.nonzero(P.incidence[:, f])[0]
        if v0_idx in members:
            continue
        # v0 lies more than the slack off facet f, so a simplex over a
        # (d - 1)-simplex of the facet is not flat
        sub = Polytope.from_vertices(P.vertices[members])
        out.extend(np.vstack([[v0], s]) for s in triangulate(sub) if len(s) == d)
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


def random_polytope(n, npoints=10, seed=0):
    rng = np.random.default_rng(seed)
    return Polytope.from_vertices(rng.standard_normal((npoints, n)))


def builtin_polytope(name):
    """Named generators used by the CLI: cube2, cube3, simplex3,
    cross3, random3-<seed>, ..., in dimension 1 to 4, the library's scope."""
    import re
    m = re.fullmatch(r"(cube|simplex|cross|random)([1-4])(?:-(\d+))?", name)
    if not m:
        raise GeometryError(f"unknown built-in polytope {name!r}: cube, simplex, cross or "
                            "random in dimension 1 to 4 (the scope n <= 4), as in cube3 or random3-7")
    kind, n, seed = m.group(1), int(m.group(2)), m.group(3)
    make = {"cube": cube, "simplex": simplex, "cross": cross_polytope}.get(kind)
    return make(n) if make else random_polytope(n, seed=int(seed or 0))
