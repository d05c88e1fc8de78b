"""Monte-Carlo verification of the Crofton and kinematic identities.

Each verifier assembles the exact right-hand side from the coefficient
tables and the measures of the fixed polytope, estimates the left-hand
integral from flat or motion samples, and reports per-coordinate
agreement against 3 standard errors (with an absolute floor for exact
zeros).

Both theorems describe each block of samples once, as sections
{q + B y : g y <= h} under windows {x : Aw x <= bw}, for one of two
evaluators: the batched section path (`_section_lhs`, d <= 3), or the
per-sample path (`_generic_lhs`), which builds each section as a Polytope,
calls `tcm`, and is the reference the batched one is tested against.  The
per-sample path also keeps what the batched one has no closed form for:
vertices of 3-dimensional sections, whose cones need not be orthogonal
sums, j = d = n, and j = d = 3 < n.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .coeffs import c_norm, d_coeff
from .conemoment import _arc_ends, _cone_moment
from .flats import _BATCH, random_rotation, sample_flats_hitting, sample_motions_coupling
from .measures import tcm, valuation, MeasureIndex
from .polytope import (DIRECTION_TOL, GeometryError, GrazingIntersectionError, Polytope, Region,
                       _flat_section)
from .rng import purpose_key, stream
from .special import kappa_ball, omega
from .symtensor import SymTensor, metric_tensor, multi_degrees, vector_power

__all__ = [
    "VerificationReport",
    "crofton_rhs",
    "crofton_lhs",
    "crofton_verify",
    "kinematic_rhs",
    "kinematic_lhs",
    "kinematic_verify",
    "independence_indices",
    "independence_rank",
    "steiner_check",
    "SteinerReport",
]

ABS_FLOOR = 1e-9
_WINDOW = 0.12      # half-width of the independence rank's box windows


# -- reports ----------------------------------------------------------------

@dataclass
class VerificationReport:
    """Per-coordinate comparison of a Monte-Carlo estimate against an
    exactly assembled right-hand side."""

    theorem: str
    params: dict
    lhs: SymTensor
    stderr: SymTensor
    rhs: SymTensor
    rhs_stderr: SymTensor
    samples: int
    rejections: int = 0     # grazing sections on the per-sample path, each scored zero
    wall_time: float = 0.0
    notes: str = "polytope verification; statement for general convex bodies not covered"

    def coordinate_rows(self):
        lhs, rhs = self.lhs.coordinates_array().tolist(), self.rhs.coordinates_array().tolist()
        se = (self.stderr.coordinates_array() + self.rhs_stderr.coordinates_array()).tolist()
        return [{"index": beta, "lhs": a, "rhs": b, "stderr": e, "abs_diff": abs(a - b),
                 "allowed": max(3.0 * e, ABS_FLOOR)}
                for beta, a, b, e in zip(multi_degrees(self.lhs.dim, self.lhs.rank), lhs, rhs, se)]

    @property
    def max_excess(self):
        """Max over coordinates of |LHS-RHS| / allowed; passes iff <= 1."""
        return max(r["abs_diff"] / r["allowed"] for r in self.coordinate_rows())

    @property
    def passed(self):
        return self.max_excess <= 1.0

    def to_dict(self):
        return {
            "theorem": self.theorem,
            "params": self.params,
            "passed": bool(self.passed),
            "max_excess": float(self.max_excess),
            "samples": int(self.samples),
            "rejections": int(self.rejections),
            "wall_time_s": float(self.wall_time),
            "notes": self.notes,
            "coordinates": [dict(r, index=list(r["index"])) for r in self.coordinate_rows()],
        }


# -- right-hand sides -------------------------------------------------------

def _check_orders(r, s, l):
    """ValueError for a negative r, s or l: no measure has such an index."""
    if min(r, s, l) < 0:
        raise ValueError(f"need r, s, l >= 0, got r = {r}, s = {s}, l = {l}")


def crofton_rhs(P, k, j, r=0, s=0, l=0, region=None, budget=20000, seed=0):
    """Exact right-hand side of the Crofton identity for sections by
    k-flats, as (tensor, stderr tensor): the sum over 0 <= i <= m <= s/2 of
    d_{n,j,k}^{s,l,i,m} Q^{m-i} phi_{n-k+j}^{r,s-2m,l+i}(P, region).  At
    j = k, d_coeff is the redefined coefficient, nonzero only at
    i = m = s/2, so the sum is the single top-measure term."""
    n = P.dim
    _check_orders(r, s, l)
    if not 0 <= j <= k <= n:
        raise ValueError(f"need 0 <= j <= k <= n, got {(n, j, k)}")
    if j == 0 and l != 0:
        raise ValueError("j = 0 requires l = 0")
    total = err = SymTensor.zero(n, r + s + 2 * l)
    for m in range(s // 2 + 1):
        for i in range(m + 1):
            coef = d_coeff(n, j, k, s, l, i, m)
            if coef == 0.0:
                continue
            mv = tcm(P, n - k + j, r, s - 2 * m, l + i, region=region, budget=budget, seed=seed)
            q_pow = metric_tensor(n).power(m - i)
            total = total.add_scaled(q_pow * mv.tensor, coef)
            err = err.add_scaled(q_pow * mv.stderr, abs(coef))
    return total, err


def kinematic_rhs(P, P2, j, r=0, s=0, l=0, region=None, region2=None,
                  budget=20000, seed=0):
    """Exact right-hand side of the kinematic identity: the sum over
    k = j..n of C_k(P2, region2) times the Crofton right-hand side
    `crofton_rhs(P, k, j, ...)` for sections by k-flats.  With t, e that
    side and its stderr and c, c_err the scalar measure and its stderr,
    a term contributes c t with stderr e (|c| + c_err) + |t| c_err."""
    n = P.dim
    _check_orders(r, s, l)
    if P2.dim != n:
        raise ValueError(f"the bodies lie in R^{n} and R^{P2.dim}")
    if j > n:       # crofton_rhs checks the rest
        raise ValueError(f"need 0 <= j <= n, got {(n, j)}")
    total = err = SymTensor.zero(n, r + s + 2 * l)
    for k in range(n, j - 1, -1):
        t, e = crofton_rhs(P, k, j, r, s, l, region=region, budget=budget, seed=seed)
        c2 = tcm(P2, k, region=region2, budget=budget, seed=seed)
        c, c_err = c2.tensor.value(), c2.stderr.value()
        total = total.add_scaled(t, c)
        err = err.add_scaled(e, abs(c) + c_err).add_scaled(abs(t), c_err)
    return total, err


# -- estimator core ---------------------------------------------------------

def _mean_and_stderr(values, weight, section_err=None):
    """Mean over the sample axis of weight * values, and its standard error
    per tensor coordinate.  The sections' own Monte-Carlo errors
    (section_err, one tensor per sample) enter linearly, averaged with the
    same weight."""
    coords = weight * values.coordinates_array()
    count = len(coords)
    mean = coords.sum(axis=0) / count
    var = np.maximum((coords ** 2).sum(axis=0) / count - mean ** 2, 0.0)
    se = np.sqrt(var / count)
    if section_err is not None:
        se = se + weight * section_err.coordinates_array().sum(axis=0) / count
    return (SymTensor.from_coordinates(values.dim, values.rank, mean),
            SymTensor.from_coordinates(values.dim, values.rank, se))


def _generic_lhs(n, j, r, s, l, N, sections, weight, budget, seed):
    """Per-sample evaluator of the blocks `_section_lhs` takes: each section
    is built as a Polytope and measured by `tcm` under its window, with
    sample idx's sampled cones on seed ^ ((idx + 1) << 32).  A grazing
    section (`_flat_section`) scores zero and counts as a rejection.
    Returns (estimate, stderr, rejections)."""
    rank = r + s + 2 * l
    values = np.zeros((N, len(multi_degrees(n, rank))))
    errors = np.zeros_like(values)
    rejections = 0
    for at in range(0, N, _BATCH):
        B, _, q, g, h, Aw, bw = sections(slice(at, at + _BATCH))
        for i in range(len(q)):
            try:
                sec = _flat_section(g[i], h[i], q[i], B[i])
            except GrazingIntersectionError:
                rejections += 1
                continue
            if sec is not None:
                mv = tcm(sec, j, r, s, l, region=Region(Aw[i], bw[i]), budget=budget,
                         seed=seed ^ ((at + i + 1) << 32))
                values[at + i], errors[at + i] = mv.tensor.data, mv.stderr.data
    est, err = _mean_and_stderr(SymTensor(n, rank, values), weight, SymTensor(n, rank, errors))
    return est, err, rejections


# -- the batched section path ---------------------------------------------------

def _batched(n, d, j, l):
    """Whether `_section_lhs` evaluates phi_j^{r,s,l} on d-dimensional
    sections in R^n: d <= 3, and one of its four face kinds: the facets of
    the section (j = d - 1), a segment or polygon itself (j = d < n, d <= 2),
    or polygon vertices and polyhedron edges, whose normal cone is an arc
    crossed with the section's complement (j = d - 2); points carry no
    Q(F)^l."""
    return d <= 3 and (l == 0 or j > 0) and (j in (d - 1, d - 2) or j == d < min(n, 3))


def _unit(g, h):
    """The rows g y <= h scaled to unit normals (zero rows stay zero)."""
    gn = np.linalg.norm(g, axis=-1)
    gn[gn == 0] = 1.0
    return g / gn[..., None], h / gn


def _simplex_mean(vertices, r):
    """The mean of x^r over the simplices with the k + 1 given vertices,
    each (..., n): the sum over a_0 + ... + a_k = r of prod_i v_i^{a_i},
    divided by C(r + k, k)."""
    def total(vs, r):
        if len(vs) == 1:
            return vector_power(vs[0], r)
        out = total(vs[1:], r)
        for i in range(1, r + 1):
            out = out + vector_power(vs[0], i) * total(vs[1:], r - i)
        return out
    return total(vertices, r).scale(1.0 / math.comb(r + len(vertices) - 1, r))


def _clip_lines(p, e, g, h, slack):
    """The parameter interval [lo, hi] of each line y = p + t e (m, L, d)
    under the unit rows g y <= h, g (m, F, d): its ends lo and hi (m, L),
    the rows that bound them, and whether the line meets the section:
    lo < hi, and no row parallel to the line (|g e| <= DIRECTION_TOL) violated by
    more than slack.  The (m, L, F) arrays are updated in place, so a clip
    holds two of them at a time."""
    gt = np.swapaxes(g, 1, 2)
    ge, gap = e @ gt, p @ gt
    np.subtract(h[:, None], gap, out=gap)
    rising, falling = ge > DIRECTION_TOL, ge < -DIRECTION_TOL
    par = ~(rising | falling)
    ruled_out = np.any(par & (gap < -slack), axis=-1)
    lower = np.divide(gap, ge, out=gap, where=~par)
    upper = ge                                      # ge is spent: it holds the upper bounds
    np.copyto(upper, lower)
    upper[~rising] = np.inf
    lower[~falling] = -np.inf
    lo_row, hi_row = np.argmax(lower, axis=-1), np.argmin(upper, axis=-1)
    lo = np.take_along_axis(lower, lo_row[..., None], axis=-1)[..., 0]
    hi = np.take_along_axis(upper, hi_row[..., None], axis=-1)[..., 0]
    return lo, hi, lo_row, hi_row, (lo < hi) & ~ruled_out


def _edge_lines(g, h, pairs):
    """The lines y = p + t e in which the planes g_f y = h_f and g_a y = h_a
    of the unit rows g (m, R, 3) meet, for the pairs (f, a) (2, L): with
    cos = g_f . g_a and sin = |g_f x g_a|, e = g_f x g_a / sin, and p is
    the line's point in span{g_f, g_a}.  In plane f the line lies at signed
    distance (h_a - cos h_f) / sin from the foot point h_f g_f, positive
    when the foot point satisfies row a; in plane a at (h_f - cos h_a) / sin
    from h_a g_a.  Returns p, e (m, L, 3), cos and sin (m, L); p = e = 0
    where sin <= DIRECTION_TOL (parallel planes)."""
    gf, ga, hf, ha = g[:, pairs[0]], g[:, pairs[1]], h[:, pairs[0]], h[:, pairs[1]]
    c = np.stack([gf[..., 1] * ga[..., 2] - gf[..., 2] * ga[..., 1],
                  gf[..., 2] * ga[..., 0] - gf[..., 0] * ga[..., 2],
                  gf[..., 0] * ga[..., 1] - gf[..., 1] * ga[..., 0]], axis=-1)
    cos, sin = np.einsum("mlc,mlc->ml", gf, ga), np.linalg.norm(c, axis=-1)
    meet = sin > DIRECTION_TOL
    scale = meet / np.where(meet, sin, 1.0)
    p = (((hf - cos * ha) * scale ** 2)[..., None] * gf
         + ((ha - cos * hf) * scale ** 2)[..., None] * ga)
    return p, c * scale[..., None], cos, sin


def _section_lhs(n, j, r, s, l, N, sections, weight, slack):
    """phi_j^{r,s,l} of N sections {q + B y : g y <= h} of dimension d <= 3
    under windows {x : Aw x <= bw}, for the face kinds `_batched` admits.
    sections(block) gives the frames B (m, n, d) and W (m, n, n - d) of the
    section and its complement, q (m, n), g (m, F, d), h (m, F), Aw
    (m, Fw, n) and bw (m, Fw); Fw = 0 for the whole space.  A block holds
    _BATCH samples; at d = 3 it holds _BATCH F / L of them (at least one),
    so that its (m, L, F) clip of L lines is no larger than a d = 2 block's
    (m, F, F).

    `_clip_lines` clips lines y = p + t e with the body's `slack`:
    - d = 1: the section's own line y = t.  [lo, hi] is the segment, and
      its ends lie on the two bounding rows.
    - d = 2: the constraint lines y = h_f g_f + t e_f, with e_f = g_f turned
      by +90 degrees, so they run counterclockwise.  Those that meet are
      the edges.  Their hi ends are the vertices, whose normal cone is the
      arc (< pi) from g_f counterclockwise to the bounding row's normal.
    - d = 3: the line where the planes of rows f < a meet (`_edge_lines`).
      Those that meet are the edges, whose normal cone is the arc from g_f
      to g_a.
    A polygon (a 2-face at d = 3, or the section itself at d = 2) is a fan
    of signed triangles from the foot point h_f g_f of its plane (the origin
    at d = 2) to the ends of its edges, each signed by the edge's in-plane
    distance from that point.  A window restricts positions only.  Its
    in-frame rows clip the lines once more; at j = 2 they also give lines
    of their own, which bound the polygons but are never faces.  A point
    counts if it meets them within `slack`.  Each face's size, position
    moment and direction power (or Q(F)^l), times the closed-form moment of
    its normal cone as in `tcm`, is scatter-added onto its sample.  Returns
    (estimate, stderr, rejections = 0)."""
    rank = r + s + 2 * l
    values = np.zeros((N, len(multi_degrees(n, rank))))
    _, _, _, g, _, Aw, _ = sections(slice(0, 1))
    F, d = g.shape[1:]
    R = F + Aw.shape[1] if j == 2 else F            # the rows whose lines bound the faces
    pairs = np.array(np.triu_indices(F, 1, R))      # d = 3: the rows whose planes meet
    size = max(1, _BATCH * F // pairs.shape[1]) if d == 3 else _BATCH
    for at in range(0, N, size):
        B, W, q, g, h, Aw, bw = sections(slice(at, at + size))
        g, h = _unit(g, h)                                              # unit in-frame normals
        windowed = Aw.shape[1] > 0
        rows, offsets = g, h
        if windowed:        # the window's in-frame rows
            gw, hw = _unit(Aw @ B, bw - np.einsum("mfi,mi->mf", Aw, q))
            if j == 2:
                rows, offsets = np.concatenate([g, gw], axis=1), np.concatenate([h, hw], axis=1)
        if d == 1:          # the section's own line: p = 0, e = 1
            p, e = np.zeros((len(g), 1, 1)), np.ones((len(g), 1, 1))
        elif d == 2:        # the constraint lines
            p, e = offsets[..., None] * rows, np.stack([-rows[..., 1], rows[..., 0]], axis=-1)
        else:               # the lines where two planes meet
            p, e, cos, sin = _edge_lines(rows, offsets, pairs)
        lo, hi, lo_row, hi_row, meets = _clip_lines(p, e, g, h, slack)
        if d == 3:
            meets &= sin > DIRECTION_TOL
        if j and windowed:  # clipped once more by the window
            wlo, whi, _, _, wmeets = _clip_lines(p, e, gw, hw, slack)
            lo, hi = np.maximum(lo, wlo), np.minimum(hi, whi)
            meets &= wmeets & (lo < hi)
        if j == 2:          # polygons: fans of signed triangles
            i, k = np.nonzero(meets)
            length = hi[i, k] - lo[i, k]
            ends = [p[i, k] + t[i, k, None] * e[i, k] for t in (lo, hi)]
            if d == 2:      # the section itself, from y = 0: line k lies at distance h_k
                f, dist = np.zeros_like(i), offsets[i, k]
                apex = np.zeros_like(ends[0])
            else:           # face f of the line (f, a), and face a where a is a section row
                f, a = pairs[:, k]
                hf, ha, c = offsets[i, f], offsets[i, a], cos[i, k]
                dist, dist_a = (ha - c * hf) / sin[i, k], (hf - c * ha) / sin[i, k]
                both = a < F
                twice = np.concatenate([np.arange(len(k)), np.flatnonzero(both)])
                i, length, ends = i[twice], length[twice], [v[twice] for v in ends]
                f, dist = np.concatenate([f, a[both]]), np.concatenate([dist, dist_a[both]])
                apex = h[i, f, None] * g[i, f]
            area = 0.5 * dist * length
            if r:
                corners = [q[i] + np.einsum("kic,kc->ki", B[i], v) for v in (apex, *ends)]
                triangles = _simplex_mean(corners, r).scale(area)
            else:
                triangles = SymTensor(n, 0, area[:, None])
            key, of = np.unique(i * F + f, return_inverse=True)
            moments = np.zeros((len(key), triangles.data.shape[-1]))
            np.add.at(moments, of, triangles.data)
            i, f = np.divmod(key, F)
            rays = B[i] @ g[i, f, :, None] if d == 3 else np.zeros((n, 0))
            vals = _cone_moment(n, s, rays, W[i]) * SymTensor(n, r, moments)
            if l:           # Q(F): the section's span, less the face normal at d = 3
                span = vector_power(np.swapaxes(B[i], 1, 2), 2).sum(axis=(1,))
                if d == 3:
                    span = span - vector_power(rays[..., 0], 2)
                vals = vals * span.power(l)
        elif j == 1:        # segments or edges: length, direction^{2l}, W (+ the edge normals)
            i, f = np.nonzero(meets)
            direction = np.einsum("kij,kj->ki", B[i], e[i, f])
            if d == 3:      # the arc from g_f to g_a
                ga, gb, c = g[i, pairs[0, f]], g[i, pairs[1, f]], cos[i, f]
                pa = np.einsum("kij,kj->ki", B[i], ga)
                pb = np.einsum("kij,kj->ki", B[i], gb - c[:, None] * ga) / sin[i, f, None]
                cones = _cone_moment(n, s, np.zeros((n, 0)), W[i],
                                     (pa, pb, _arc_ends(0.0 * c, np.arctan2(sin[i, f], c))))
            else:
                rays = np.einsum("kij,kj->ki", B[i], g[i, f])[..., None] if d == 2 else np.zeros((n, 0))
                cones = _cone_moment(n, s, rays, W[i])
            vals = (cones * vector_power(direction, 2 * l)).scale(hi[i, f] - lo[i, f])
            if r:
                ends = [q[i] + np.einsum("kic,kc->ki", B[i], p[i, f] + t[i, f, None] * e[i, f])
                        for t in (lo, hi)]
                vals = vals * _simplex_mean(ends, r)
        else:               # points, times v^r: segment endpoints or polygon vertices
            i, f = np.nonzero(meets)
            if d == 1:      # both ends, and the rows that bound them
                y = np.stack([lo, hi], axis=-1)[i, f].reshape(-1, 1)
                f = np.stack([lo_row, hi_row], axis=-1)[i, f].ravel()
                i = np.repeat(i, 2)
            else:           # edge f's hi end
                y = p[i, f] + hi[i, f, None] * e[i, f]
            if windowed:
                inside = np.all(np.einsum("kfc,kc->kf", gw[i], y) <= hw[i] + slack, axis=-1)
                i, f, y = i[inside], f[inside], y[inside]
            if d == 1:      # the ray of the bounding row, and W
                ray = np.einsum("kij,kj->ki", B[i], g[i, f])
                cones = _cone_moment(n, s, ray[..., None], W[i])
            else:           # the arc from g_f to the bounding row's normal (+ W)
                theta = np.arctan2(g[..., 1], g[..., 0])
                start = theta[i, f]
                turn = np.mod(theta[i, hi_row[i, f]] - start, 2.0 * math.pi)
                cones = _cone_moment(n, s, np.zeros((n, 0)), W[i],
                                     (B[i, :, 0], B[i, :, 1], _arc_ends(start, start + turn)))
            vals = cones * (vector_power(q[i] + np.einsum("kic,kc->ki", B[i], y), r) if r
                            else np.ones(len(i)))
        starts = np.flatnonzero(np.diff(i, prepend=-1))                 # i is sorted by sample
        values[at + i[starts]] = np.add.reduceat(vals.data, starts, axis=0)
    est, err = _mean_and_stderr(SymTensor(n, rank, values), weight * c_norm(n, j, r, s, l) / omega(n - j))
    return est, err, 0


# -- left-hand sides ---------------------------------------------------------

def _rows(region, n):
    """A window's ambient rows (A, b); the whole space has none."""
    if region is None or region.is_universe:
        return np.zeros((0, n)), np.zeros(0)
    return region.A, region.b


def _each(A, b, m):
    """The rows A x <= b, repeated for m samples."""
    return np.broadcast_to(A, (m,) + A.shape), np.broadcast_to(b, (m, len(b)))


def _moved(A, b, A2, b2, rho, t):
    """Per motion, the rows A x <= b stacked with A2 x <= b2 moved by
    x -> rho x + t."""
    Ag = A2 @ np.swapaxes(rho, 1, 2)                                    # (m, F2, n): A2 rho^T
    A, b = _each(A, b, len(t))
    return (np.concatenate([A, Ag], axis=1),
            np.concatenate([b, b2 + (Ag @ t[..., None])[..., 0]], axis=1))


def _lhs(n, d, j, r, s, l, samples, sections, weight, P, budget, seed):
    """The section blocks go to `_section_lhs` where `_batched` admits the
    index, and to the per-sample `_generic_lhs` otherwise."""
    if _batched(n, d, j, l):
        return _section_lhs(n, j, r, s, l, samples, sections, weight, P.slack)
    return _generic_lhs(n, j, r, s, l, samples, sections, weight, budget, seed)


def crofton_lhs(P, k, j, r=0, s=0, l=0, region=None, samples=10000, seed=0,
                margin=0.5, budget=20000):
    """Monte-Carlo estimate of the integral of phi_j^{r,s,l}(P cap E, region)
    over k-flats; returns (tensor, stderr, rejections)."""
    _check_orders(r, s, l)
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    A, b = P.ambient_halfspaces()
    Aw, bw = _rows(region, P.dim)
    batch = sample_flats_hitting(P, k, samples, seed=seed, margin=margin)

    def sections(block):
        B, q = batch.frames[block], batch.points[block]
        return (B, batch.complements[block], q, A @ B, b - q @ A.T) + _each(Aw, bw, len(q))
    return _lhs(P.dim, k, j, r, s, l, samples, sections, batch.weight, P, budget, seed)


def crofton_verify(P, k, j, r=0, s=0, l=0, region=None, samples=10000, seed=0,
                   margin=0.5, budget=20000):
    t0 = time.perf_counter()
    rhs, rhs_err = crofton_rhs(P, k, j, r, s, l, region=region, budget=budget, seed=seed)
    lhs, err, rej = crofton_lhs(P, k, j, r, s, l, region=region, samples=samples,
                                seed=seed, margin=margin, budget=budget)
    return VerificationReport(
        theorem="crofton", params={"n": P.dim, "k": k, "j": j, "r": r, "s": s, "l": l},
        lhs=lhs, stderr=err, rhs=rhs, rhs_stderr=rhs_err,
        samples=samples, rejections=rej, wall_time=time.perf_counter() - t0)


# -- kinematic formula ------------------------------------------------------

def kinematic_lhs(P, P2, j, r=0, s=0, l=0, region=None, region2=None,
                  samples=10000, seed=0, margin=0.5, budget=20000):
    """Monte-Carlo estimate of the integral of phi_j^{r,s,l}(P cap gP2,
    region cap g region2) over rigid motions g; returns (tensor, stderr,
    rejections)."""
    _check_orders(r, s, l)
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    n = P.dim
    (A1, b1), (A2, b2) = P.ambient_halfspaces(), P2.ambient_halfspaces()
    (R1, c1), (R2, c2) = _rows(region, n), _rows(region2, n)
    batch = sample_motions_coupling(P, P2, samples, seed=seed, margin=margin)

    def sections(block):
        rho, t = batch.rotations[block], batch.translations[block]
        m = len(t)
        return ((np.broadcast_to(np.eye(n), (m, n, n)), np.zeros((m, n, 0)), np.zeros((m, n)))
                + _moved(A1, b1, A2, b2, rho, t) + _moved(R1, c1, R2, c2, rho, t))
    return _lhs(n, n, j, r, s, l, samples, sections, batch.weight, P, budget, seed)


def kinematic_verify(P, P2, j, r=0, s=0, l=0, region=None, region2=None,
                     samples=10000, seed=0, margin=0.5, budget=20000):
    t0 = time.perf_counter()
    rhs, rhs_err = kinematic_rhs(P, P2, j, r, s, l, region=region, region2=region2,
                                 budget=budget, seed=seed)
    lhs, err, rej = kinematic_lhs(P, P2, j, r, s, l, region=region, region2=region2,
                                  samples=samples, seed=seed, margin=margin,
                                  budget=budget)
    return VerificationReport(
        theorem="kinematic", params={"n": P.dim, "j": j, "r": r, "s": s, "l": l},
        lhs=lhs, stderr=err, rhs=rhs, rhs_stderr=rhs_err,
        samples=samples, rejections=rej, wall_time=time.perf_counter() - t0)


# -- linear independence ----------------------------------------------------

def independence_indices(n, p):
    """All valuation indices (j, m, r, s, l) of tensor rank p: the l = 0
    constraint applies at j in {0, n-1} and s = l = 0 at j = n."""
    out = []
    for j in range(n + 1):
        l_max = 0 if j in (0, n - 1) else (p // 2)
        for m in range(p // 2 + 1):
            for l in range(0, (0 if j == n else l_max) + 1):
                rem = p - 2 * m - 2 * l
                if rem < 0:
                    continue
                for s in range(0, rem + 1):
                    if j == n and s != 0:
                        continue
                    r = rem - s
                    out.append(MeasureIndex(j=j, r=r, s=s, l=l, m=m))
    return out


def independence_rank(n, p, trials=8, seed=0):
    """Numerical rank of the valuation family of tensor rank p, evaluated
    with small box windows localized near faces of every dimension of
    random heptagons (n = 2; every vertex cone of a box is right-angled,
    which ties the family at p = 4) or rotated boxes (n >= 3), drawn from
    their own stream.  Needs n >= 2: on S^0, u^2 = Q ties the family.
    Returns (rank, expected_count, singular_values)."""
    if n < 2 or p < 0 or trials < 1:
        raise ValueError(f"need n >= 2, p >= 0 and trials >= 1, got n={n}, p={p}, trials={trials}")
    indices = independence_indices(n, p)
    rng = stream(seed, 0, purpose_key("independence-body"))
    rows = []
    for trial in range(trials):
        if n == 2:
            base = Polytope.from_vertices(rng.standard_normal((7, 2)))
        else:
            sides = 0.8 + 0.8 * rng.random(n)
            base = Polytope.from_vertices(
                np.array(np.meshgrid(*[[0.0, si] for si in sides], indexing="ij"))
                .reshape(n, -1).T)
        rho = random_rotation(rng, n)
        shift = rng.random(n) - 0.5
        Pt = base.transformed(rho, shift)
        for fd in range(n + 1):     # a window at a random face of each dimension
            faces = Pt.faces(fd)
            c = faces[int(rng.integers(len(faces)))].point
            reg = Region.box(c - _WINDOW, c + _WINDOW)
            rows.append(np.array([valuation(Pt, idx, region=reg).coordinates_array()
                                  for idx in indices]).T)   # (n_coords, n_indices)
    M = np.vstack(rows)
    sv = np.linalg.svd(M, compute_uv=False)
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    return rank, len(indices), sv


# -- Steiner cross-check ----------------------------------------------------

@dataclass
class SteinerReport:
    eps: list
    mc_volume: list
    mc_stderr: list
    steiner_volume: list
    rel_error: list = field(default_factory=list)

    def __post_init__(self):
        if not self.rel_error:
            self.rel_error = [abs(a - c) / c for a, c in zip(self.mc_volume, self.steiner_volume)]

    def to_dict(self):
        return {"eps": self.eps, "mc_volume": self.mc_volume, "mc_stderr": self.mc_stderr,
                "steiner_volume": self.steiner_volume, "rel_error": self.rel_error}


def _within(P, x, eps):
    """Which rows of x lie within eps of the full-dimensional P.  The
    largest facet slack (unit normals) bounds the distance from below: at
    most P.slack is inside, as in `contains`, and above eps is a miss.
    The shell between is tested against P's faces from the vertices up, and
    a point that hits leaves the later levels: a point within eps of aff F
    whose projection onto aff F lies in P (hence in F) is a hit, and the
    nearest point of P is such a projection from its own face, so this is
    exactly dist(x, P) <= eps."""
    A, b = P.ambient_halfspaces()
    worst = np.max(A @ x.T - b[:, None], axis=0)
    hit = worst <= P.slack
    live = np.flatnonzero(~hit & (worst <= eps))                        # the shell
    for k in range(P.dim):
        faces = P.faces(k)
        x0 = np.array([face.point for face in faces])                   # (K, n)
        U = np.array([face.frame for face in faces])                    # (K, n, k)
        y = x[live].T                                                   # (n, m)
        c = (np.concatenate(U, axis=1).T @ y).reshape(len(faces), k, len(live))
        c -= np.einsum("fi,fik->fk", x0, U)[..., None]                  # (y - x0)^T U, (K, k, m)
        d2 = x0 @ y                                                     # |y - x0|^2 - |c|^2: to aff F
        d2 *= -2.0
        d2 += np.einsum("im,im->m", y, y)
        d2 += np.einsum("fi,fi->f", x0, x0)[:, None]
        d2 -= np.einsum("fkm,fkm->fm", c, c)
        f, i = np.nonzero(d2 <= eps * eps)
        if k:
            proj = x0[f] + np.einsum("pik,pk->pi", U[f], c[f, :, i])
            i = i[np.max(A @ proj.T - b[:, None], axis=0) <= P.slack]
        found = np.zeros(len(live), dtype=bool)
        found[i] = True
        hit[live[found]] = True
        live = live[~found]
    return hit


def steiner_check(P, eps_list, samples=10 ** 6, seed=0):
    """Monte-Carlo volume of the eps-parallel body of a full-dimensional P
    (any n <= 4) against the Steiner polynomial sum_q kappa_{n-q} V_q(P)
    eps^{n-q}.  Each eps draws uniform points in chunks from its own
    streams (not the samplers'), in P's bounding box grown by eps, and counts those within eps
    of P (`_within`, from P's face lattice)."""
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if not all(eps >= 0 for eps in eps_list):
        raise ValueError(f"need eps >= 0, got {list(eps_list)}")
    if P.aff_dim < P.dim:
        raise GeometryError(f"the Steiner check needs a full-dimensional body, "
                            f"got dimension {P.aff_dim} in R^{P.dim}")
    n = P.dim
    vols = [kappa_ball(n - q) * tcm(P, q).tensor.value() for q in range(n + 1)]
    lo, hi = P.vertices.min(axis=0), P.vertices.max(axis=0)
    mc_vol, mc_se, exact = [], [], []
    steiner = purpose_key("steiner")
    for ei, eps in enumerate(eps_list):
        box_lo, box_hi = lo - eps, hi + eps
        box_vol = float(np.prod(box_hi - box_lo))
        hits, chunk = 0, 200000
        for bi, at in enumerate(range(0, samples, chunk)):
            u = stream(seed, ei * 1024 + bi, steiner).random((min(chunk, samples - at), n))
            hits += int(np.count_nonzero(_within(P, box_lo + (box_hi - box_lo) * u, eps)))
        frac = hits / samples
        mc_vol.append(frac * box_vol)
        mc_se.append(box_vol * math.sqrt(max(frac * (1 - frac), 0.0) / samples))
        exact.append(sum(vols[q] * eps ** (n - q) for q in range(n + 1)))
    return SteinerReport(list(eps_list), mc_vol, mc_se, exact)
