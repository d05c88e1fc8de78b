"""Monte-Carlo verification of the Crofton and kinematic identities.

Each verifier assembles the exact right-hand side from the coefficient
tables and the measures of the fixed polytope, estimates the left-hand
integral from flat or motion samples, and reports per-coordinate
agreement against 3 standard errors (with an absolute floor for exact
zeros).

Two evaluation paths feed the left-hand side.  The batched section path
takes blocks of samples as sections {q + B y : g y <= h} of dimension
d <= 2 (lines and planes for Crofton, P cap gP2 in the plane for motions),
clips each line (the section itself for d = 1, each constraint line for
d = 2) to one parameter interval, whose ends give the section's segment,
edges and vertices, and sums `tcm`'s face sum over those faces with
conemoment's closed forms, scatter-added onto the samples.
Every other index (windows, n = 3 motions, r > 0 above j = 0, ...) takes
the generic path, which builds each section as a Polytope and calls `tcm`;
the sections' own Monte-Carlo errors add to its standard error, and each
section's sampled cones draw their own streams.  The generic path is the
reference the test-suite checks the batched one against, sample by sample.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .coeffs import c_norm, d_coeff, thm31_coeff
from .conemoment import _arc_ends, _arc_moment, _lune_moment, _product_cone_moment
from .flats import _BATCH, sample_flats_hitting, sample_motions_coupling
from .measures import tcm, valuation, MeasureIndex
from .polytope import (
    EmptyPolytopeError,
    GeometryError,
    GrazingIntersectionError,
    Polytope,
    Region,
    intersect_flat,
)
from .rng import stream
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
_RESAMPLE_SEED_XOR = 0x9E3779B9
_SPARES = 1024


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
    rejections: int = 0
    wall_time: float = 0.0
    notes: str = ""

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
            "coordinates": [
                {"index": list(r["index"]), "lhs": r["lhs"], "rhs": r["rhs"],
                 "stderr": r["stderr"], "abs_diff": r["abs_diff"], "allowed": r["allowed"]}
                for r in self.coordinate_rows()
            ],
        }


# -- right-hand sides -------------------------------------------------------

def crofton_rhs(P, k, j, r=0, s=0, l=0, region=None, budget=20000, seed=0):
    """Exact right-hand side of the Crofton identity for sections by
    k-flats, as (tensor, stderr tensor).

    j = k uses the single-term top-measure form; j < k uses the double
    sum over (m, i).  Terms whose metric-tensor power would be negative
    must carry a zero coefficient; a nonzero one indicates a coefficient
    bug and raises.
    """
    n = P.dim
    if not 0 <= j <= k <= n:
        raise ValueError(f"need 0 <= j <= k <= n, got {(n, j, k)}")
    if j == 0 and l != 0:
        raise ValueError("j = 0 requires l = 0")
    rank = r + s + 2 * l
    total = SymTensor.zero(n, rank)
    err = SymTensor.zero(n, rank)
    if j == k:
        coef = thm31_coeff(n, k, s)
        if coef != 0.0:
            mv = tcm(P, n, r, 0, s // 2 + l, region=region, budget=budget, seed=seed)
            total = total.add_scaled(mv.tensor, coef)
            err = err.add_scaled(mv.stderr, abs(coef))
        return total, err
    for m in range(s // 2 + 1):
        for i in range(m + 1):
            coef = d_coeff(n, j, k, s, l, i, m)
            if m - i < 0:
                if coef != 0.0:
                    raise RuntimeError(
                        f"nonzero coefficient {coef} on negative metric power (i={i}, m={m})")
                continue
            if coef == 0.0:
                continue
            mv = tcm(P, n - k + j, r, s - 2 * m, l + i, region=region, budget=budget, seed=seed)
            q_pow = metric_tensor(n).power(m - i)
            total = total.add_scaled(q_pow * mv.tensor, coef)
            err = err.add_scaled(q_pow * mv.stderr, abs(coef))
    return total, err


def kinematic_rhs(P, P2, j, r=0, s=0, l=0, region=None, region2=None,
                  budget=20000, seed=0):
    """Exact right-hand side of the kinematic identity: the (m, i) double
    sum over measures of P times scalar curvature measures of P2, with
    the redefined coefficient at the top summand."""
    n = P.dim
    if not 0 <= j <= n or (j == 0 and l != 0):
        raise ValueError(f"need 0 <= j <= n, and l = 0 at j = 0; got {(n, j, l)}")
    rank = r + s + 2 * l
    total = SymTensor.zero(n, rank)
    err = SymTensor.zero(n, rank)
    for p in range(j, n + 1):
        k = n - p + j
        c2 = tcm(P2, k, 0, 0, 0, region=region2, budget=budget, seed=seed)
        cm_val = c2.tensor.value()
        cm_err = c2.stderr.value()
        for m in range(s // 2 + 1):
            for i in range(m + 1):
                coef = d_coeff(n, j, k, s, l, i, m)
                if coef == 0.0:
                    continue
                mv = tcm(P, p, r, s - 2 * m, l + i, region=region, budget=budget, seed=seed)
                q_pow = metric_tensor(n).power(m - i)
                total = total.add_scaled(q_pow * mv.tensor, coef * cm_val)
                err = err.add_scaled(q_pow * mv.stderr, abs(coef) * (abs(cm_val) + cm_err))
                if cm_err:
                    err = err.add_scaled(abs(q_pow * mv.tensor), abs(coef) * cm_err)
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


def _spares(draw, seed):
    """Endless replacements for rejected (grazing) samples: blocks of
    _SPARES rows from draw(count, seed), each block under its own seed so
    that no replacement repeats."""
    for block in itertools.count():
        yield from draw(_SPARES, seed ^ _RESAMPLE_SEED_XOR ^ (block << 32))[0]


def _generic_lhs(n, j, r, s, l, rows, spares, section, weight, budget, seed):
    """Per-sample path: section(*row) returns (polytope or None, region) or
    raises GrazingIntersectionError, and then the row is replaced by the
    next spare; each section is measured by tcm.  Returns (estimate,
    stderr, rejections)."""
    rank = r + s + 2 * l
    values = np.zeros((len(rows), len(multi_degrees(n, rank))))
    errors = np.zeros_like(values)
    rejections = 0
    for idx, row in enumerate(rows):
        while True:
            try:
                sec, region = section(*row)
                break
            except GrazingIntersectionError:
                rejections += 1
                row = next(spares)
        if sec is not None:   # each section's sampled cones draw from their own streams
            mv = tcm(sec, j, r, s, l, region=region, budget=budget, seed=seed ^ ((idx + 1) << 32))
            values[idx], errors[idx] = mv.tensor.data, mv.stderr.data
    est, err = _mean_and_stderr(SymTensor(n, rank, values), weight, SymTensor(n, rank, errors))
    return est, err, rejections


# -- the batched section path ---------------------------------------------------

def _batched(n, d, j, r, l, regions, bodies):
    """Whether `_section_lhs` evaluates phi_j^{r,s,l} on the d-dimensional
    sections of these bodies: whole-space regions, full-dimensional bodies,
    r > 0 only at j = 0, and one of its three face kinds: the facets of the
    section (j = d - 1), a segment itself (j = d = 1 < n), or polygon
    vertices whose cone has at most one line (j = 0, d = 2, n - d <= 1)."""
    return (all(reg.is_universe for reg in regions) and all(B.aff_dim == B.dim for B in bodies)
            and d <= 2 and j <= 1 and (r == 0 or j == 0) and (l == 0 or j > 0)
            and (j == d - 1 or j == d < n or (j == d - 2 and n - d <= 1)))


def _clip_lines(ge, gap, slack):
    """The parameter interval [lo, hi] of each line y = p + t e under the
    unit rows g y <= h, from ge = g e and gap = h - g p (m, L, F): its ends
    lo and hi (m, L), the rows that bound them, and whether the line meets
    the section: lo < hi, and no row parallel to the line (|ge| <= 1e-12)
    violated by more than slack."""
    par = np.abs(ge) <= 1e-12
    ruled_out = np.any(par & (gap < -slack), axis=-1)
    lower = gap / np.where(par, 1.0, ge)
    upper = np.where(ge > 1e-12, lower, np.inf)
    lower[ge >= -1e-12] = -np.inf
    lo_row, hi_row = np.argmax(lower, axis=-1), np.argmin(upper, axis=-1)
    lo = np.take_along_axis(lower, lo_row[..., None], axis=-1)[..., 0]
    hi = np.take_along_axis(upper, hi_row[..., None], axis=-1)[..., 0]
    return lo, hi, lo_row, hi_row, (lo < hi) & ~ruled_out


def _section_lhs(n, j, r, s, l, N, sections, weight, slack):
    """phi_j^{r,s,l} of N sections {q + B y : g y <= h} of dimension d <= 2,
    for the face kinds `_batched` admits, in blocks of _BATCH samples:
    sections(block) gives a block's frames B (m, n, d) and W (m, n, n - d)
    of the section and its complement, q (m, n), g (m, F, d) and h (m, F).
    The faces come from `_clip_lines`, with the body's `slack`.  For d = 1
    the section's own line y = t is clipped: [lo, hi] is the segment, and
    its endpoints lie on the two bounding rows.  For d = 2 the constraint
    lines y = h_f g_f + t e_f, e_f = g_f turned by +90 degrees, are
    clipped: the lines that meet are the edges, run counterclockwise, and
    their hi ends are the vertices, whose normal cone is the arc (< pi)
    from g_f counterclockwise to the normal of the row that bounds that
    end.  Each face's size or position power times the closed-form moment
    of its normal cone, as in `tcm`, is scatter-added onto its sample.
    Returns (estimate, stderr, rejections = 0)."""
    rank = r + s + 2 * l
    values = np.zeros((N, len(multi_degrees(n, rank))))
    for at in range(0, N, _BATCH):
        B, W, q, g, h = sections(slice(at, at + _BATCH))
        d = g.shape[-1]
        gn = np.linalg.norm(g, axis=-1)
        gn[gn == 0] = 1.0
        g, h = g / gn[..., None], h / gn                                 # unit in-frame normals
        if d == 1:          # the section's own line: p = 0, e = 1
            p, e = np.zeros((len(g), 1, 1)), np.ones((len(g), 1, 1))
        else:               # the constraint lines
            p, e = h[..., None] * g, np.stack([-g[..., 1], g[..., 0]], axis=-1)
        gt = np.swapaxes(g, 1, 2)
        lo, hi, lo_row, hi_row, meets = _clip_lines(e @ gt, h[:, None] - p @ gt, slack)
        i, f = np.nonzero(meets)
        if j == 1:          # segments or edges: length, direction^{2l}, W (+ the edge normal)
            rays = np.einsum("kij,kj->ki", B[i], g[i, f])[..., None] if d == 2 else np.zeros((n, 0))
            direction = np.einsum("kij,kj->ki", B[i], e[i, f])
            vals = (_product_cone_moment(n, s, rays, W[i])
                    * vector_power(direction, 2 * l)).scale(hi[i, f] - lo[i, f])
        else:               # points, times v^r: segment endpoints or polygon vertices
            if d == 1:      # the ray of the bounding row, and W
                y = np.stack([lo, hi], axis=-1)[i, f].reshape(-1, 1)
                rows = np.stack([lo_row, hi_row], axis=-1)[i, f].ravel()
                i = np.repeat(i, 2)
                ray = np.einsum("kij,kj->ki", B[i], g[i, rows])
                cones = _product_cone_moment(n, s, ray[..., None], W[i])
            else:           # edge f's hi end: the arc from g_f to the bounding row's normal (+ W)
                y = p[i, f] + hi[i, f, None] * e[i, f]
                theta = np.arctan2(g[..., 1], g[..., 0])
                start = theta[i, f]
                turn = np.mod(theta[i, hi_row[i, f]] - start, 2.0 * math.pi)
                ends = _arc_ends(start, start + turn)
                pa, pb = B[i, :, 0], B[i, :, 1]
                cones = (_arc_moment(n, s, pa, pb, ends) if n == d
                         else _lune_moment(n, s, pa, pb, ends, W[i, :, 0]))
            vals = cones * (vector_power(q[i] + np.einsum("kic,kc->ki", B[i], y), r) if r
                            else np.ones(len(i)))
        starts = np.flatnonzero(np.diff(i, prepend=-1))                 # i is sorted by sample
        values[at + i[starts]] = np.add.reduceat(vals.data, starts, axis=0)
    est, err = _mean_and_stderr(SymTensor(n, rank, values), weight * c_norm(n, j, r, s, l) / omega(n - j))
    return est, err, 0


# -- Crofton left-hand side -------------------------------------------------

def crofton_lhs(P, k, j, r=0, s=0, l=0, region=None, samples=10000, seed=0,
                margin=0.5, budget=20000):
    """Monte-Carlo estimate of the integral of phi_j^{r,s,l}(P cap E, region)
    over k-flats; returns (tensor, stderr, rejections)."""
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    region = Region.universe() if region is None else region
    if _batched(P.dim, k, j, r, l, [region], [P]):
        A, b = P.ambient_halfspaces()
        batch = sample_flats_hitting(P, k, samples, seed=seed, margin=margin)

        def sections(block):
            B, q = batch.frames[block], batch.points[block]
            return B, batch.complements[block], q, A @ B, b - q @ A.T
        return _section_lhs(P.dim, j, r, s, l, samples, sections, batch.weight, P.slack)
    return _crofton_generic(P, k, j, r, s, l, region, samples, seed, margin, budget)


def _crofton_generic(P, k, j, r, s, l, region, samples, seed, margin, budget):
    def draw(count, seed):
        batch = sample_flats_hitting(P, k, count, seed=seed, margin=margin)
        return list(zip(batch.frames, batch.points)), batch.weight

    def section(B, q):
        return intersect_flat(P, B, q, P.tol), region

    rows, weight = draw(samples, seed)
    return _generic_lhs(P.dim, j, r, s, l, rows, _spares(draw, seed), section,
                        weight, budget, seed)


def crofton_verify(P, k, j, r=0, s=0, l=0, region=None, samples=10000, seed=0,
                   margin=0.5, budget=20000):
    t0 = time.perf_counter()
    rhs, rhs_err = crofton_rhs(P, k, j, r, s, l, region=region, budget=budget, seed=seed)
    lhs, err, rej = crofton_lhs(P, k, j, r, s, l, region=region, samples=samples,
                                seed=seed, margin=margin, budget=budget)
    return VerificationReport(
        theorem="crofton", params={"n": P.dim, "k": k, "j": j, "r": r, "s": s, "l": l},
        lhs=lhs, stderr=err, rhs=rhs, rhs_stderr=rhs_err,
        samples=samples, rejections=rej, wall_time=time.perf_counter() - t0,
        notes="polytope verification; statement for general convex bodies not covered")


# -- kinematic formula ------------------------------------------------------

def kinematic_lhs(P, P2, j, r=0, s=0, l=0, region=None, region2=None,
                  samples=10000, seed=0, margin=0.5, budget=20000):
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    n = P.dim
    region = Region.universe() if region is None else region
    region2 = Region.universe() if region2 is None else region2
    if _batched(n, n, j, r, l, [region, region2], [P, P2]):
        (A1, b1), (A2, b2) = P.ambient_halfspaces(), P2.ambient_halfspaces()
        batch = sample_motions_coupling(P, P2, samples, seed=seed, margin=margin)

        def sections(block):
            Ag = A2 @ np.swapaxes(batch.rotations[block], 1, 2)            # (m, F2, n): A2 rho^T
            m = len(Ag)
            g = np.concatenate([np.broadcast_to(A1, (m,) + A1.shape), Ag], axis=1)
            h = np.concatenate([np.broadcast_to(b1, (m, len(b1))),
                                b2 + (Ag @ batch.translations[block, :, None])[..., 0]], axis=1)
            return np.broadcast_to(np.eye(n), (m, n, n)), np.zeros((m, n, 0)), np.zeros((m, n)), g, h
        return _section_lhs(n, j, r, s, l, samples, sections, batch.weight, P.slack)
    return _kinematic_generic(P, P2, j, r, s, l, region, region2,
                              samples, seed, margin, budget)


def _kinematic_generic(P, P2, j, r, s, l, region, region2, samples, seed, margin, budget):
    A1, b1 = P.ambient_halfspaces()
    A2, b2 = P2.ambient_halfspaces()

    def draw(count, seed):
        batch = sample_motions_coupling(P, P2, count, seed=seed, margin=margin)
        return list(zip(batch.rotations, batch.translations)), batch.weight

    def section(rho, t):
        Ag = A2 @ rho.T
        try:
            inter = Polytope.from_halfspaces(np.vstack([A1, Ag]), np.concatenate([b1, b2 + Ag @ t]),
                                             tol=P.tol)
        except EmptyPolytopeError:
            return None, None
        if inter.aff_dim < P.dim:
            raise GrazingIntersectionError("lower-dimensional intersection")
        return inter, _combine_regions(region, region2.transformed(rho, t))

    rows, weight = draw(samples, seed)
    return _generic_lhs(P.dim, j, r, s, l, rows, _spares(draw, seed), section,
                        weight, budget, seed)


def _combine_regions(r1, r2):
    if r1.is_universe:
        return r2
    if r2.is_universe:
        return r1
    return Region(np.vstack([r1.A, r2.A]), np.concatenate([r1.b, r2.b]))


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
        samples=samples, rejections=rej, wall_time=time.perf_counter() - t0,
        notes="polytope verification; statement for general convex bodies not covered")


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


def independence_rank(n, p, trials=8, seed=0, window=0.12):
    """Numerical rank of the valuation family of tensor rank p, evaluated
    on rotated boxes with small box windows localized near faces of every
    dimension.  Returns (rank, expected_count, singular_values)."""
    indices = independence_indices(n, p)
    rng = stream(seed, 0)
    rows = []
    from .flats import random_rotation
    for trial in range(trials):
        sides = 0.8 + 0.8 * rng.random(n)
        base = Polytope.from_vertices(
            np.array(np.meshgrid(*[[0.0, si] for si in sides], indexing="ij"))
            .reshape(n, -1).T)
        rho = random_rotation(rng, n)
        shift = rng.random(n) - 0.5
        Pt = base.transformed(rho, shift)
        regions = []
        for fd in range(n + 1):
            faces = Pt.faces(fd)
            face = faces[int(rng.integers(len(faces)))]
            c = face.point
            regions.append(Region.box(c - window, c + window))
        for reg in regions:
            row_block = []
            for idx in indices:
                val = valuation(Pt, idx, region=reg)
                row_block.append(val.coordinates_array())
            rows.append(np.array(row_block).T)   # (n_coords, n_indices)
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
    streams, in P's bounding box grown by eps, and counts those within eps
    of P (`_within`, from P's face lattice)."""
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if P.aff_dim < P.dim:
        raise GeometryError(f"the Steiner check needs a full-dimensional body, "
                            f"got dimension {P.aff_dim} in R^{P.dim}")
    n = P.dim
    vols = [kappa_ball(n - q) * tcm(P, q).tensor.value() for q in range(n + 1)]
    lo, hi = P.vertices.min(axis=0), P.vertices.max(axis=0)
    mc_vol, mc_se, exact = [], [], []
    for ei, eps in enumerate(eps_list):
        box_lo, box_hi = lo - eps, hi + eps
        box_vol = float(np.prod(box_hi - box_lo))
        hits, chunk = 0, 200000
        for bi, at in enumerate(range(0, samples, chunk)):
            u = stream(seed, ei * 1024 + bi).random((min(chunk, samples - at), n))
            hits += int(np.count_nonzero(_within(P, box_lo + (box_hi - box_lo) * u, eps)))
        frac = hits / samples
        mc_vol.append(frac * box_vol)
        mc_se.append(box_vol * math.sqrt(max(frac * (1 - frac), 0.0) / samples))
        exact.append(sum(vols[q] * eps ** (n - q) for q in range(n + 1)))
    return SteinerReport(list(eps_list), mc_vol, mc_se, exact)
