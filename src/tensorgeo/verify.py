"""Monte-Carlo verification of the Crofton and kinematic identities.

Each verifier assembles the exact right-hand side from the coefficient
tables and the measures of the fixed polytope, estimates the left-hand
integral from flat or motion samples, and reports per-coordinate
agreement against 3 standard errors (with an absolute floor for exact
zeros).

Two evaluation paths feed the left-hand side.  The generic path builds
each random section or intersection as a Polytope and calls the measure
evaluator; it works for every index but is slow, and the sections' own
Monte-Carlo errors add to its standard error.  Vectorized kernels handle
the high-sample regimes: line sections in any dimension, plane sections
of 3-d polytopes, and motion intersections of 2-d polytopes.  A kernel
finds the faces of all sections at once and evaluates the same face sum
as `tcm` on batched tensors: face size times the closed-form moment of
the normal cone (conemoment) times Q(F)^l or the position power.  The
kernels are cross-checked against the generic path sample by sample in
the test-suite.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .coeffs import c_norm, d_coeff, thm31_coeff
from .conemoment import _arc_moment, _product_cone_moment
from .flats import sample_flats_hitting, sample_motions_coupling
from .measures import tcm, valuation, MeasureIndex
from .polytope import (
    GrazingIntersectionError,
    Polytope,
    Region,
    intersect_flat,
    _vertices_brute_force,
)
from .rng import stream
from .special import gamma_half, kappa_ball, omega
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
        if sec is not None:
            mv = tcm(sec, j, r, s, l, region=region, budget=budget, seed=seed)
            values[idx], errors[idx] = mv.tensor.data, mv.stderr.data
    est, err = _mean_and_stderr(SymTensor(n, rank, values), weight, SymTensor(n, rank, errors))
    return est, err, rejections


# -- Crofton left-hand side -------------------------------------------------

def crofton_lhs(P, k, j, r=0, s=0, l=0, region=None, samples=10000, seed=0,
                margin=0.5, budget=20000, force_generic=False):
    """Monte-Carlo estimate of the integral of phi_j^{r,s,l}(P cap E, region)
    over k-flats; returns (tensor, stderr, rejections)."""
    n = P.dim
    region = Region.universe() if region is None else region
    if not force_generic and _line_kernel_applies(P, k, j, r, s, l, region):
        return _line_kernel(P, j, s, l, samples, seed, margin)
    if not force_generic and _plane_kernel_applies(P, k, j, r, region):
        return _plane_kernel(P, s, l, samples, seed, margin)
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


# .. line-section kernel ....................................................

def _line_kernel_applies(P, k, j, r, s, l, region):
    if k != 1 or r != 0 or not region.is_universe or P.aff_dim != P.dim:
        return False
    if j == 1:
        return True
    return j == 0 and s == 0 and l == 0


def _clip_lines(P, batch):
    """Vectorized clipping of line flats against P's halfspaces: returns
    (feasible mask, entry parameter, exit parameter)."""
    A, b = P.ambient_halfspaces()
    d = batch.frames[:, :, 0]                     # (N, n)
    den = d @ A.T                                 # (N, F)
    num = b[None, :] - batch.points @ A.T
    tol = 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / den
    hi = np.min(np.where(den > tol, ratio, np.inf), axis=1)
    lo = np.max(np.where(den < -tol, ratio, -np.inf), axis=1)
    parallel_bad = np.any((np.abs(den) <= tol) & (num < 0), axis=1)
    feasible = (~parallel_bad) & (hi - lo > 0) & np.isfinite(hi) & np.isfinite(lo)
    return feasible, lo, hi, d


def _line_kernel(P, j, s, l, samples, seed, margin):
    """phi_j of line sections, vectorized.  A section is a segment of length
    L along d; its only 1-face has the full orthogonal complement d-perp as
    normal cone, whose sphere moment is c(n-1, s) Q(d-perp)^{s/2} (zero for
    odd s), so the face sum is L c(n-1, s) (Q - d^2)^{s/2} d^{2l}.  The
    j = 0 case (s = l = 0) is the Euler characteristic, 1 per nonempty
    section."""
    n = P.dim
    batch = sample_flats_hitting(P, 1, samples, seed=seed, margin=margin)
    feasible, lo, hi, d = _clip_lines(P, batch)
    if j == 0:
        values = SymTensor(n, 0, feasible.astype(float)[:, None])
    elif s % 2:
        values = SymTensor(n, s + 2 * l, np.zeros((samples, len(multi_degrees(n, s + 2 * l)))))
    else:
        L = np.where(feasible, hi - lo, 0.0)
        c_sphere = 2.0 * math.pi ** ((n - 2) / 2) * gamma_half((s + 1) / 2) / gamma_half((s + n - 1) / 2)
        perp = (metric_tensor(n) - vector_power(d, 2)).power(s // 2)
        values = (perp * vector_power(d, 2 * l)).scale(c_norm(n, 1, 0, s, l) / omega(n - 1) * c_sphere * L)
    est, err = _mean_and_stderr(values, batch.weight)
    return est, err, 0


# .. plane-section kernel (n = 3) ...........................................

def _plane_kernel_applies(P, k, j, r, region):
    return (P.dim == 3 and k == 2 and j == 1 and r == 0
            and region.is_universe and P.aff_dim == 3)


def _plane_kernel(P, s, l, samples, seed, margin):
    """phi_1 of plane sections of a 3-polytope, vectorized over samples.

    Each section is a polygon; its edges lie on the facet-plane traces.
    An edge inherits the facet's in-plane outward normal nu and the plane
    normal w; its normal cone is the half-plane {a nu + b w : a >= 0}, a
    ray plus a line, so the face sum is the edge length L times the
    product-cone moment times Q(edge)^l = e^{2l}.
    """
    A, b = P.ambient_halfspaces()
    F = len(b)
    batch = sample_flats_hitting(P, 2, samples, seed=seed, margin=margin)
    N = samples
    B = batch.frames                                  # (N, 3, 2)
    q = batch.points
    w = np.cross(B[:, :, 0], B[:, :, 1])              # (N, 3) plane normals
    g = np.einsum("fi,nij->nfj", A, B)                # (N, F, 2) in-plane normals
    h = b[None, :] - q @ A.T                          # (N, F)
    gn = np.linalg.norm(g, axis=2)                    # (N, F)
    live = gn > 1e-10

    pairs = [(i, jj) for i in range(F) for jj in range(i + 1, F)]
    P_ = len(pairs)
    i_idx = np.array([p[0] for p in pairs])
    j_idx = np.array([p[1] for p in pairs])
    g1, g2 = g[:, i_idx], g[:, j_idx]                 # (N, P, 2)
    h1, h2 = h[:, i_idx], h[:, j_idx]
    det = g1[..., 0] * g2[..., 1] - g1[..., 1] * g2[..., 0]
    ok = np.abs(det) > 1e-10 * np.maximum(gn[:, i_idx] * gn[:, j_idx], 1e-30)
    with np.errstate(divide="ignore", invalid="ignore"):
        vx = (h1 * g2[..., 1] - h2 * g1[..., 1]) / det
        vy = (g1[..., 0] * h2 - g2[..., 0] * h1) / det
    v = np.stack([vx, vy], axis=-1)                   # (N, P, 2)
    v = np.where(np.isfinite(v), v, 0.0)
    feas = ok & np.all(np.einsum("nfj,npj->nfp", g, v) - h[:, :, None] <= 1e-7, axis=1)   # (N, P)

    # edge lengths per facet: spread of feasible pair-vertices along the line
    e_dir = np.stack([-g[..., 1], g[..., 0]], axis=-1) / np.where(live, gn, 1.0)[..., None]
    tpar = np.einsum("nfj,npj->nfp", e_dir, v)        # (N, F, P)
    on_line = np.zeros((N, F, P_), dtype=bool)
    for pi, (fi, fj) in enumerate(pairs):
        on_line[:, fi, pi] = feas[:, pi]
        on_line[:, fj, pi] = feas[:, pi]
    tmax = np.max(np.where(on_line, tpar, -np.inf), axis=2)
    tmin = np.min(np.where(on_line, tpar, np.inf), axis=2)
    L = np.where(live & np.isfinite(tmax) & np.isfinite(tmin),
                 np.maximum(tmax - tmin, 0.0), 0.0)   # (N, F)

    nu = np.einsum("nij,nfj->nfi", B, g / np.where(live, gn, 1.0)[..., None])  # (N, F, 3)
    edir3 = np.einsum("nij,nfj->nfi", B, e_dir)                                # (N, F, 3)

    cones = _product_cone_moment(3, s, nu[..., None], w[:, None, :, None])      # (N, F)
    values = (cones * vector_power(edir3, 2 * l)).scale(L).sum(axis=1)
    est, err = _mean_and_stderr(values.scale(c_norm(3, 1, 0, s, l) / omega(2)), batch.weight)
    return est, err, 0


def crofton_verify(P, k, j, r=0, s=0, l=0, region=None, samples=10000, seed=0,
                   margin=0.5, budget=20000, force_generic=False):
    t0 = time.perf_counter()
    rhs, rhs_err = crofton_rhs(P, k, j, r, s, l, region=region, budget=budget, seed=seed)
    lhs, err, rej = crofton_lhs(P, k, j, r, s, l, region=region, samples=samples,
                                seed=seed, margin=margin, budget=budget,
                                force_generic=force_generic)
    return VerificationReport(
        theorem="crofton", params={"n": P.dim, "k": k, "j": j, "r": r, "s": s, "l": l},
        lhs=lhs, stderr=err, rhs=rhs, rhs_stderr=rhs_err,
        samples=samples, rejections=rej, wall_time=time.perf_counter() - t0,
        notes="polytope verification; statement for general convex bodies not covered")


# -- kinematic formula ------------------------------------------------------

def kinematic_lhs(P, P2, j, r=0, s=0, l=0, region=None, region2=None,
                  samples=10000, seed=0, margin=0.5, budget=20000,
                  force_generic=False):
    n = P.dim
    region = Region.universe() if region is None else region
    region2 = Region.universe() if region2 is None else region2
    if (not force_generic and n == 2 and j == 0 and l == 0 and r + s <= 4
            and region.is_universe and region2.is_universe):
        return _motion_kernel_2d(P, P2, r, s, samples, seed, margin)
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
        verts = _vertices_brute_force(np.vstack([A1, Ag]), np.concatenate([b1, b2 + Ag @ t]), P.tol)
        if len(verts) == 0:
            return None, None
        inter = Polytope.from_vertices(verts, P.tol)
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


def _motion_kernel_2d(P, P2, r, s, samples, seed, margin):
    """phi_0^{r,s,0} of random planar intersections, vectorized.

    Vertices of P cap gP2 come from constraint pairs of the stacked 2-d
    halfplane systems; the normal cone at a vertex is the arc between the
    two active outward normals (width < pi), so the face sum is the arc
    moment times v^r, summed over the feasible pairs.
    """
    A1, b1 = P.ambient_halfspaces()
    A2, b2 = P2.ambient_halfspaces()
    batch = sample_motions_coupling(P, P2, samples, seed=seed, margin=margin)
    N = samples
    rho, t = batch.rotations, batch.translations
    Ag = np.einsum("fi,nji->nfj", A2, rho)            # (N, F2, 2): A2 rho^T
    bg = b2[None, :] + np.einsum("nfj,nj->nf", Ag, t)
    A = np.concatenate([np.broadcast_to(A1, (N,) + A1.shape), Ag], axis=1)  # (N, F, 2)
    b = np.concatenate([np.broadcast_to(b1, (N,) + b1.shape), bg], axis=1)
    F = A.shape[1]
    norms = np.linalg.norm(A, axis=2)
    A = A / norms[..., None]
    b = b / norms

    pairs = [(i, jj) for i in range(F) for jj in range(i + 1, F)]
    i_idx = np.array([p[0] for p in pairs])
    j_idx = np.array([p[1] for p in pairs])
    a1, a2 = A[:, i_idx], A[:, j_idx]                 # (N, P, 2)
    h1, h2 = b[:, i_idx], b[:, j_idx]
    det = a1[..., 0] * a2[..., 1] - a1[..., 1] * a2[..., 0]
    ok = np.abs(det) > 1e-10
    with np.errstate(divide="ignore", invalid="ignore"):
        vx = (h1 * a2[..., 1] - h2 * a1[..., 1]) / det
        vy = (a1[..., 0] * h2 - a2[..., 0] * h1) / det
    v = np.stack([vx, vy], axis=-1)
    v = np.where(np.isfinite(v), v, 0.0)
    feas = ok & np.all(np.einsum("nfj,npj->nfp", A, v) - b[:, :, None] <= 1e-9, axis=1)   # (N, P)
    v = np.where(feas[..., None], v, 0.0)

    th1 = np.arctan2(a1[..., 1], a1[..., 0])
    th2 = np.arctan2(a2[..., 1], a2[..., 0])
    delta = np.mod(th2 - th1, 2.0 * math.pi)
    # arc runs counterclockwise from start over width < pi
    start = np.where(delta <= math.pi, th1, th2)
    width = np.where(delta <= math.pi, delta, 2.0 * math.pi - delta)
    end = np.where(feas, start + width, start)        # empty arcs at infeasible pairs

    arcs = _arc_moment(2, s, np.array([1.0, 0.0]), np.array([0.0, 1.0]), start, end)   # (N, P)
    values = (arcs * vector_power(v, r)).sum(axis=1)
    est, err = _mean_and_stderr(values.scale(c_norm(2, 0, r, s, 0) / omega(2)), batch.weight)
    return est, err, 0


def kinematic_verify(P, P2, j, r=0, s=0, l=0, region=None, region2=None,
                     samples=10000, seed=0, margin=0.5, budget=20000,
                     force_generic=False):
    t0 = time.perf_counter()
    rhs, rhs_err = kinematic_rhs(P, P2, j, r, s, l, region=region, region2=region2,
                                 budget=budget, seed=seed)
    lhs, err, rej = kinematic_lhs(P, P2, j, r, s, l, region=region, region2=region2,
                                  samples=samples, seed=seed, margin=margin,
                                  budget=budget, force_generic=force_generic)
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


def _point_segment_dist2(x, a, b):
    ab = b - a
    tt = np.clip(((x - a) @ ab) / (ab @ ab), 0.0, 1.0)
    d = x - (a + tt[:, None] * ab)
    return np.einsum("ij,ij->i", d, d)


def _point_triangle_dist2(x, a, b, c):
    """Squared distances from points x (N, 3) to triangle abc: project to
    the plane, clamp into the triangle via edge distances."""
    # distance to plane-clamped point; compare against all three edges
    e1, e2 = b - a, c - a
    nrm = np.cross(e1, e2)
    nn = nrm @ nrm
    if nn < 1e-24:
        return np.minimum(_point_segment_dist2(x, a, b),
                          np.minimum(_point_segment_dist2(x, a, c),
                                     _point_segment_dist2(x, b, c)))
    w = x - a
    g11, g12, g22 = e1 @ e1, e1 @ e2, e2 @ e2
    r1, r2 = w @ e1, w @ e2
    det = g11 * g22 - g12 * g12
    u = (g22 * r1 - g12 * r2) / det
    vv = (g11 * r2 - g12 * r1) / det
    inside = (u >= 0) & (vv >= 0) & (u + vv <= 1)
    proj = a + u[:, None] * e1 + vv[:, None] * e2
    d_in = x - proj
    d2 = np.einsum("ij,ij->i", d_in, d_in)
    edge = np.minimum(_point_segment_dist2(x, a, b),
                      np.minimum(_point_segment_dist2(x, a, c),
                                 _point_segment_dist2(x, b, c)))
    return np.where(inside, d2, edge)


def _dist2_to_polytope(P, x):
    """Squared distance from each row of x to P (n <= 3)."""
    inside = P.contains(x)
    d2 = np.full(len(x), np.inf)
    n = P.dim
    from .polytope import triangulate
    for f in range(len(P.b)):
        members = np.nonzero(P.incidence[:, f])[0]
        facet = Polytope.from_vertices(P.vertices[members], P.tol)
        for simp in triangulate(facet):
            if n == 2:
                d2 = np.minimum(d2, _point_segment_dist2(x, simp[0], simp[1]))
            elif n == 3:
                d2 = np.minimum(d2, _point_triangle_dist2(x, simp[0], simp[1], simp[2]))
            else:
                raise ValueError("distance supported for n in {2, 3}")
    return np.where(inside, 0.0, d2)


def steiner_check(P, eps_list, samples=10 ** 6, seed=0):
    """Monte-Carlo volume of the eps-parallel body against the polynomial
    in intrinsic volumes; n in {2, 3}."""
    n = P.dim
    vols = [kappa_ball(n - q) * tcm(P, q).tensor.value() for q in range(n + 1)]
    lo = P.vertices.min(axis=0)
    hi = P.vertices.max(axis=0)
    mc_vol, mc_se, exact = [], [], []
    for ei, eps in enumerate(eps_list):
        box_lo, box_hi = lo - eps, hi + eps
        box_vol = float(np.prod(box_hi - box_lo))
        hits = 0
        done = 0
        chunk = 200000
        bi = 0
        while done < samples:
            m = min(chunk, samples - done)
            rng = stream(seed, ei * 1024 + bi)
            bi += 1
            x = box_lo + (box_hi - box_lo) * rng.random((m, n))
            d2 = _dist2_to_polytope(P, x)
            hits += int(np.sum(d2 <= eps * eps))
            done += m
        frac = hits / samples
        mc_vol.append(frac * box_vol)
        mc_se.append(box_vol * math.sqrt(max(frac * (1 - frac), 0.0) / samples))
        exact.append(sum(vols[q] * eps ** (n - q) for q in range(n + 1)))
    return SteinerReport(list(eps_list), mc_vol, mc_se, exact)
