"""Monte-Carlo verification of the Crofton and kinematic identities.

Each verifier assembles the exact right-hand side from the coefficient
tables and the measures of the fixed polytope, estimates the left-hand
integral by sampling, and reports per-coordinate agreement against 3
standard errors (with an absolute floor for exact zeros).

The index alone picks one of two evaluators (`_face_sum`).  The face sum
draws rotations only: the integral over translations (x of the k-flats
L + x, t of the motions rho . + t) is a closed-form sum over pairs of
faces (`_face_pairs`).  It takes every index whose cones have a pointed
part of dimension d - j <= 2 (d = k for flats, n for motions): a ray or an
arc for `_cone_moment` and `conemoment._arc`.  The per-sample evaluator
(`_generic_lhs`) measures each sampled section with `tcm` under its
window: `intersect_flat` builds P cap E for a flat E, and a motion's
section is P's rows stacked with those of the moved body (`_flat_section`)
under the region cut by the moved region2.  It keeps the vertex cones that
can have three rays, Crofton (n, k, j) = (4, 3, 0) and motions in R^3 at
j = 0 and in R^4 at j <= 1, and is the face sum's reference.

What a pass proves.  Both sides take the face moments M_r(F cap beta)
from `face_moments`, so a face-sum pass tests the coefficients, the cone
moments and the pair weights, not the moments; those keep their own
oracle (Lasserre's recursion against `triangulate` and `simplex_moment`),
and the per-sample evaluator still checks everything end to end.

One error rule: a sample mean's stderr is its samples' spread; errors of
distinct streams add in quadrature (`tcm`'s faces, a report's two sides,
which never share a seed and purpose), and the rest linearly.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .coeffs import d_coeff
from .conemoment import _arc, _arc_ends, _cone_moment, _sample_mean
from .flats import (_BATCH, random_rotation, rotation_blocks, sample_flats_hitting,
                    sample_motions_coupling)
from .measures import _weight, tcm, valuation, MeasureIndex
from .polytope import (GeometryError, GrazingIntersectionError, Polytope, Region,
                       _flat_section, intersect_flat)
from .rng import purpose_key, stream
from .special import kappa_ball
from .symtensor import SymTensor, _product_table, metric_tensor, multi_degrees, vector_power

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
    evaluator: str = "per-sample"   # or "face-sum" (`_face_sum`)
    wall_time: float = 0.0
    notes: str = "polytope verification; statement for general convex bodies not covered"

    def coordinate_rows(self):
        lhs, rhs = self.lhs.coordinates_array().tolist(), self.rhs.coordinates_array().tolist()
        se = np.hypot(self.stderr.coordinates_array(), self.rhs_stderr.coordinates_array()).tolist()
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
            "evaluator": self.evaluator,
            "wall_time_s": float(self.wall_time),
            "notes": self.notes,
            "coordinates": [dict(r, index=list(r["index"])) for r in self.coordinate_rows()],
        }


# -- right-hand sides -------------------------------------------------------

def _check_orders(n, k, j, r, s, l, samples=1, proper=False):
    """ValueError for an index of sections by k-flats of R^n (k = n:
    motions) with no measure: r, s or l negative, j outside [0, k], k
    outside [0, n] ([1, n - 1] if `proper`), or l != 0 at j = 0; or for
    fewer than one sample.  Both sides and the verifiers check first."""
    if min(r, s, l) < 0:
        raise ValueError(f"need r, s, l >= 0, got r = {r}, s = {s}, l = {l}")
    if not 0 <= j <= k <= n or proper and not 1 <= k <= n - 1:
        raise ValueError(f"need 0 <= j <= k <= n{' - 1 and k >= 1' if proper else ''}, got {(n, j, k)}")
    if j == 0 and l != 0:
        raise ValueError("j = 0 requires l = 0")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")


def crofton_rhs(P, k, j, r=0, s=0, l=0, region=None, budget=20000, seed=0):
    """Exact right-hand side of the Crofton identity for sections by
    k-flats, as (tensor, stderr tensor): the sum over 0 <= i <= m <= s/2 of
    d_{n,j,k}^{s,l,i,m} Q^{m-i} phi_{n-k+j}^{r,s-2m,l+i}(P, region).  At
    j = k, d_coeff is the redefined coefficient, nonzero only at
    i = m = s/2, so the sum is the single top-measure term.  Errors add
    linearly: terms of different s reuse the same faces' cone draws."""
    n = P.dim
    _check_orders(n, k, j, r, s, l)
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
    a term contributes c t with stderr e (|c| + c_err) + |t| c_err, added
    linearly: faces of P and P2 with equal vertex indices share a stream."""
    n = P.dim
    if P2.dim != n:
        raise ValueError(f"the bodies lie in R^{n} and R^{P2.dim}")
    _check_orders(n, n, j, r, s, l)
    total = err = SymTensor.zero(n, r + s + 2 * l)
    for k in range(n, j - 1, -1):
        t, e = crofton_rhs(P, k, j, r, s, l, region=region, budget=budget, seed=seed)
        c2 = tcm(P2, k, region=region2, budget=budget, seed=seed)
        c, c_err = c2.tensor.value(), c2.stderr.value()
        total = total.add_scaled(t, c)
        err = err.add_scaled(e, abs(c) + c_err).add_scaled(abs(t), c_err)
    return total, err


# -- estimator core ---------------------------------------------------------

def _mean_and_stderr(values, weight):
    """Mean over the sample axis of weight * values and its standard error
    per coordinate: the spread, which holds each sample's own cone errors."""
    coords = weight * values.coordinates_array()
    return _sample_mean(values.dim, values.rank, coords.sum(axis=0), (coords ** 2).sum(axis=0),
                        len(coords))


def _generic_lhs(n, j, r, s, l, sections, weight, budget, seed):
    """Per-sample evaluator: `sections` holds, per sample, a builder of its
    section (`intersect_flat` or `_flat_section`: a Polytope, or None when
    empty) and the section's window.  Each section is measured by `tcm`
    under its window, with sample i's sampled cones on
    seed ^ ((i + 1) << 32).  A grazing section (the builder raises
    GrazingIntersectionError) scores zero and counts as a rejection.
    Returns (estimate, stderr: the spread, rejections)."""
    rank = r + s + 2 * l
    values = np.zeros((len(sections), len(multi_degrees(n, rank))))
    rejections = 0
    for i, (build, window) in enumerate(sections):
        try:
            sec = build()
        except GrazingIntersectionError:
            rejections += 1
            continue
        if sec is not None:
            values[i] = tcm(sec, j, r, s, l, region=window, budget=budget,
                            seed=seed ^ ((i + 1) << 32)).tensor.data
    return _mean_and_stderr(SymTensor(n, rank, values), weight) + (rejections,)


# -- the face sum -------------------------------------------------------------

def _face_sum(d, j):
    """Whether phi_j on d-dimensional sections (d = k for k-flats, n for
    motions) takes the face sum: its cones' pointed parts, of dimension
    d - j, are rays or arcs."""
    return d - j <= 2


def _volume(v):
    """The volume spanned by the rows of v (..., q, n)."""
    return np.sqrt(np.maximum(np.linalg.det(v @ np.swapaxes(v, -1, -2)), 0.0))


def _facets(P, a):
    """For each a-face of P, the indices (F, n - a) of the facets on it,
    whose unit normals are the rays of its normal cone."""
    tight = P._face_lattice()[a].tight
    if np.any(tight.sum(axis=1) != P.dim - a):
        raise GeometryError(f"a face of dimension {a} lies on a number of facets other than {P.dim - a}")
    return np.nonzero(tight)[1].reshape(len(tight), -1)


def _sectors(s, rays):
    """The rank-s moments (..., c) of the planar sectors from angle 0 to
    the angles of the rays (..., 2), or to 2 pi."""
    t = 2.0 * math.pi if rays is None else np.arctan2(rays[..., 1], rays[..., 0])
    return _cone_moment(2, s, np.zeros((2, 0)), np.zeros((2, 0)), (*np.eye(2), _arc_ends(0.0, t))).data


def _pointed(n, s, l, rays, W, sectors):
    """For q <= 2 rays, each (..., n) and broadcasting to the batch,
    orthogonal to the orthonormal columns of W (..., n, w), and unit where
    there is no W: the volume they span, the moment M_s of the cone
    pos(rays) + span(W) (`_cone_moment` for no ray, the cone {0} of the top
    measure included, or one; `_arc` for two), and at l > 0 the projector
    onto the cone's span.  An arc in R^2 is the difference of its rays'
    `sectors`, plus a full turn where it crosses the angle pi."""
    volume = 1.0
    if W.shape[-1]:
        length = [np.linalg.norm(x, axis=-1) for x in rays]
        rays = [x / np.where(t > 0, t, 1.0)[..., None] for x, t in zip(rays, length)]
        volume = functools.reduce(operator.mul, length, volume)
    frame = rays
    if len(rays) < 2:
        cone = _cone_moment(n, s, np.stack(rays, axis=-1) if rays else np.zeros((n, 0)), W)
    elif n == 2:
        (a, b), (start, end), frame = rays, sectors, list(np.eye(2))
        cos = a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
        sin = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
        delta = np.arctan2(sin, cos)                                    # from a to b, in (-pi, pi]
        turns = np.round((np.arctan2(a[..., 1], a[..., 0]) + delta - np.arctan2(b[..., 1], b[..., 0]))
                         / (2.0 * math.pi))
        cone = SymTensor(2, s, (end - start + turns[..., None] * _sectors(s, None))
                         * np.sign(delta)[..., None])
        volume = volume * np.abs(sin)
    else:
        cone, _, sin, frame = _arc(n, s, *rays, W)
        volume = volume * sin
    if not l:
        return volume, cone, None
    span = sum(vector_power(x, 2).data for x in frame) \
        + vector_power(np.swapaxes(W, -1, -2), 2).data.sum(axis=-2)
    return volume, cone, SymTensor(n, 2, span)


def _face_pairs(n, k, j, r, s, l, bodies, levels):
    """The integrand of the face sum: for rotations rho (m, n, n), the
    integral over translations of phi_j^{r,s,l} of the sections, per
    rotation (m, c), in closed form (Schneider & Weil 2008, ch. 6): the sum
    over pairs of faces F of P and G of
    c / omega_{n-j} [F, G] w(G) M_r(F cap beta) Q(S)^l M_s(N(P, F) + N(G)).
    S = F cap G is the sections' face; Q(S) is Q less the projector onto
    the cone's span; [F, G], the volume spanned by orthonormal frames of
    the two normal spaces, is the volume of all the cone's rays over those
    of F's and of G's.

    `bodies` are P and the body rho moves (None for flats); `levels`
    holds, per pair of face levels, the moments M_r(F cap beta)
    (F, c_r) and facet indices (F, q) of P's faces, and the weights w (G,)
    and facet indices (G, q') of the moved faces, q + q' <= 2.  Every G has
    W = rho[:, :, k:] in its normal space: for k-flats L + x, G is L itself,
    with w = 1 and no facets, and P's normals are projected onto L; motions
    have k = n, no W.  At j = n the cone is {0} and the constant that of
    `tcm`'s top measure."""
    rank = r + s + 2 * l
    const = _weight(n, j, r, s, l)
    table = _product_table(n, r, s + 2 * l)
    N, N2 = [np.zeros((0, n)) if B is None else B.ambient_halfspaces()[0] for B in bodies]
    N, N2 = [A / np.linalg.norm(A, axis=1, keepdims=True) for A in (N, N2)]   # unit facet normals
    # planar arcs take each normal's sector once per rotation
    mine = _sectors(s, N) if n == 2 and k - j == 2 else None

    def terms(turn, moved, sectors, M, R, w, R2):
        """One level pair's sum (m, c) for the rotations turn (m, n, n), the
        moved normals (m, f', n) and their sectors."""
        W = turn[:, :, k:]
        own = N if k == n else N - (N @ W) @ np.swapaxes(W, 1, 2)    # P's rays, or their parts in L

        def per_ray(first, second):     # rows of P's rays at (..., F, 1), the moved ones at (m, 1, G)
            return [first[..., R[:, i], None, :] for i in range(R.shape[1])] \
                + [second[:, None, R2[:, i]] for i in range(R2.shape[1])]
        volume, cone, span = _pointed(n, s, l, per_ray(own, moved), W[:, None, None],
                                      None if mine is None else per_ray(mine, sectors))
        if l:
            cone = (metric_tensor(n) - span).power(l) * cone
        weight = volume / (_volume(N[R])[:, None] * _volume(N2[R2])) * w
        summed = cone.scale(np.broadcast_to(weight, (len(turn), len(R), len(R2)))).data.sum(axis=2)
        return (M.T @ summed).reshape(len(turn), -1) @ table

    # faces the windows miss add nothing
    levels = [(M.data[M.data.any(axis=1)], R[M.data.any(axis=1)], w[w != 0], R2[w != 0])
              for M, R, w, R2 in levels]

    def integrand(rho):
        out = np.zeros((len(rho), len(multi_degrees(n, rank))))
        moved = N2 @ np.swapaxes(rho, 1, 2)
        sectors = None if mine is None else _sectors(s, moved)
        for level in levels:
            size = max(1, 8 * _BATCH // max(len(level[1]) * len(level[3]), 1))
            for at in range(0, len(rho), size):
                block = slice(at, at + size)
                out[block] += terms(rho[block], moved[block],
                                    None if sectors is None else sectors[block], *level)
        return const * out
    return integrand


def _face_sum_lhs(n, rank, samples, seed, integrand):
    """The mean of the integrand over the samplers' rotations
    (`rotation_blocks`), its standard error, and no rejections."""
    values = np.empty((samples, len(multi_degrees(n, rank))))
    for at, rho, _ in rotation_blocks(n, samples, seed):
        values[at:at + len(rho)] = integrand(rho)
    return _mean_and_stderr(SymTensor(n, rank, values), 1.0) + (0,)


# -- left-hand sides ---------------------------------------------------------

def _crofton_pairs(P, k, j, r, s, l, region=None):
    """`_face_pairs` for k-flats (the whole space at k = n): P's faces of
    dimension n - k + j."""
    a = P.dim - k + j
    return _face_pairs(P.dim, k, j, r, s, l, (P, None), [
        (P.face_moments(a, r, region), _facets(P, a), np.ones(1), np.zeros((1, 0), dtype=int))])


def crofton_lhs(P, k, j, r=0, s=0, l=0, region=None, samples=10000, seed=0, budget=20000):
    """Monte-Carlo estimate of the integral of phi_j^{r,s,l}(P cap E, region)
    over k-flats; returns (tensor, stderr, rejections)."""
    n = P.dim
    _check_orders(n, k, j, r, s, l, samples, proper=True)
    if _face_sum(k, j):
        return _face_sum_lhs(n, r + s + 2 * l, samples, seed, _crofton_pairs(P, k, j, r, s, l, region))
    batch = sample_flats_hitting(P, k, samples, seed=seed)
    sections = [(functools.partial(intersect_flat, P, B, q), region)
                for B, q in zip(batch.frames, batch.points)]
    return _generic_lhs(n, j, r, s, l, sections, batch.weight, budget, seed)


def crofton_verify(P, k, j, r=0, s=0, l=0, region=None, samples=10000, seed=0, budget=20000):
    t0 = time.perf_counter()
    _check_orders(P.dim, k, j, r, s, l, samples, proper=True)
    rhs, rhs_err = crofton_rhs(P, k, j, r, s, l, region=region, budget=budget, seed=seed)
    lhs, err, rej = crofton_lhs(P, k, j, r, s, l, region=region, samples=samples,
                                seed=seed, budget=budget)
    return VerificationReport(
        theorem="crofton", params={"n": P.dim, "k": k, "j": j, "r": r, "s": s, "l": l},
        lhs=lhs, stderr=err, rhs=rhs, rhs_stderr=rhs_err, samples=samples, rejections=rej,
        evaluator="face-sum" if _face_sum(k, j) else "per-sample", wall_time=time.perf_counter() - t0)


# -- kinematic formula ------------------------------------------------------

def _kinematic_pairs(P, P2, j, r, s, l, region=None, region2=None):
    """`_face_pairs` for motions: the a-faces F of P against the
    (n + j - a)-faces F' of P2, weighted by H(F' cap region2)."""
    n = P.dim
    return _face_pairs(n, n, j, r, s, l, (P, P2), [
        (P.face_moments(a, r, region), _facets(P, a),
         P2.face_moments(n + j - a, 0, region2).data[:, 0], _facets(P2, n + j - a))
        for a in range(j, n + 1)])


def kinematic_lhs(P, P2, j, r=0, s=0, l=0, region=None, region2=None,
                  samples=10000, seed=0, budget=20000):
    """Monte-Carlo estimate of the integral of phi_j^{r,s,l}(P cap gP2,
    region cap g region2) over rigid motions g; returns (tensor, stderr,
    rejections)."""
    n = P.dim
    if P2.dim != n:
        raise ValueError(f"the bodies lie in R^{n} and R^{P2.dim}")
    _check_orders(n, n, j, r, s, l, samples)
    if _face_sum(n, j):
        return _face_sum_lhs(n, r + s + 2 * l, samples, seed,
                             _kinematic_pairs(P, P2, j, r, s, l, region, region2))
    (A1, b1), (A2, b2) = P.ambient_halfspaces(), P2.ambient_halfspaces()
    batch = sample_motions_coupling(P, P2, samples, seed=seed)

    def section(rho, t):        # P's rows stacked with those of rho P2 + t
        Ag = A2 @ rho.T
        return _flat_section(np.vstack([A1, Ag]), np.concatenate([b1, b2 + Ag @ t]),
                             np.zeros(n), np.eye(n))

    def window(rho, t):         # region cap (rho region2 + t), None for a missing side
        moved = None if region2 is None else region2.transformed(rho, t)
        return moved if region is None else region if moved is None else region.intersect(moved)
    sections = [(functools.partial(section, rho, t), window(rho, t))
                for rho, t in zip(batch.rotations, batch.translations)]
    return _generic_lhs(n, j, r, s, l, sections, batch.weight, budget, seed)


def kinematic_verify(P, P2, j, r=0, s=0, l=0, region=None, region2=None,
                     samples=10000, seed=0, budget=20000):
    t0 = time.perf_counter()
    _check_orders(P.dim, P.dim, j, r, s, l, samples)   # kinematic_rhs checks the bodies first
    rhs, rhs_err = kinematic_rhs(P, P2, j, r, s, l, region=region, region2=region2,
                                 budget=budget, seed=seed)
    lhs, err, rej = kinematic_lhs(P, P2, j, r, s, l, region=region, region2=region2,
                                  samples=samples, seed=seed, budget=budget)
    return VerificationReport(
        theorem="kinematic", params={"n": P.dim, "j": j, "r": r, "s": s, "l": l},
        lhs=lhs, stderr=err, rhs=rhs, rhs_stderr=rhs_err, samples=samples, rejections=rej,
        evaluator="face-sum" if _face_sum(P.dim, j) else "per-sample", wall_time=time.perf_counter() - t0)


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
