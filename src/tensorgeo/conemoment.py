"""Spherical moment tensors of normal cones.

For a cone N with lin(N) of dimension d, computes the rank-s tensor with
polynomial y -> integral of <u, y>^s over N intersected with the unit
sphere, with respect to H^{d-1}.

The cone carries its unit rays and its lineality space W; the rays span
a pointed part C of dimension lin_dim - dim W.  Full subspaces, rays,
pointed cones with pairwise orthogonal rays and planar arcs, each plus W,
are orthogonal sums with one closed form (`_cone_moment`).  One classifier,
`_closed_forms`, sorts a batch of cones (a face level of a body, or one
cone) into these kinds and evaluates each kind in one array call.  An arc,
the pointed part of a cone of exactly two rays, has one kernel, `_arc`, in
the mean-ray form, which the face sum of `verify` shares.  The rest fall
back to Monte-Carlo sampling on the sphere of lin(N), filtered by the
cone's membership oracle, with per-coordinate standard errors.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .polytope import SLACK
from .rng import purpose_key, stream
from .special import gamma_half, omega
from .symtensor import DIRECTION_TOL, SymTensor, multi_degrees, vector_power

__all__ = ["MomentResult", "ConeMomentBudgetError", "cone_sphere_moment"]

_RATE_FLOOR = 1e-4   # sampled cones accepting fewer directions than this raise
_MC_BATCH = 20000    # directions drawn per stream
# An arc delta short of a half turn takes its mean ray from a sum of length
# about delta, whose direction errs by about eps / delta out of the arc's
# plane, and so does its closed form (1.3 eps / delta relative in R^3 and
# R^4).  Arcs closer to a half turn than eps / SLACK, where that error
# would pass the relative error SLACK that lengths carry, go to the sampler.
_ARC_GAP = float(np.finfo(float).eps) / SLACK


class ConeMomentBudgetError(RuntimeError):
    """Monte-Carlo acceptance rate collapsed; carries the partial result."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class MomentResult:
    tensor: SymTensor
    stderr: SymTensor
    method: str
    samples: int


def _arc_ends(t1, t2):
    """`_trig_recurrence`'s endpoint arguments, shared by all integrals on an arc."""
    return t1, t2, np.cos(t1), np.sin(t1), np.cos(t2), np.sin(t2)


def _trig_recurrence(p, q, t1, t2, c1, s1, c2, s2):
    """Integral of cos^p(t) sin^q(t) over [t1, t2], given c1, s1, c2, s2 at its ends."""
    if p >= 2:
        term = (c2 ** (p - 1) * s2 ** (q + 1) - c1 ** (p - 1) * s1 ** (q + 1)) / (p + q)
        return term + (p - 1) / (p + q) * _trig_recurrence(p - 2, q, t1, t2, c1, s1, c2, s2)
    if p == 1:
        return (s2 ** (q + 1) - s1 ** (q + 1)) / (q + 1)
    if q >= 2:
        term = (-c2 * s2 ** (q - 1) + c1 * s1 ** (q - 1)) / q
        return term + (q - 1) / q * _trig_recurrence(0, q - 2, t1, t2, c1, s1, c2, s2)
    if q == 1:
        return -(c2 - c1)
    return t2 - t1


def _arc_moment(n, s, pa, pb, ends):
    """Moment over the planar arc {cos t pa + sin t pb : t in [t1, t2]},
    with ends = _arc_ends(t1, t2); pa, pb (..., n) and the angles
    broadcast into the batch."""
    out = vector_power(pb, s).scale(_trig_recurrence(0, s, *ends))
    for i in range(1, s + 1):
        c = math.comb(s, i) * _trig_recurrence(i, s - i, *ends)
        out = out + (vector_power(pa, i) * vector_power(pb, s - i)).scale(c)
    return out


def _cone_moment(n, s, rays, W, arc=None):
    """Rank-s moment of the orthogonal sum C of the half-lines along the
    unit columns of rays (..., n, q), the lines along the orthonormal
    columns of W (..., n, w) and at most one sector over the arc
    (pa, pb, ends) of `_arc_moment`; leading axes broadcast into the batch.
    The Gaussian moment G_a(C)(y) = int_C <x, y>^a exp(-|x|^2 / 2) dx is the
    binomial convolution of the parts': 2^{(a-1)/2} Gamma((a+1)/2) r^a for
    a half-line along r, twice that at even a (zero at odd a) for a line,
    and 2^{a/2} Gamma(a/2 + 1) times the arc moment for the sector; and
    G_s(C) = 2^{(s+d)/2-1} Gamma((s+d)/2) M_s(C) for C of dimension d >= 1.
    The last part enters at degree s only; degree-0 moments stay numbers."""
    half = [2.0 ** ((a - 1) / 2) * gamma_half((a + 1) / 2) for a in range(s + 1)]

    def line(v, whole):     # a half-line along v, or the whole line
        return lambda a: (None if whole and a % 2
                          else (1 + whole) * half[a] * (vector_power(v, a) if a else 1.0))

    def sector(a):          # the arc's length t2 - t1 at a = 0
        moment = _arc_moment(n, a, *arc) if a else arc[2][1] - arc[2][0]
        return 2.0 ** (a / 2) * gamma_half(a / 2 + 1) * moment

    parts = [line(rays[..., i], False) for i in range(rays.shape[-1])]
    parts += [line(W[..., i], True) for i in range(W.shape[-1])]
    if arc is not None:
        parts.append(sector)
    acc = [1.0] + [None] * s            # the moments of the cone {0}
    for k, part in enumerate(map(functools.cache, parts)):
        new = [None] * (s + 1)
        for a in [s] if k == len(parts) - 1 else range(s + 1):
            terms = [math.comb(a, b) * acc[a - b] * part(b) for b in range(a + 1)
                     if acc[a - b] is not None and part(b) is not None]
            new[a] = functools.reduce(operator.add, terms) if terms else None
        acc = new
    d = len(parts) + (arc is not None)  # the sector spans two dimensions
    norm = 2.0 ** ((s + d) / 2 - 1) * gamma_half((s + d) / 2)
    if acc[s] is None:
        return SymTensor.zero(n, s)
    if s == 0:                          # a number, or an array over the batch
        return SymTensor(n, 0, np.asarray(acc[0] / norm)[..., None])
    return acc[s].scale(1.0 / norm)


def _arc(n, s, a, b, W):
    """The rank-s moment of pos(a, b) + span(W) for unit rays a, b (..., n)
    orthogonal to the orthonormal columns of W (..., n, w), leading axes
    broadcasting into the batch, in the mean-ray form: the arc runs over
    [-h, h] from pa = (a + b) / |a + b| towards pb = (b - a) / |b - a|,
    orthogonal to pa, with h = atan2(|b - a|, |a + b|).  Returns the moment,
    the angle 2 h between the rays, its sine |a + b| |b - a| / 2 and the
    frame (pa, pb) of their plane; a zero sum or difference leaves its
    frame vector zero."""
    plus, minus = a + b, b - a
    lp, lm = np.linalg.norm(plus, axis=-1), np.linalg.norm(minus, axis=-1)
    pa, pb = (v / np.where(x > 0, x, 1.0)[..., None] for v, x in ((plus, lp), (minus, lm)))
    half = np.arctan2(lm, lp)
    moment = _cone_moment(n, s, np.zeros((n, 0)), W, (pa, pb, _arc_ends(-half, half)))
    return moment, 2.0 * half, lp * lm / 2.0, (pa, pb)


def _closed_forms(s, rays, W):
    """Rank-s moments of the cones {sum_i a_i rays_i + W c : a_i >= 0}, rays
    (F, q, n) padded with zero rows and W (n, w) common to all, and each
    cone's method.  The kind tests run on the stacked rays; each kind with
    a closed form is one array call, the rest are zero rows "monte-carlo";
    the cone {0} ("empty") has moment 1 at s = 0."""
    (F, q, n), w = rays.shape, W.shape[1]
    out, method = np.zeros((F, len(multi_degrees(n, s)))), np.full(F, "monte-carlo", dtype=object)
    valid = np.any(rays != 0.0, axis=2)
    sv = np.linalg.svd(np.swapaxes(rays, 1, 2), compute_uv=False)
    dc = np.sum(sv > DIRECTION_TOL, axis=1)     # the dimension of the pointed part
    gram = rays @ np.swapaxes(rays, 1, 2) - np.eye(q) * valid[:, None, :]
    orthonormal = (valid.sum(axis=1) == dc) & (np.abs(gram).max(axis=(1, 2), initial=0.0) <= DIRECTION_TOL)
    ortho = (dc <= 1) | orthonormal                    # products of the first dc rays
    method[dc + w == 0] = "empty"
    out[dc + w == 0] = s == 0
    for k in np.unique(dc[ortho & (dc + w > 0)]):
        at = ortho & (dc == k)
        method[at] = "full-sphere" if k == 0 else "point" if k == 1 and w == 0 else "product"
        out[at] = _cone_moment(n, s, np.swapaxes(rays[at, :k], 1, 2), W).data
    at = np.flatnonzero(~ortho & (dc == 2) & (valid.sum(axis=1) == 2))
    if len(at):
        moment, angle, _, _ = _arc(n, s, rays[at, 0], rays[at, 1], W)
        keep = angle < math.pi - _ARC_GAP
        method[at[keep]] = "arc"
        out[at[keep]] = moment.data[keep]
    return out, method


def cone_sphere_moment(cone, s, budget=20000, seed=0):
    """Rank-s spherical moment tensor of a normal cone; exact whenever one
    of the closed-form geometries applies (`_closed_forms` on a batch of
    one), Monte-Carlo otherwise; the cone {0} has moment 1 at s = 0."""
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    n = cone.lin_frame.shape[0]
    moment, method = _closed_forms(s, cone.rays[None], cone.lineality)
    if method[0] == "monte-carlo":
        return _monte_carlo_moment(cone, s, budget, seed)
    return MomentResult(SymTensor(n, s, moment[0]), SymTensor.zero(n, s), method[0], 0)


def _sample_mean(n, s, sums, sq_sums, count):
    """The mean of `count` rank-s samples from their coordinates' sums and
    sums of squares, and its standard error: the samples' spread."""
    mean = sums / count
    se = np.sqrt(np.maximum(sq_sums / count - mean ** 2, 0.0) / count)
    return SymTensor.from_coordinates(n, s, mean), SymTensor.from_coordinates(n, s, se)


def _monte_carlo_moment(cone, s, budget, seed):
    n = cone.lin_frame.shape[0]
    d = cone.lin_dim
    area = omega(d)
    sums = sq_sums = np.zeros(len(multi_degrees(n, s)))
    total = 0
    accepted = 0
    batch_idx = 0
    purpose = purpose_key("cone-moment", cone.face_key)
    # a cone that none of the budget's directions hit is sampled on until one
    # does or 1 / _RATE_FLOOR directions put its rate below the floor: no hit
    # gives a zero standard error, which would claim an exact zero
    while total < budget or (not accepted and total < 1 / _RATE_FLOOR):
        m = min(_MC_BATCH, (budget if total < budget else round(1 / _RATE_FLOOR)) - total)
        rng = stream(seed, batch_idx, purpose)
        batch_idx += 1
        z = rng.standard_normal((m, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        u = z @ cone.lin_frame.T
        ua = u[cone.contains(u)]
        accepted += len(ua)
        vals = area * vector_power(ua, s).coordinates_array()
        sums = sums + vals.sum(axis=0)
        sq_sums = sq_sums + (vals ** 2).sum(axis=0)
        total += m
    result = MomentResult(*_sample_mean(n, s, sums, sq_sums, total), "monte-carlo", total)
    if accepted < _RATE_FLOOR * total:
        raise ConeMomentBudgetError(
            f"acceptance rate {accepted}/{total} below {_RATE_FLOOR} with budget exhausted", result)
    return result
