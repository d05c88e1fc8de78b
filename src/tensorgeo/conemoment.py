"""Spherical moment tensors of normal cones.

For a cone N with lin(N) of dimension d, computes the rank-s tensor with
polynomial y -> integral of <u, y>^s over N intersected with the unit
sphere, with respect to H^{d-1}.

The cone carries its unit rays and its lineality space W; the rays span
a pointed part C of dimension lin_dim - dim W.
Exact paths cover: full subspaces, rays (+ W, i.e. half-subspaces),
pointed cones with pairwise orthogonal rays (+ W), planar arcs,
and arcs crossed with a line (spherical lunes).  Everything else falls
back to Monte-Carlo sampling on the sphere of lin(N) filtered by the
cone's membership oracle, with per-coordinate standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import purpose_key, stream
from .special import gamma_half, omega
from .symtensor import SymTensor, multi_degrees, multinomial, vector_power

__all__ = ["MomentResult", "ConeMomentBudgetError", "cone_sphere_moment", "trig_integral"]

_RATE_FLOOR = 1e-4   # sampled cones accepting fewer directions than this raise


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


def trig_integral(p, q, t1, t2):
    """Definite integral of cos^p(t) sin^q(t) over [t1, t2], by the standard
    power-reduction recurrence.  Accepts scalars or numpy arrays for the
    endpoints."""
    return _trig_recurrence(p, q, *_arc_ends(t1, t2))


def _arc_ends(t1, t2):
    """`_trig_recurrence`'s endpoint arguments, shared by all integrals on an arc."""
    return t1, t2, np.cos(t1), np.sin(t1), np.cos(t2), np.sin(t2)


def _trig_recurrence(p, q, t1, t2, c1, s1, c2, s2):
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


def _product_cone_moment(n, s, ray_frame, sub_frame):
    """Moment over the cone {sum a_i r_i + w : a_i >= 0, w in W} with the
    r_i pairwise orthonormal and orthogonal to W.  The intersection with
    the sphere is an 'orthant' in the orthonormal frame [r_1..r_q, W], so
    the integral of a monomial c^a is 2^{1-q} prod Gamma((a_i+1)/2) /
    Gamma((s+d)/2), vanishing when a W-exponent is odd.  The frames are
    (..., n, q) and (..., n, w); leading axes broadcast into the batch."""
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


def _arc_moment(n, s, pa, pb, ends):
    """Moment over the planar arc {cos t pa + sin t pb : t in [t1, t2]},
    with ends = _arc_ends(t1, t2); pa, pb (..., n) and the angles
    broadcast into the batch."""
    out = vector_power(pb, s).scale(_trig_recurrence(0, s, *ends))
    for i in range(1, s + 1):
        c = math.comb(s, i) * _trig_recurrence(i, s - i, *ends)
        out = out + (vector_power(pa, i) * vector_power(pb, s - i)).scale(c)
    return out


_HALF_TURN = _arc_ends(-math.pi / 2, math.pi / 2)


def _lune_moment(n, s, pa, pb, ends, w):
    """Moment over (arc in span{pa, pb}) + span{w}: parametrize
    u = cos(phi) v(theta) + sin(phi) w with phi in (-pi/2, pi/2) and area
    element cos(phi) dphi dtheta."""
    out = SymTensor.zero(n, s)
    for i in range(s + 1):
        phi = float(_trig_recurrence(i + 1, s - i, *_HALF_TURN))
        if phi == 0.0:
            continue
        arc = _arc_moment(n, i, pa, pb, ends)
        out = out + (arc * vector_power(w, s - i)).scale(math.comb(s, i) * phi)
    return out


def cone_sphere_moment(cone, s, budget=20000, seed=0):
    """Rank-s spherical moment tensor of a normal cone; exact whenever one
    of the closed-form geometries applies, Monte-Carlo otherwise."""
    n = cone.lin_frame.shape[0]
    zero = SymTensor.zero(n, s)
    if cone.lin_dim == 0:
        return MomentResult(zero, zero, "empty", 0)
    rays, W = cone.rays, cone.lineality
    wdim = W.shape[1]
    dc = cone.lin_dim - wdim

    if dc == 0:
        return MomentResult(_product_cone_moment(n, s, np.zeros((n, 0)), cone.lin_frame),
                            zero, "full-sphere", 0)
    if dc == 1:
        ray = rays[0][:, None]
        method = "point" if wdim == 0 else "product"
        return MomentResult(_product_cone_moment(n, s, ray, W), zero, method, 0)
    ortho = (len(rays) == dc
             and np.max(np.abs(rays @ rays.T - np.eye(dc))) <= 1e-8)
    if ortho:
        return MomentResult(_product_cone_moment(n, s, rays.T, W), zero, "product", 0)
    if dc == 2 and wdim <= 1:
        mean = rays.sum(axis=0)
        mean /= np.linalg.norm(mean)
        u, svv, _ = np.linalg.svd(rays.T, full_matrices=False)
        plane = u[:, :2]
        pa = mean
        pb = plane @ np.array([-(plane.T @ mean)[1], (plane.T @ mean)[0]])
        # pb: rotate pa by +90 degrees inside the plane
        pb = pb / np.linalg.norm(pb)
        rel = np.arctan2(rays @ pb, rays @ pa)
        t1, t2 = float(np.min(rel)), float(np.max(rel))
        if t2 - t1 >= math.pi - 1e-9:
            # boundary rays nearly antipodal; leave it to the sampler
            return _monte_carlo_moment(cone, s, budget, seed)
        ends = _arc_ends(t1, t2)
        if wdim == 0:
            return MomentResult(_arc_moment(n, s, pa, pb, ends), zero, "arc", 0)
        return MomentResult(_lune_moment(n, s, pa, pb, ends, W[:, 0]), zero, "arc", 0)
    return _monte_carlo_moment(cone, s, budget, seed)


def _monte_carlo_moment(cone, s, budget, seed, batch=20000):
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
        m = min(batch, (budget if total < budget else round(1 / _RATE_FLOOR)) - total)
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
    mean = sums / total
    var = np.maximum(sq_sums / total - mean ** 2, 0.0)
    se = np.sqrt(var / total)
    result = MomentResult(SymTensor.from_coordinates(n, s, mean),
                          SymTensor.from_coordinates(n, s, se), "monte-carlo", total)
    if accepted < _RATE_FLOOR * total:
        raise ConeMomentBudgetError(
            f"acceptance rate {accepted}/{total} below {_RATE_FLOOR} with budget exhausted", result)
    return result
