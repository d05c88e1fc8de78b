"""Generalized tensorial curvature measures of polytopes.

The core evaluator follows the face-sum definition: a weight
c / omega_{n-j} times the sum over j-faces of Q(F)^l, the exact monomial
moment of the face clipped to the window, and the spherical moment of
the face's normal cone.  Face moments come from the body's cached face
lattice and window clip (`Polytope.face_moments`).  The top index j = n
is the volume case.  Both constant factors are kept literally (they
cancel for 0 < j < n) so the j = 0 and j = n special constants need no
separate code path.

Lower-dimensional polytopes (flat sections) evaluate through the same
face sum: their top face is the polytope itself, whose normal cone is
the full orthogonal complement of the affine hull.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import c_norm
from .conemoment import cone_sphere_moment
from .polytope import Region, polytope_moment
from .special import omega
from .symtensor import SymTensor, metric_tensor, subspace_metric_tensor

__all__ = [
    "MeasureIndex",
    "MeasureValue",
    "tcm",
    "valuation",
    "curvature_measure",
    "intrinsic_volume",
    "tcm_relation_check",
]


@dataclass(frozen=True)
class MeasureIndex:
    """Identifies the valuation Q^m phi_j^{r,s,l}."""

    j: int
    r: int = 0
    s: int = 0
    l: int = 0
    m: int = 0

    @property
    def rank(self):
        return self.r + self.s + 2 * self.l + 2 * self.m


@dataclass(frozen=True)
class MeasureValue:
    tensor: SymTensor
    stderr: SymTensor
    face_count: int
    mc_samples: int

    @property
    def exact(self):
        return not self.stderr.data.any()


def tcm(P, j, r=0, s=0, l=0, region=None, budget=20000, seed=0):
    """The measure phi_j^{r,s,l}(P, region) as a rank r+s+2l tensor.

    Out-of-range indices return the zero tensor (the measures are
    extended by zero); j = n requires s = 0.
    """
    n = P.dim
    rank = r + s + 2 * l
    zero = MeasureValue(SymTensor.zero(n, rank), SymTensor.zero(n, rank), 0, 0)
    if j < 0 or j > n or r < 0 or s < 0 or l < 0:
        return zero
    if j == n and s != 0:
        return zero
    if j == 0 and l >= 1:
        return zero

    if j == n:
        if P.aff_dim < n:
            return zero
        mom = polytope_moment(P, r, region)
        tensor = (metric_tensor(n).power(l) * mom).scale(c_norm(n, n, r, 0, l))
        return MeasureValue(tensor, SymTensor.zero(n, rank), 1, 0)

    faces = P.faces(j)
    if not faces:
        return zero
    moments = P.face_moments(j, r, region)
    total = SymTensor.zero(n, rank)
    err = SymTensor.zero(n, rank)
    mc_samples = 0
    cache = P._cone_moment_cache
    for face, fdata in zip(faces, moments.data):
        key = (face.vertex_indices, s, budget, seed)
        if key not in cache:
            cache[key] = cone_sphere_moment(P.normal_cone(face), s, budget=budget, seed=seed)
        cm = cache[key]
        mc_samples += cm.samples
        if not fdata.any():
            continue
        fmom = SymTensor(n, r, fdata)
        qf = subspace_metric_tensor(face.frame).power(l) if l else SymTensor.scalar(n, 1.0)
        total = total + qf * fmom * cm.tensor
        if cm.stderr.data.any():
            err = err + abs(qf * abs(fmom) * cm.stderr)
    const = c_norm(n, j, r, s, l) / omega(n - j)
    return MeasureValue(total.scale(const), err.scale(abs(const)), len(faces), mc_samples)


def valuation(P, idx, region=None, budget=20000, seed=0):
    """Q^m phi_j^{r,s,l}(P, region) as a rank r+s+2l+2m tensor."""
    mv = tcm(P, idx.j, idx.r, idx.s, idx.l, region=region, budget=budget, seed=seed)
    if idx.m == 0:
        return mv.tensor
    return metric_tensor(P.dim).power(idx.m) * mv.tensor


def curvature_measure(P, q, region=None, budget=20000, seed=0):
    """Scalar curvature measure C_q(P, region)."""
    return tcm(P, q, 0, 0, 0, region=region, budget=budget, seed=seed).tensor.value()


def intrinsic_volume(P, q, budget=20000, seed=0):
    """Intrinsic volume V_q(P)."""
    return curvature_measure(P, q, Region.universe(), budget=budget, seed=seed)


def tcm_relation_check(P, region=None, r=0, s_prime=0):
    """Max tensor-coordinate difference between phi_{n-1}^{r,s',1} and its
    expansion (2 pi / (n-1)) (Q phi_{n-1}^{r,s',0}
    - 2 pi (s'+2) phi_{n-1}^{r,s'+2,0}); all facet cones are rays, so both
    sides are exact."""
    n = P.dim
    if n < 2:
        raise ValueError("relation check requires n >= 2")
    lhs = tcm(P, n - 1, r, s_prime, 1, region=region).tensor
    t0 = tcm(P, n - 1, r, s_prime, 0, region=region).tensor
    t2 = tcm(P, n - 1, r, s_prime + 2, 0, region=region).tensor
    rhs = (metric_tensor(n) * t0).add_scaled(t2, -2 * np.pi * (s_prime + 2)).scale(2 * np.pi / (n - 1))
    return lhs.max_abs_coordinate_diff(rhs)
