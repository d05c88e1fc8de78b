"""Generalized tensorial curvature measures of polytopes.

The core evaluator follows the face-sum definition: a weight
c / omega_{n-j} times the sum over j-faces of Q(F)^l, the exact monomial
moment of the face clipped to the window, and the spherical moment of
the face's normal cone, in a few array passes per level of faces: face
moments from the body's lattice and window clip, Q(F) from the level's
frames, and cone moments from one classifier call per level, exact for
orthogonal sums of rays, lines and one arc (every face of a polygon or a
box) and sampled otherwise.  Both constant factors are kept literally
(they cancel for 0 < j < n), so neither j = 0 nor the top index j = n
needs its own code path: at j = n the one face is the body, with the
normal cone {0} of moment 1.

Lower-dimensional polytopes (flat sections) evaluate through the same
face sum: their top face is the polytope itself, whose normal cone is
the full orthogonal complement of the affine hull.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field

import numpy as np

from .coeffs import c_norm
from .conemoment import _closed_forms, cone_sphere_moment
from .rng import check_seed
from .special import omega
from .symtensor import SymTensor, metric_tensor, vector_power

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
    methods: dict = field(default_factory=dict)     # cone-moment method -> number of j-faces

    @property
    def exact(self):
        return not self.stderr.data.any()


def tcm(P, j, r=0, s=0, l=0, region=None, budget=20000, seed=0):
    """The measure phi_j^{r,s,l}(P, region) as a rank r+s+2l tensor; a
    `region` of None is the whole space.

    One face sum for every j (at j = n, the body with the cone {0}).  A j
    outside [0, n] gives the zero tensor (the measures are extended by
    zero), as does j = n with s != 0; r, s and l must be at least 0,
    `budget` (directions per cone sampled) at least 1, `seed` an integer
    in [0, 2^64) and `region` a window in R^n.  Faces' errors add in quadrature: each has its stream."""
    seed = check_seed(seed)
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if min(r, s, l) < 0:
        raise ValueError(f"need r, s, l >= 0, got r = {r}, s = {s}, l = {l}")
    n = P.dim
    if region is not None:              # checked where the measure is zero too
        region.check_width(n)
    rank = r + s + 2 * l
    zero = MeasureValue(SymTensor.zero(n, rank), SymTensor.zero(n, rank), 0, 0)
    if not 0 <= j <= n or (j == n and s) or (j == 0 and l) or not P.faces(j):
        return zero

    moments = P.face_moments(j, r, region)
    frames = np.swapaxes(P._face_lattice()[j].frames, 1, 2)        # Q(F)^l of every face
    qf = vector_power(frames, 2).sum(axis=(1,)).power(l) if l else SymTensor.scalar(n, 1.0)
    cones, cone_err, methods, mc_samples = _cone_moments(P, j, s, budget, seed)
    # summed in face order: numpy's pairwise sum would round rank-0 sums
    # otherwise, and sampled values keep their bits
    total = np.cumsum((qf * moments * cones).data, axis=0)[-1]
    err = np.sqrt(((abs(qf) * abs(moments) * cone_err).data ** 2).sum(axis=0))
    const = _weight(n, j, r, s, l)
    return MeasureValue(SymTensor(n, rank, const * total), SymTensor(n, rank, abs(const) * err),
                        len(P.faces(j)), mc_samples, dict(methods))


def _weight(n, j, r, s, l):
    """The face sum's weight c_{n,j}^{r,s,l} / omega_{n-j}; at j = n, c_{n,n}^{r,0,l} or 0."""
    if j == n:
        return c_norm(n, n, r, 0, l) if s == 0 else 0.0
    return c_norm(n, j, r, s, l) / omega(n - j)


def _cone_moments(P, j, s, budget, seed):
    """The j-faces' cone moments and standard errors (F,), faces per method
    and Monte-Carlo samples, cached per (j, s, budget, seed): `_closed_forms`
    of the level, and a sampled `cone_sphere_moment` of each face it leaves."""
    key = (j, s, budget, seed)
    if key not in P._cone_moment_cache:
        data, method = _closed_forms(s, P._normal_rays(j), P.complement_basis)
        err, samples, faces = np.zeros_like(data), 0, P.faces(j)
        for i in np.flatnonzero(method == "monte-carlo"):
            cm = cone_sphere_moment(P.normal_cone(faces[i]), s, budget=budget, seed=seed)
            data[i], err[i], method[i] = cm.tensor.data, cm.stderr.data, cm.method
            samples += cm.samples
        P._cone_moment_cache[key] = (SymTensor(P.dim, s, data), SymTensor(P.dim, s, err),
                                     collections.Counter(method), samples)
    return P._cone_moment_cache[key]


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
    return curvature_measure(P, q, budget=budget, seed=seed)


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
