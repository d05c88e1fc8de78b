"""Samplers for random rotations, flats and rigid motions.

A Haar rotation is the Q of a Gaussian matrix's QR with R's diagonal
positive, signed to det Q = +1 (Mezzadri 2007), computed in closed form by
Gram-Schmidt and, in R^2 and R^3, a quarter turn or a cross product.

Integrals over the invariant measure of k-flats are estimated by
importance sampling: a flat is a Haar-random rotation of a fixed k-plane
translated within a ball (in the orthogonal complement) that covers every
flat meeting the target body: every such flat passes within the
circumradius r of the vertex mean c, so a ball of radius r around c's
projection is enough, and the constant density gives each sample the
weight kappa_{n-k} r^{n-k}.  Rigid motions are coupled the same way with a
translation box of weight (2h)^n.  All draws come from counter-based
streams, so results depend only on (seed, count).  Block b of _BATCH draws
takes its rotations first from stream(seed, b) (`rotation_blocks`), so the
face sums of `verify`, which draw the rotations alone, see the samplers'
rotations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import stream
from .special import kappa_ball

__all__ = ["FlatBatch", "MotionBatch", "random_rotation", "rotation_blocks",
           "sample_flats_hitting", "sample_motions_coupling"]

_BATCH = 4096


def random_rotation(rng, n, count=None):
    """Haar rotation(s) of SO(n) from one Gaussian draw z of shape (n, n) or
    (count, n, n): the Q of z = QR with R's diagonal positive, its first
    column negated where det z < 0 (Mezzadri 2007), in closed form (`_haar`)."""
    shape = (n, n) if count is None else (count, n, n)
    return _haar(rng.standard_normal(shape))


def _perp(*vs):
    """w with <w, x> = det[*vs, x] for the n - 1 vectors vs of R^n, n = 2 or
    3, components first: a quarter turn, or the cross product."""
    if len(vs) == 1:
        return np.stack([-vs[0][1], vs[0][0]])
    a, b = vs
    return a[[1, 2, 0]] * b[[2, 0, 1]] - a[[2, 0, 1]] * b[[1, 2, 0]]


def _haar(z):
    """`random_rotation`'s Q for z (..., n, n): Gram-Schmidt on z's columns,
    re-orthogonalised once, the first negated beforehand where det z < 0
    (which negates Q's first column alone).  In R^2 and R^3 the rotation's
    last column, and det z, come from `_perp`."""
    n = z.shape[-1]
    col = np.ascontiguousarray(np.moveaxis(z, (-1, -2), (0, 1)))   # col[j][i] = z[..., i, j]
    closed = n in (2, 3)
    det = (_perp(*col[:-1]) * col[-1]).sum(0) if closed else np.linalg.det(z)
    q = []
    for v in [col[0] * np.copysign(1.0, det), *col[1:n - closed]]:
        for _ in range(2):
            for u in q:
                v = v - (u * v).sum(0) * u
        q.append(v / np.sqrt((v * v).sum(0)))
    if closed:
        q.append(_perp(*q))
    return np.ascontiguousarray(np.moveaxis(np.array(q), (0, 1), (-1, -2)))


def rotation_blocks(n, count, seed=0):
    """`count` Haar rotations of SO(n) in blocks of _BATCH: for block b,
    (its first index, its rotations (m, n, n), stream(seed, b)), the stream
    left for the block's other draws."""
    for b, at in enumerate(range(0, count, _BATCH)):
        rng = stream(seed, b)
        yield at, random_rotation(rng, n, min(_BATCH, count - at)), rng


@dataclass(frozen=True)
class FlatBatch:
    """`count` random k-flats {point + span(frame)}, each carrying the same
    importance weight."""

    frames: np.ndarray       # (count, n, k) orthonormal direction frames
    points: np.ndarray       # (count, n) footpoints
    weight: float

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class MotionBatch:
    rotations: np.ndarray    # (count, n, n)
    translations: np.ndarray  # (count, n)
    weight: float

    def __len__(self):
        return len(self.translations)


def sample_flats_hitting(P, k, count, seed=0):
    """Random k-flats covering every flat that meets P.

    The flat is rho (E_k + t) with rho Haar and t uniform in the ball of
    radius R = circumradius in E_k-perp, centered under the rotated vertex
    mean; every flat meeting P lies in the support, and the density is
    1 / (kappa_{n-k} R^{n-k}) there.
    """
    n = P.dim
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n - 1, got k={k}")
    c, R = P.circumdata()
    frames = np.empty((count, n, k))
    points = np.empty((count, n))
    for at, rho, rng in rotation_blocks(n, count, seed):
        m = len(rho)
        comp = rho[:, :, k:]                        # (m, n, n-k)
        center = np.einsum("mij,i->mj", comp, c)    # c projected, complement coords
        z = rng.standard_normal((m, n - k))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        rad = R * rng.random(m) ** (1.0 / (n - k))
        t = center + rad[:, None] * z
        frames[at:at + m] = rho[:, :, :k]
        points[at:at + m] = np.einsum("mij,mj->mi", comp, t)
    return FlatBatch(frames, points, kappa_ball(n - k) * R ** (n - k))


def sample_motions_coupling(P, P2, count, seed=0):
    """Random rigid motions g = (rho, t) covering every g with P meeting
    g P2: t uniform in the box of half-width h = R + R' centered at
    c - rho c'."""
    n = P.dim
    if P2.dim != n:
        raise ValueError(f"the bodies lie in R^{n} and R^{P2.dim}")
    c, r0 = P.circumdata()
    c2, r2 = P2.circumdata()
    h = r0 + r2
    rotations = np.empty((count, n, n))
    translations = np.empty((count, n))
    for at, rho, rng in rotation_blocks(n, count, seed):
        m = len(rho)
        translations[at:at + m] = c - rho @ c2 + h * (2.0 * rng.random((m, n)) - 1.0)
        rotations[at:at + m] = rho
    return MotionBatch(rotations, translations, (2.0 * h) ** n)
