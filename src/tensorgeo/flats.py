"""Samplers for random rotations, flats and rigid motions.

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
    """Haar-distributed rotation(s) from SO(n): QR of a Gaussian matrix with
    the sign ambiguity fixed, then determinant forced to +1."""
    shape = (n, n) if count is None else (count, n, n)
    z = rng.standard_normal(shape)
    q, r = np.linalg.qr(z)
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d[d == 0] = 1.0
    q = q * d[..., None, :]
    det = np.linalg.det(q)
    q[..., :, 0] *= np.where(det < 0, -1.0, 1.0)[..., None]
    return q


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
