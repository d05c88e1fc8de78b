"""Samplers for random flats and rigid motions.

Integrals over the invariant measure of k-flats are estimated by
importance sampling: a flat is a Haar-random rotation of a fixed k-plane
translated within a ball (in the orthogonal complement) large enough to
cover every flat meeting the target body; the constant density gives
each sample the weight kappa_{n-k} R^{n-k}.  Rigid motions are coupled
the same way with a translation box of weight (2h)^n.  All draws come
from counter-based streams, so results depend only on (seed, count).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import stream
from .special import kappa_ball

__all__ = ["FlatBatch", "MotionBatch", "random_rotation",
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


@dataclass(frozen=True)
class FlatBatch:
    """`count` random k-flats {point + span(frame)}, each carrying the same
    importance weight."""

    frames: np.ndarray       # (count, n, k) orthonormal direction frames
    complements: np.ndarray  # (count, n, n-k) orthonormal complements of the frames
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


def sample_flats_hitting(P, k, count, seed=0, margin=0.5):
    """Random k-flats covering every flat that meets P.

    The flat is rho (E_k + t) with rho Haar and t uniform in the ball of
    radius R = circumradius + margin in E_k-perp, centered under the
    rotated circumcenter; every flat meeting P lies in the support, and
    the density is 1 / (kappa_{n-k} R^{n-k}) there.
    """
    n = P.dim
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n - 1, got k={k}")
    if not margin >= 0:
        raise ValueError(f"need margin >= 0, got {margin}")
    c, r0 = P.circumdata()
    R = r0 + margin
    frames = np.empty((count, n, k))
    complements = np.empty((count, n, n - k))
    points = np.empty((count, n))
    done = 0
    batch_idx = 0
    while done < count:
        m = min(_BATCH, count - done)
        rng = stream(seed, batch_idx)
        batch_idx += 1
        rho = random_rotation(rng, n, m)
        comp = rho[:, :, k:]                        # (m, n, n-k)
        center = np.einsum("mij,i->mj", comp, c)    # c projected, complement coords
        z = rng.standard_normal((m, n - k))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        rad = R * rng.random(m) ** (1.0 / (n - k))
        t = center + rad[:, None] * z
        frames[done:done + m] = rho[:, :, :k]
        complements[done:done + m] = comp
        points[done:done + m] = np.einsum("mij,mj->mi", comp, t)
        done += m
    return FlatBatch(frames, complements, points, kappa_ball(n - k) * R ** (n - k))


def sample_motions_coupling(P, P2, count, seed=0, margin=0.5):
    """Random rigid motions g = (rho, t) covering every g with P meeting
    g P2: t uniform in the box of half-width h = R + R' + margin centered
    at c - rho c'."""
    n = P.dim
    if P2.dim != n:
        raise ValueError(f"the bodies lie in R^{n} and R^{P2.dim}")
    if not margin >= 0:
        raise ValueError(f"need margin >= 0, got {margin}")
    c, r0 = P.circumdata()
    c2, r2 = P2.circumdata()
    h = r0 + r2 + margin
    rotations = np.empty((count, n, n))
    translations = np.empty((count, n))
    done = 0
    batch_idx = 0
    while done < count:
        m = min(_BATCH, count - done)
        rng = stream(seed, batch_idx)
        batch_idx += 1
        rho = random_rotation(rng, n, m)
        center = c - rho @ c2
        translations[done:done + m] = center + h * (2.0 * rng.random((m, n)) - 1.0)
        rotations[done:done + m] = rho
        done += m
    return MotionBatch(rotations, translations, (2.0 * h) ** n)
