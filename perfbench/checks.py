"""Correctness checks for the benchmark's operations.

Every check compares a result of the program with a value computed apart
from it (classical integral-geometry constants, scipy's Qhull, an explicit
enumeration) or with a property the method must have (additivity in the
window, rotation and scaling covariance, the symmetry of a cube).  A check
raises CheckError when it fails.  Sampled checks return their largest
excess in standard errors, so that the gate study can report how close a
correct result comes to the gate.

Nothing here imports the program: checks read tensors only through
`coordinates_array()` and `coordinate()`.
"""

import math
from itertools import product

import numpy as np
from scipy.spatial import ConvexHull

# A correct change that only redraws its samples must still pass.  The three
# workloads make about 70 sampled coordinate comparisons per pass; at 3
# standard errors one of them fails about once in six, at 5 about once in
# 25 000 (for Gaussian errors).  The gate study (gates.py, README) measures
# the largest difference on fresh draws.
K_SIGMA = 5.0
EXACT_REL = 1e-9     # exact identities, relative to the largest magnitude
ABS_FLOOR = 1e-9     # sampled identities at coordinates that are exactly zero


class CheckError(AssertionError):
    pass


def require(ok, what):
    if not ok:
        raise CheckError(what)


# -- independent reference values --------------------------------------------

def ball_volume(d):
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def flag_coefficient(n, j, k):
    """Classical Crofton constant: the integral of V_j(P cap E) over affine
    k-flats E is flag_coefficient(n, j, k) * V_{n+j-k}(P), for the motion
    invariant measure that gives the flats meeting the unit ball the mass
    kappa_{n-k}."""
    m = n + j - k
    return (math.factorial(k) * ball_volume(k) * math.factorial(m) * ball_volume(m)
            / (math.factorial(j) * ball_volume(j) * math.factorial(n) * ball_volume(n)))


def kinematic_scalar(n, j, vols_p, vols_q):
    """Integral of V_j(P cap gQ) over rigid motions g (rotations as a
    probability measure), from the intrinsic volumes of P and Q."""
    return sum(flag_coefficient(n, j, n + j - k) * vols_p[k] * vols_q[n + j - k]
               for k in range(j, n + 1))


def principal_kinematic(n, vols_p, vols_q):
    """The kinematic integral of the Euler characteristic."""
    return kinematic_scalar(n, 0, vols_p, vols_q)


def cube_intrinsic_volumes(n):
    return [math.comb(n, j) for j in range(n + 1)]


def cube_steiner(n, eps):
    """Volume of the eps-parallel body of the unit n-cube."""
    return sum(math.comb(n, j) * ball_volume(n - j) * eps ** (n - j) for j in range(n + 1))


def hull_volume_and_half_area(points):
    hull = ConvexHull(points)
    return hull.volume, hull.area / 2


def vertex_cone_trace(n):
    """Trace of phi_0^{0,2,0}: the vertex normal cones of a full-dimensional
    polytope tile the sphere, so the trace is c_{n,0}^{0,2,0} = n / (4 pi)."""
    return n / (4 * math.pi)


def independence_count(n, p):
    """Number of valuation indices (j, m, r, s, l) of tensor rank p, by
    enumeration: l = 0 at j in {0, n-1}, s = l = 0 at j = n."""
    count = 0
    for j, m, l, r, s in product(range(n + 1), *[range(p + 1)] * 4):
        if 2 * m + 2 * l + r + s != p:
            continue
        if (j in (0, n - 1) and l) or (j == n and (s or l)):
            continue
        count += 1
    return count


# -- comparisons -------------------------------------------------------------

def coords(t):
    return np.asarray(t.coordinates_array(), dtype=float)


def exact_close(a, b, what):
    """Exact identity between two coordinate arrays (or numbers), relative
    to the largest magnitude: rank-6 coordinates can be far below 1e-9."""
    a, b = np.atleast_1d(np.asarray(a, float)), np.atleast_1d(np.asarray(b, float))
    tol = EXACT_REL * max(float(np.max(np.abs(b))), float(np.max(np.abs(a))))
    err = float(np.max(np.abs(a - b)))
    require(err <= tol, f"{what}: max difference {err:.3e} > {tol:.3e}")


def within_gate(est, ref, stderr, what):
    """Sampled identity: every coordinate inside K_SIGMA standard errors
    (plus the floor).  Returns the largest difference in those units."""
    est, ref, stderr = (np.atleast_1d(np.asarray(x, float)) for x in (est, ref, stderr))
    diff = np.abs(est - ref)
    allowed = K_SIGMA * stderr + ABS_FLOOR
    worst = int(np.argmax(diff / allowed))
    require(diff[worst] <= allowed[worst],
            f"{what}: coordinate {worst} differs by {diff[worst]:.3e} "
            f"> {K_SIGMA} x stderr {stderr[worst]:.3e}")
    return K_SIGMA * float(diff[worst] / allowed[worst])


def report_rows(rep):
    """(lhs, rhs, stderr) arrays of a VerificationReport; the stderr is the
    sum of the two sides' standard errors."""
    lhs, rhs = coords(rep.lhs), coords(rep.rhs)
    se = coords(rep.stderr) + coords(rep.rhs_stderr)
    return lhs, rhs, se


def check_report(rep, what):
    lhs, rhs, se = report_rows(rep)
    require(rep.samples > 0, f"{what}: no samples")
    require(np.any(rhs != 0.0), f"{what}: right-hand side is zero")
    return within_gate(lhs, rhs, se, what)


def report_rel_err(rep):
    _, rhs, se = report_rows(rep)
    return float(np.max(se) / np.max(np.abs(rhs)))


def measure_rel_err(mv):
    return float(np.max(coords(mv.stderr)) / np.max(np.abs(coords(mv.tensor))))


def check_steiner(rep, reference, what):
    require(len(rep.steiner_volume) == len(reference), f"{what}: wrong length")
    exact_close(rep.steiner_volume, reference, f"{what} Steiner polynomial")
    return within_gate(rep.mc_volume, reference, rep.mc_stderr, f"{what} parallel volume")


def steiner_rel_err(rep):
    return float(max(rep.mc_stderr) / max(abs(v) for v in rep.steiner_volume))


def check_isotropic(t, what):
    """A rank-2 tensor that must be a multiple of the metric tensor."""
    n = t.dim
    diag = [t.coordinate(tuple(2 if i == k else 0 for k in range(n))) for i in range(n)]
    require(abs(diag[0]) > ABS_FLOOR, f"{what}: zero tensor")
    exact_close([t.coordinate(b) for b in _multi_degrees(n, 2)],
                [diag[0] if max(b) == 2 else 0.0 for b in _multi_degrees(n, 2)],
                f"{what} is not a multiple of Q")


def check_cube_symmetric(t, what):
    """A tensor of an axis-parallel cube without position moments (r = 0):
    invariant under permuting and reflecting the axes, so coordinates
    agree along permutations and vanish at odd exponents."""
    betas = _multi_degrees(t.dim, t.rank)
    got = [t.coordinate(b) for b in betas]
    want = [0.0 if any(x % 2 for x in b) else t.coordinate(tuple(sorted(b, reverse=True)))
            for b in betas]
    require(max(abs(x) for x in got) > ABS_FLOOR, f"{what}: zero tensor")
    exact_close(got, want, f"{what} breaks the cube's symmetry")


def _multi_degrees(n, rank):
    return [b for b in product(range(rank + 1), repeat=n) if sum(b) == rank]
