"""Acceptance suite: one criterion per test, one printed PASS/FAIL line per
criterion, at the stated sample counts and tolerances.  Run with `-s` to see
the lines; assertions carry the same conditions."""

import math
import time

import numpy as np
import pytest

from tensorgeo.coeffs import (
    alpha,
    cor38_coeff,
    d_coeff,
    iota,
    kappa_coeff,
    lambda_coeff,
)
from tensorgeo.conemoment import cone_sphere_moment, _monte_carlo_moment
from tensorgeo.flats import random_rotation
from tensorgeo.measures import tcm, tcm_relation_check
from tensorgeo.polytope import (
    Polytope,
    Region,
    cross_polytope,
    cube,
    random_polytope,
    simplex,
)
from tensorgeo.rng import stream
from tensorgeo.symtensor import multi_degrees
from tensorgeo.verify import (
    crofton_verify,
    independence_indices,
    independence_rank,
    kinematic_verify,
    steiner_check,
)


def report(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{name} failed: {detail}"


def test_A1_classical_crofton_2d():
    t0 = time.perf_counter()
    rep = crofton_verify(cube(2), k=1, j=0, samples=200000, seed=7)
    elapsed = time.perf_counter() - t0
    rhs = rep.rhs.value()
    se = rep.stderr.value()
    ok = (rep.passed and rhs == pytest.approx(4 / math.pi, rel=1e-9)
          and se / rhs < 0.005 and elapsed < 10.0)
    report("A1 classical line-Crofton, unit square",
           ok, f"LHS {rep.lhs.value():.6f} vs RHS {rhs:.6f} "
               f"(3*stderr {3 * se:.2e}), rel stderr {se / rhs:.2%} < 0.5%, "
               f"{elapsed:.1f} s < 10 s")


def test_A2_top_measure_identity_2d():
    rep = crofton_verify(cube(2), k=1, j=1, s=2, samples=100000, seed=5)
    diag = rep.rhs.coordinate((2, 0))
    ok = rep.passed and diag == pytest.approx(1 / (8 * math.pi), rel=1e-12)
    report("A2 line sections, normal-power 2, unit square",
           ok, f"RHS diagonal {diag:.8f} = 1/(8 pi), max excess {rep.max_excess:.2f}")


def test_A3_plane_sections_cube():
    t0 = time.perf_counter()
    rep = crofton_verify(cube(3), k=2, j=1, s=2, samples=100000, seed=11)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and not rep.rhs_stderr.coeffs and elapsed < 60.0
    report("A3 plane sections of the cube, normal-power 2",
           ok, f"max excess {rep.max_excess:.2f} (<= 1), RHS exact, "
               f"{elapsed:.1f} s < 60 s")


def test_A4_coefficient_identities():
    failures = []
    # s = 0 collapses to the classical coefficient
    for n in range(2, 7):
        for k in range(1, n):
            for j in range(k):
                for l in (0, 1, 2):
                    if abs(d_coeff(n, j, k, 0, l, 0, 0) - alpha(n, j, k)) > 1e-12:
                        failures.append(("d(s=0)=alpha", n, j, k, l))
    # iota = d with l = 1, i = 0
    for n in range(3, 7):
        for k in range(2, n):
            for s in range(7):
                for m in range(s // 2 + 1):
                    if abs(iota(n, k, s, m) - d_coeff(n, k - 1, k, s, 1, 0, m)) > 1e-12:
                        failures.append(("iota=d", n, k, s, m))
    # lambda / kappa recombinations
    def d01(n, k, s, m):
        return d_coeff(n, k - 1, k, s, 0, 1, m) if 0 <= m <= s // 2 else 0.0

    def iota0(n, k, s, m):
        return iota(n, k, s, m) if 0 <= m <= s // 2 else 0.0

    for n in range(2, 7):
        for k in range(1, n):
            for s in range(8):
                for m in range(s // 2 + 1):
                    kap = (d_coeff(n, k - 1, k, s, 0, 0, m) + 2 * math.pi / (n - 1)
                           * (d01(n, k, s, m) - 2 * math.pi * (s - 2 * m) * d01(n, k, s, m + 1)))
                    if abs(kappa_coeff(n, k, s, m) - kap) > 1e-12 * max(1, abs(kap)):
                        failures.append(("kappa", n, k, s, m))
                if k >= 2:
                    for m in range(s // 2 + 2):
                        lam = 2 * math.pi / (n - 1) * (
                            iota0(n, k, s, m - 1)
                            - 2 * math.pi * (s - 2 * m + 2) * iota0(n, k, s, m))
                        if abs(lambda_coeff(n, k, s, m) - lam) > 1e-12 * max(1, abs(lam)):
                            failures.append(("lambda", n, k, s, m))
    # k = 1 vanishing below the top slot, and the single-term form
    for n in range(2, 7):
        for s in range(8):
            for m in range(s // 2):
                if s % 2 == 1 and m == (s - 1) // 2:
                    continue
                if kappa_coeff(n, 1, s, m) != 0.0:
                    failures.append(("kappa k=1", n, s, m))
            if abs(cor38_coeff(n, s) - kappa_coeff(n, 1, s, s // 2)) > 1e-12:
                failures.append(("cor38", n, s))
    # no negative metric power; nonnegativity at l in {0, 1}
    for n in range(2, 7):
        for k in range(1, n):
            for j in range(k):
                for s in range(9):
                    for l in (0, 1):
                        if d_coeff(n, j, k, s, l, 1, 0) != 0.0:
                            failures.append(("d(i=1,m=0)=0", n, j, k, s, l))
                        for m in range(s // 2 + 1):
                            for i in range(m + 1):
                                if d_coeff(n, j, k, s, l, i, m) < -1e-15:
                                    failures.append(("d>=0", n, j, k, s, l, i, m))
    report("A4 coefficient identities on the n <= 6 grid",
           not failures, f"{len(failures)} failures" if failures else
           "all identities hold to 1e-12")


def test_A5_metric_relation_random_polytopes():
    worst = 0.0
    for case in range(20):
        n = 2 + case % 2
        P = random_polytope(n, npoints=7 + case % 4, seed=300 + case)
        worst = max(worst, tcm_relation_check(P, r=case % 2, s_prime=case % 3))
    report("A5 metric relation on 20 random polytopes",
           worst <= 1e-10, f"max coordinate difference {worst:.2e} <= 1e-10")


def test_A6_steiner_formula():
    details = []
    ok = True
    for n in (2, 3):
        rep = steiner_check(cube(n), [0.25, 0.5, 1.0], samples=10 ** 6, seed=17)
        worst = max(rep.rel_error)
        ok &= worst <= 0.005
        details.append(f"n={n} max rel err {worst:.4f}")
    report("A6 Steiner parallel volumes, unit cubes", ok,
           "; ".join(details) + " (tol 0.5%)")


def _count_oracle(n, p):
    """Independent enumeration: brute-force over all small tuples."""
    count = 0
    for j in range(n + 1):
        for m in range(p + 1):
            for l in range(p + 1):
                for r in range(p + 1):
                    for s in range(p + 1):
                        if 2 * m + 2 * l + r + s != p:
                            continue
                        if j in (0, n - 1) and l != 0:
                            continue
                        if j == n and (s != 0 or l != 0):
                            continue
                        count += 1
    return count


def test_A7_linear_independence():
    details = []
    ok = True
    for (n, p) in [(2, 2), (3, 2), (2, 3), (2, 4)]:
        expected = _count_oracle(n, p)
        rank, count, sv = independence_rank(n, p, trials=6, seed=4)
        case_ok = rank == count == expected
        if (n, p) == (2, 2):
            case_ok &= expected == 10
        if (n, p) == (3, 2):
            case_ok &= expected == 15
        ok &= case_ok
        details.append(f"(n={n},p={p}) rank {rank}/{expected}")
    report("A7 linear independence of the valuation family", ok,
           "; ".join(details) + " (SVD threshold 1e-8)")


def test_A8_kinematic_formula_2d():
    P = cube(2)
    P2 = cube(2).transformed(random_rotation(stream(99, 0), 2), np.array([0.1, -0.2]))
    t0 = time.perf_counter()
    details = []
    ok = True
    for (r, s, l) in [(0, 0, 0), (0, 1, 0), (0, 2, 0), (1, 1, 0)]:
        rep = kinematic_verify(P, P2, j=0, r=r, s=s, l=l, samples=200000, seed=13)
        ok &= rep.passed
        details.append(f"(r={r},s={s}) excess {rep.max_excess:.2f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    report("A8 planar kinematic formula, squares", ok,
           "; ".join(details) + f"; total {elapsed:.0f} s < 120 s")


def test_A9_measure_properties():
    failures = []
    rng = stream(55, 0)
    polys2 = [cube(2), simplex(2), cross_polytope(2)]
    polys3 = [cube(3), simplex(3)]
    cases = []
    for i, P in enumerate(polys2):
        cases += [("hom", P, (1, 1, 1, 0)), ("hom", P, (0, 0, 2, 0)),
                  ("rot", P, (1, 0, 2, 0)), ("rot", P, (0, 1, 1, 0)),
                  ("add", P, (1, 0, 2, 0)), ("add", P, (0, 1, 0, 0)),
                  ("loc", P, (2, 0, 0, 0)), ("loc", P, (1, 1, 0, 0))]
    for P in polys3:
        # keep to faces with exact cone moments (j >= 1 for the simplex)
        cases += [("hom", P, (2, 1, 1, 0)), ("rot", P, (2, 0, 2, 1)),
                  ("add", P, (3, 1, 0, 0))]
    cases = cases[:30]
    for (kind, P, (j, r, s, l)) in cases:
        if kind == "hom":
            lam = 1.0 + float(rng.random())
            a = tcm(P.scaled(lam), j, r, s, l).tensor
            b = tcm(P, j, r, s, l).tensor.scale(lam ** (j + r))
            diff = a.max_abs_coordinate_diff(b)
        elif kind == "rot":
            rho = random_rotation(rng, P.dim)
            a = tcm(P.transformed(rho), j, r, s, l).tensor
            b = tcm(P, j, r, s, l).tensor.rotate(rho)
            diff = a.max_abs_coordinate_diff(b)
        elif kind == "add":
            cut = 0.3 + 0.4 * float(rng.random())
            lo = P.vertices.min(axis=0) - 1.0
            hi = P.vertices.max(axis=0) + 1.0
            left = Region.box(lo, np.array([cut] + list(hi[1:])))
            right = Region.box(np.array([cut] + list(lo[1:])), hi)
            a = tcm(P, j, r, s, l, region=left).tensor + \
                tcm(P, j, r, s, l, region=right).tensor
            b = tcm(P, j, r, s, l).tensor
            diff = a.max_abs_coordinate_diff(b)
        else:  # locality: a window away from the polytope sees nothing
            far = Region.box(P.vertices.max(axis=0) + 5.0, P.vertices.max(axis=0) + 6.0)
            a = tcm(P, j, r, s, l, region=far).tensor
            diff = max((abs(c) for c in a.coeffs.values()), default=0.0)
        if diff > 1e-9:
            failures.append((kind, P.dim, (j, r, s, l), diff))
    report("A9 homogeneity / covariance / additivity / locality (30 cases)",
           not failures, f"{len(failures)} failures" if failures else
           "all properties hold to 1e-9")


def test_A10_cone_moment_oracles():
    failures = 0
    rng = stream(77, 0)
    checked = 0
    # 25 planar vertex cones (exact arc path) + 25 full-sphere cones
    for case in range(25):
        P = random_polytope(2, npoints=6, seed=400 + case)
        verts = P.faces(0)
        face = verts[int(rng.integers(len(verts)))]
        cone = P.normal_cone(face)
        for s in (1, 2):
            exact = cone_sphere_moment(cone, s)
            assert not exact.stderr.coeffs
            mc = _monte_carlo_moment(cone, s, budget=100000, seed=500 + case)
            for beta in multi_degrees(2, s):
                se = max(mc.stderr.coordinate(beta), 1e-12)
                if abs(exact.tensor.coordinate(beta) - mc.tensor.coordinate(beta)) > 3 * se:
                    failures += 1
        checked += 1
    for case in range(25):
        d = rng.standard_normal(3)
        seg = Polytope.from_vertices(np.vstack([np.zeros(3), d]))
        cone = seg.normal_cone(seg.faces(1)[0])
        exact1 = cone_sphere_moment(cone, 1)
        odd_ok = all(abs(c) < 1e-12 for c in exact1.tensor.coeffs.values())
        if not odd_ok:
            failures += 1
        exact = cone_sphere_moment(cone, 2)
        mc = _monte_carlo_moment(cone, 2, budget=100000, seed=600 + case)
        for beta in multi_degrees(3, 2):
            se = max(mc.stderr.coordinate(beta), 1e-12)
            if abs(exact.tensor.coordinate(beta) - mc.tensor.coordinate(beta)) > 3 * se:
                failures += 1
        checked += 1
    # with ~450 coordinate comparisons at 3 sigma, allow the expected tail
    ok = failures <= 4
    report("A10 exact cone moments vs Monte-Carlo on 50 random cones", ok,
           f"{failures} coordinate excursions beyond 3 stderr across {checked} cones "
           "(<= 4 allowed); full-sphere odd moments exactly zero")
