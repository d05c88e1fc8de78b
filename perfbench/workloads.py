"""The benchmark's three workloads: inputs made from the seed, and the
operations run on them.

An operation builds its bodies afresh from vertex arrays made at set-up,
as a command-line call does, so no repeat reads a cache that an earlier
one filled.  Operations reach the program only through its public entry
points, looked up on the `tensorgeo` package at call time so that the
traced run sees them, and never choose an evaluation path themselves.

Shapes, orientations and the program's Monte-Carlo draws are the same for
every seed; the seed places each body, by a random translation and a
random order of its vertices.  The flat, motion and Steiner samplers are
translation covariant, so every seed meets the same sections of
differently placed bodies and does the same work.  Redrawing instead moved
pass_s by about 25 % and mc_cost_s by a factor of ten between seeds in
generic-sections, which affords only 100-400 draws per operation, and
mc_cost_s by 15 % in kernel-mc.  The gate study (gates.py) redraws the
samples on purpose.
"""

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import tensorgeo as tg
from tensorgeo import cli

import checks as ck

WORKLOADS = ("kernel-mc", "generic-sections", "exact-measures")
SHAPES = 20161227        # keys the shapes and orientations of the bodies
DRAWS = 7                # keys the program's Monte-Carlo draws
OUT = Path(__file__).resolve().parent / "out"


@dataclass
class Op:
    name: str
    run: Callable[[], object]                  # timed: builds bodies, calls the program
    check: Callable[[object], Optional[float]]  # raises CheckError; sampled checks return the excess
    rel_err: Optional[Callable[[object], float]] = None   # stderr / |RHS| for mc_cost_s
    known_fault: bool = False                  # fails on every run because of a program fault


def build(workload, seed, draws=DRAWS):
    """The operations of `workload` on bodies placed by `seed`, with the
    program's Monte-Carlo draws keyed by `draws`."""
    index = WORKLOADS.index(workload)
    shapes = np.random.default_rng([SHAPES, index])
    placement = np.random.default_rng([seed % 2 ** 64, index])   # any integer seed

    def placed(vertices):
        """The vertices translated by a random vector and reordered."""
        shift = placement.random(vertices.shape[1]) - 0.5
        return (vertices + shift)[placement.permutation(len(vertices))]

    make = {"kernel-mc": _kernel_mc, "generic-sections": _generic_sections,
            "exact-measures": _exact_measures}[workload]
    ops = make(shapes, placed, draws * 1009)
    names = [op.name for op in ops]
    assert len(set(names)) == len(names), names
    return ops


# -- input generation ---------------------------------------------------------

def rotation(rng, n):
    """Haar-random rotation of R^n."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def cube_vertices(n):
    return np.array(np.meshgrid(*[[0.0, 1.0]] * n, indexing="ij")).reshape(n, -1).T


def turned(vertices, rng):
    """The vertices under a random rotation."""
    return vertices @ rotation(rng, vertices.shape[1]).T


def sphere_body(rng, hull, inner=0, min_gap=0.2):
    """`hull` points on the unit sphere, at least `min_gap` apart, plus
    `inner` points within radius 0.25.  Every sphere point is a vertex, the
    inner points never are, and every facet is a triangle at distance at
    least 0.3 from the centre, so the vertex, edge and facet counts
    (hull, 3 hull - 6, 2 hull - 4) do not depend on the seed."""
    from scipy.spatial import ConvexHull
    while True:
        z = rng.standard_normal((hull, 3))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        gaps = np.linalg.norm(z[:, None] - z[None], axis=2) + 2 * np.eye(hull)
        if gaps.min() < min_gap:
            continue
        w = rng.standard_normal((inner, 3))
        w *= 0.25 * rng.random((inner, 1)) ** (1 / 3) / np.linalg.norm(w, axis=1, keepdims=True)
        pts = np.vstack([z, w])
        h = ConvexHull(pts)
        if (sorted(h.vertices) == list(range(hull)) and len(h.simplices) == 2 * hull - 4
                and -h.equations[:, 3].max() >= 0.3):
            return pts


def circle_polygon(rng, m, min_gap=0.5):
    """`m` points on the unit circle whose angular gaps all exceed
    `min_gap`."""
    while True:
        t = np.sort(rng.random(m) * 2 * math.pi)
        if np.diff(np.append(t, t[0] + 2 * math.pi)).min() > min_gap:
            return np.stack([np.cos(t), np.sin(t)], axis=1)


def simplex_vertices(n):
    return np.vstack([np.zeros(n), np.eye(n)])


def body(vertices):
    return tg.Polytope.from_vertices(vertices)


def hull_intrinsic_volumes_2d(vertices):
    vol, half_perimeter = ck.hull_volume_and_half_area(vertices)
    return [1.0, half_perimeter, vol]


# -- operation helpers --------------------------------------------------------

def verify_op(name, run, extra=None):
    """A verification: the sampled identity inside the gate, plus `extra`
    checks on the report."""
    def check(rep):
        excess = ck.check_report(rep, name)
        if extra:
            extra(rep)
        return excess
    return Op(name, run, check, ck.report_rel_err)


def rhs_value(expected, what):
    return lambda rep: ck.exact_close(rep.rhs.value(), expected, what)


# -- kernel-mc ----------------------------------------------------------------

def _kernel_mc(shapes, placed, s):
    square = placed(turned(cube_vertices(2), shapes))
    cube3 = placed(turned(cube_vertices(3), shapes))
    rand18 = placed(turned(sphere_body(shapes, 11), shapes))      # 18 facets
    sq_a, sq_b = (placed(turned(cube_vertices(2), shapes)) for _ in range(2))
    poly_a, poly_b = (placed(turned(circle_polygon(shapes, 6), shapes)) for _ in range(2))
    square_s, cube_s = placed(cube_vertices(2)), placed(cube_vertices(3))   # axis-parallel
    two_squares = ck.principal_kinematic(2, ck.cube_intrinsic_volumes(2),
                                         ck.cube_intrinsic_volumes(2))   # 2 + 8/pi
    two_polygons = ck.principal_kinematic(2, hull_intrinsic_volumes_2d(poly_a),
                                          hull_intrinsic_volumes_2d(poly_b))

    def motion(name, a, b, r, sv, samples, k, expected=None):
        return verify_op(
            name, lambda: tg.kinematic_verify(body(a), body(b), 0, r=r, s=sv,
                                              samples=samples, seed=s + k),
            None if expected is None else rhs_value(expected, name))

    def steiner(name, vertices, eps, samples, k):
        n = vertices.shape[1]
        reference = [ck.cube_steiner(n, e) for e in eps]
        return Op(name, lambda: tg.steiner_check(body(vertices), eps, samples=samples, seed=s + k),
                  lambda rep: ck.check_steiner(rep, reference, name), ck.steiner_rel_err)

    return [
        verify_op("lines.square.j0",
                  lambda: tg.crofton_verify(body(square), 1, 0, samples=40000, seed=s + 1),
                  rhs_value(4 / math.pi, "Crofton 4/pi")),
        verify_op("lines.cube.j1s2l1",
                  lambda: tg.crofton_verify(body(cube3), 1, 1, s=2, l=1, samples=16000, seed=s + 2)),
        verify_op("planes.cube.j1s2",
                  lambda: tg.crofton_verify(body(cube3), 2, 1, s=2, samples=3000, seed=s + 3)),
        verify_op("planes.random18.j1s2",
                  lambda: tg.crofton_verify(body(rand18), 2, 1, s=2, samples=800, seed=s + 4)),
        motion("motions.squares.r0s0", sq_a, sq_b, 0, 0, 10000, 5, two_squares),
        motion("motions.squares.r1s1", sq_a, sq_b, 1, 1, 8000, 6),
        motion("motions.polygons.r0s0", poly_a, poly_b, 0, 0, 5000, 7, two_polygons),
        motion("motions.polygons.r0s4", poly_a, poly_b, 0, 4, 3000, 8),
        steiner("steiner.square", square_s, [0.25, 0.5, 1.0], 100000, 9),
        steiner("steiner.cube", cube_s, [0.25, 0.5], 40000, 10),
    ]


# -- generic-sections ---------------------------------------------------------

def _generic_sections(shapes, placed, s):
    cube3 = placed(turned(cube_vertices(3), shapes))
    rand8 = placed(turned(sphere_body(shapes, 8), shapes))       # 12 facets
    centre = rand8.mean(axis=0)
    window = tg.Region.box(centre - [0.5, 2.0, 2.0], centre + [2.0, 0.5, 2.0])
    simplex3 = placed(turned(simplex_vertices(3), shapes))
    sq_a, sq_b = (placed(turned(cube_vertices(2), shapes)) for _ in range(2))
    cube_a, cube_b = (placed(turned(cube_vertices(3), shapes)) for _ in range(2))
    # V_2(P) V_3(Q) + V_3(P) V_2(Q) for two unit cubes
    two_cubes = ck.kinematic_scalar(3, 2, ck.cube_intrinsic_volumes(3), ck.cube_intrinsic_volumes(3))
    return [
        verify_op("planes.cube.j1r1s1",
                  lambda: tg.crofton_verify(body(cube3), 2, 1, r=1, s=1, samples=100, seed=s + 1)),
        verify_op("lines.random8-window.j1s2",
                  lambda: tg.crofton_verify(body(rand8), 1, 1, s=2, region=window,
                                            samples=400, seed=s + 2)),
        verify_op("planes.simplex.j0s2",
                  lambda: tg.crofton_verify(body(simplex3), 2, 0, s=2, samples=150, seed=s + 3)),
        verify_op("motions.squares.j1s2",
                  lambda: tg.kinematic_verify(body(sq_a), body(sq_b), 1, s=2, samples=150,
                                              seed=s + 4)),
        verify_op("motions.cubes.j2",
                  lambda: tg.kinematic_verify(body(cube_a), body(cube_b), 2, samples=100,
                                              seed=s + 5),
                  rhs_value(two_cubes, "kinematic formula for V_2 of two cubes")),
    ]


# -- exact-measures -----------------------------------------------------------

def _exact_measures(shapes, placed, s):
    rand20 = placed(turned(sphere_body(shapes, 10, 10), shapes))     # 16 facets
    rand40 = placed(turned(sphere_body(shapes, 20, 20), shapes))     # 36 facets
    lam = 1.0 + shapes.random()
    rho = rotation(shapes, 3)
    rand20_image = lam * rand20 @ rho.T
    cube4 = placed(cube_vertices(4))                                 # axis-parallel
    cross3 = placed(turned(np.vstack([np.eye(3), -np.eye(3)]), shapes))
    simplex3 = placed(turned(simplex_vertices(3), shapes))
    cube3_a, cube3_b = (placed(turned(cube_vertices(3), shapes)) for _ in range(2))
    cube3_c = placed(turned(cube_vertices(3), shapes))
    cut = float(rand20[:, 0].min() + 0.4 * np.ptp(rand20[:, 0]))
    lo, hi = rand20.min(axis=0) - 1.0, rand20.max(axis=0) + 1.0
    left = tg.Region.box(lo, [cut, hi[1], hi[2]])
    right = tg.Region.box([cut, lo[1], lo[2]], hi)
    vol20, half_area20 = ck.hull_volume_and_half_area(rand20)
    vol40, _ = ck.hull_volume_and_half_area(rand40)
    cli_body = placed(turned(sphere_body(shapes, 8), shapes))
    _, cli_half_area = ck.hull_volume_and_half_area(cli_body)
    OUT.mkdir(exist_ok=True)
    cli_file = OUT / "cli-body.json"
    cli_file.write_text(json.dumps({"vertices": cli_body.tolist()}))

    def measure(vertices, j, r=0, sv=0, l=0):
        return lambda: tg.tcm(body(vertices), j, r, sv, l)

    def value(expected, what):
        def check(mv):
            ck.require(mv.exact, f"{what}: not exact")
            ck.exact_close(mv.tensor.value(), expected, what)
        return check

    def covariance(j, r, sv, l):
        """tcm of the rotated and scaled body against the pushed-forward tcm."""
        def run():
            return (tg.tcm(body(rand20), j, r, sv, l).tensor,
                    tg.tcm(body(rand20_image), j, r, sv, l).tensor)

        def check(pair):
            base, image = pair
            ck.exact_close(ck.coords(image), lam ** (j + r) * ck.coords(base.rotate(rho)),
                           f"rotation and scaling covariance of {(j, r, sv, l)}")
        return Op(f"tcm.random20.covariance.{j}{r}{sv}{l}", run, check)

    def additivity(j, r, sv, l):
        def run():
            P = body(rand20)
            return [tg.tcm(P, j, r, sv, l, region=w).tensor for w in (None, left, right)]

        def check(parts):
            whole, a, b = parts
            ck.exact_close(ck.coords(a) + ck.coords(b), ck.coords(whole),
                           f"window additivity of {(j, r, sv, l)}")
        return Op(f"tcm.random20.windows.{j}{r}{sv}{l}", run, check)

    def cube4_symmetric(j, sv, l):
        return Op(f"tcm.cube4.{j}0{sv}{l}", measure(cube4, j, 0, sv, l),
                  lambda mv: ck.check_cube_symmetric(mv.tensor, f"cube4 tcm {(j, 0, sv, l)}"))

    def cube4_intrinsic():
        P = body(cube4)
        return [tg.tcm(P, j) for j in range(5)]

    def check_cube4_intrinsic(mvs):
        for j, mv in enumerate(mvs):
            value(math.comb(4, j), f"V_{j}(cube4) = C(4, {j})")(mv)

    def vertex_cones(vertices, what):
        """V_0 = 1 and trace(phi_0^{0,2,0}) = 3 / (4 pi), sampled."""
        def run():
            P = body(vertices)
            return tg.tcm(P, 0, seed=s + 1), tg.tcm(P, 0, s=2, seed=s + 2)

        def check(pair):
            v0, t2 = pair
            ck.require(not v0.exact and v0.mc_samples > 0, f"{what}: vertex cones not sampled")
            diag = [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
            return max(
                ck.within_gate(v0.tensor.value(), 1.0, v0.stderr.value(), f"{what} V_0 = 1"),
                ck.within_gate(sum(t2.tensor.coordinate(b) for b in diag), ck.vertex_cone_trace(3),
                               sum(t2.stderr.coordinate(b) for b in diag),
                               f"{what} trace of phi_0^(0,2,0)"))
        return Op(f"tcm.{what}.vertex-cones", run, check,
                  lambda pair: max(ck.measure_rel_err(mv) for mv in pair))

    def crofton_rhs_op():
        P = body(cube3_c)
        return tg.crofton_rhs(P, 2, 1)[0], tg.crofton_rhs(P, 2, 1, s=2)[0]

    def check_crofton_rhs(pair):
        scalar, tensor = pair
        ck.exact_close(scalar.value(), ck.flag_coefficient(3, 1, 2) * math.comb(3, 2),
                       "classical Crofton constant for cube3")
        ck.check_isotropic(tensor, "crofton_rhs(cube3, k=2, j=1, s=2)")

    def kinematic_rhs_op():
        A, B, C = body(cube3_a), body(cube3_b), body(cross3)
        return tg.kinematic_rhs(A, B, 0)[0], tg.kinematic_rhs(A, C, 1, s=2)[0]

    def check_kinematic_rhs(pair):
        scalar, tensor = pair
        ck.exact_close(scalar.value(),
                       ck.principal_kinematic(3, ck.cube_intrinsic_volumes(3),
                                              ck.cube_intrinsic_volumes(3)),
                       "principal kinematic formula for two cubes")
        ck.check_isotropic(tensor, "kinematic_rhs(cube3, cross3, j=1, s=2)")

    def independence():
        return tg.independence_rank(3, 2, trials=1, seed=s)

    def check_independence(result):
        rank, count, _ = result
        expected = ck.independence_count(3, 2)
        ck.require(rank == count == expected,
                   f"independence rank {rank}, count {count}, enumerated {expected}")

    def cli_measure():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["measure", "--polytope", str(cli_file), "--j", "2"])
        return code, out.getvalue()

    def check_cli(result):
        code, text = result
        ck.require(code == 0, f"cli measure exited with {code}")
        report = json.loads(text)
        ck.require(report["exact"], "cli measure: not exact")
        ck.exact_close(report["coordinates"][0]["value"], cli_half_area,
                       "cli measure V_2 = half the surface area")

    def cone_cache():
        S = body(simplex_vertices(3))       # inputs independent of the seed
        return tg.tcm(S, 0, s=2, budget=2000), tg.tcm(S, 0, s=2, budget=20000)

    def check_cone_cache(pair):
        small, large = pair
        ck.require(large.mc_samples == 3 * 20000,
                   f"budget 20000 after budget 2000 reports {large.mc_samples} samples, "
                   f"not {3 * 20000}")
        ratio = max(ck.coords(small.stderr)) / max(ck.coords(large.stderr))
        ck.require(math.sqrt(10) / 1.5 <= ratio <= math.sqrt(10) * 1.5,
                   f"stderr shrank by {ratio:.2f}, not about sqrt(10)")

    return [
        Op("tcm.random20.volume", measure(rand20, 3), value(vol20, "V_3 = Qhull volume")),
        Op("tcm.random20.half-area", measure(rand20, 2), value(half_area20, "V_2 = Qhull area / 2")),
        covariance(1, 2, 2, 1),
        covariance(3, 2, 0, 2),
        additivity(2, 2, 2, 1),
        additivity(1, 0, 6, 0),
        Op("tcm.cube4.intrinsic", cube4_intrinsic, check_cube4_intrinsic),
        cube4_symmetric(2, 2, 1),
        Op("tcm.cross3.relation",
           lambda: tg.tcm_relation_check(body(cross3), r=1, s_prime=1),
           lambda worst: ck.require(worst <= 1e-10, f"tcm_relation_check {worst:.2e} > 1e-10")),
        vertex_cones(simplex3, "simplex3"),
        vertex_cones(rand20, "random20"),
        verify_op("crofton.random40.lines.j1",
                  lambda: tg.crofton_verify(body(rand40), 1, 1, samples=3000, seed=s + 3),
                  rhs_value(vol40, "Crofton RHS = Qhull volume")),
        Op("crofton_rhs.cube3", crofton_rhs_op, check_crofton_rhs),
        Op("kinematic_rhs.cubes", kinematic_rhs_op, check_kinematic_rhs),
        Op("independence.n3p2", independence, check_independence),
        Op("cli.measure", cli_measure, check_cli),
        Op("tcm.simplex3.budget-cache", cone_cache, check_cone_cache, known_fault=True),
    ]
