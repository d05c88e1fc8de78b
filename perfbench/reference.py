"""Reference figures beside the ROADMAP's baseline table.

    python3 perfbench/reference.py

Per-sample cost of each vectorised kernel and of the generic paths, the
construction time of cube(3), cube(4) and random_polytope(3, npoints=40),
and a few single measures.  Each figure is the fastest of five repeats, raw
and relative to the reference loop (see the README's noise study).
"""

import time

import run

run.import_program()

import tensorgeo as tg  # noqa: E402

REPEATS = 5


def fastest(fn):
    """(raw, nominal): the fastest of the repeats in seconds, and the
    fastest relative to the reference loop timed beside it, in seconds at
    the loop's nominal speed (as pass_s reports)."""
    raw, nominal = float("inf"), float("inf")
    for _ in range(REPEATS):
        ref = run.reference_time()
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        ref = (ref + run.reference_time()) / 2
        raw, nominal = min(raw, elapsed), min(nominal, run.REF_NOMINAL_S * elapsed / ref)
    return raw, nominal


def per_sample(name, fn, samples):
    """Cost of one sample: the difference between two sample counts, so
    that the exact side and set-up cancel."""
    full, small = fastest(lambda: fn(samples)), fastest(lambda: fn(samples // 5))
    raw, nominal = (1e6 * (a - b) / (samples - samples // 5) for a, b in zip(full, small))
    print(f"  {name:44s} {raw:9.1f} {nominal:9.1f} us/sample")


def main():
    cube2, cube3 = tg.cube(2), tg.cube(3)
    square2 = tg.cube(2).transformed(tg.random_rotation(tg.stream(99, 0), 2), [0.1, -0.2])
    print(f"per-sample cost{'raw':>41s} {'nominal':>9s}")
    per_sample("line kernel, cube(3), k=1 j=1 s=2 l=1",
               lambda n: tg.crofton_lhs(cube3, 1, 1, s=2, l=1, samples=n, seed=1), 50000)
    per_sample("plane kernel, cube(3), k=2 j=1 s=2",
               lambda n: tg.crofton_lhs(cube3, 2, 1, s=2, samples=n, seed=1), 10000)
    per_sample("motion kernel, squares, j=0 r=1 s=1",
               lambda n: tg.kinematic_lhs(cube2, square2, 0, r=1, s=1, samples=n, seed=1), 50000)
    per_sample("generic Crofton, cube(3), k=2 j=1 r=1 s=1",
               lambda n: tg.crofton_lhs(cube3, 2, 1, r=1, s=1, samples=n, seed=1), 250)
    per_sample("generic kinematic, squares, j=1 s=2",
               lambda n: tg.kinematic_lhs(cube2, square2, 1, s=2, samples=n, seed=1), 250)
    print("construction")
    for name, fn in [("cube(3)", lambda: tg.cube(3)), ("cube(4)", lambda: tg.cube(4)),
                     ("random_polytope(3, npoints=40)",
                      lambda: tg.random_polytope(3, npoints=40))]:
        print(f"  {name:44s} " + " ".join(f"{1e3 * t:9.1f}" for t in fastest(fn)) + " ms")
    print("measures")
    for name, fn in [("tcm cube(3) j=1 s=2", lambda: tg.tcm(tg.cube(3), 1, s=2)),
                     ("tcm cube(4) j=1 s=2", lambda: tg.tcm(tg.cube(4), 1, s=2)),
                     ("tcm simplex(3) j=0 s=2", lambda: tg.tcm(tg.simplex(3), 0, s=2))]:
        print(f"  {name:44s} " + " ".join(f"{1e3 * t:9.1f}" for t in fastest(fn)) + " ms")


if __name__ == "__main__":
    main()
