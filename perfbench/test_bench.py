"""Tests of the benchmark itself: every check passes on the program's real
results and fails on perturbed ones, and the tracer accounts for its spans.

    python3 -m pytest perfbench/test_bench.py -q
"""

import dataclasses
import json
import math

import pytest

import run

run.import_program()

import checks as ck  # noqa: E402
import tensorgeo as tg  # noqa: E402
import workloads  # noqa: E402
from spans import METRICS, Tracer  # noqa: E402

# Operations whose checks compare the reference side exactly, so that a
# relative change of 1e-6 in it must fail.
EXACT_SIDE = ("lines.square.j0", "motions.squares.r0s0", "motions.polygons.r0s0", "motions.cubes.j2",
              "steiner.", "tcm.random20.volume", "tcm.random20.half-area",
              "tcm.random20.covariance.", "tcm.random20.windows.", "tcm.cube4.intrinsic",
              "crofton.random40.", "crofton_rhs.", "kinematic_rhs.", "cli.measure")


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def results(request):
    ops = workloads.build(request.param, seed=1)
    return [(op, op.run()) for op in ops]


def zero_largest(t):
    """The tensor with its largest coordinate set to zero."""
    betas = [b for b in t.coeffs]
    worst = max(betas, key=lambda b: abs(t.coordinate(b)))
    return type(t)(t.dim, t.rank, {b: c for b, c in t.coeffs.items() if b != worst})


def zeroed(result):
    """Variants of a result, each with one part's largest coordinate zeroed."""
    if isinstance(result, tg.VerificationReport):
        yield dataclasses.replace(result, lhs=zero_largest(result.lhs))
    elif isinstance(result, tg.SteinerReport):
        vols = list(result.mc_volume)
        vols[vols.index(max(vols))] = 0.0
        yield dataclasses.replace(result, mc_volume=vols, rel_error=[])
    elif isinstance(result, tg.MeasureValue):
        yield dataclasses.replace(result, tensor=zero_largest(result.tensor))
    elif isinstance(result, tg.SymTensor):
        yield zero_largest(result)
    elif isinstance(result, float):                       # tcm_relation_check
        yield 1e-9
    elif isinstance(result, tuple) and isinstance(result[1], str):   # CLI (code, text)
        report = json.loads(result[1])
        report["coordinates"][0]["value"] = 0.0
        yield result[0], json.dumps(report)
        yield 1, result[1]
    elif isinstance(result, tuple) and isinstance(result[0], int):   # independence rank
        yield (result[0] - 1,) + result[1:]
    else:
        for i, part in enumerate(result):
            for variant in zeroed(part):
                yield type(result)(list(result[:i]) + [variant] + list(result[i + 1:]))


def scaled(result, factor):
    """The result with its reference side scaled by `factor`."""
    if isinstance(result, tg.VerificationReport):
        return dataclasses.replace(result, rhs=result.rhs.scale(factor))
    if isinstance(result, tg.SteinerReport):
        return dataclasses.replace(result, steiner_volume=[factor * v for v in result.steiner_volume],
                                   rel_error=[])
    if isinstance(result, tg.MeasureValue):
        return dataclasses.replace(result, tensor=result.tensor.scale(factor))
    if isinstance(result, tg.SymTensor):
        return result.scale(factor)
    if isinstance(result, tuple) and isinstance(result[1], str):
        report = json.loads(result[1])
        report["coordinates"][0]["value"] *= factor
        return result[0], json.dumps(report)
    return type(result)([scaled(result[0], factor)] + list(result[1:]))


def test_checks_pass_on_real_results(results):
    for op, result in results:
        if op.known_fault:
            with pytest.raises(ck.CheckError):
                op.check(result)
        else:
            op.check(result)


def gate_wider_than_value(result):
    """A verification whose gate at its largest coordinate exceeds the
    coordinate itself cannot see it zeroed (motions.cubes.j2 affords 100
    motions, about 12 of which meet: a relative standard error of 0.27)."""
    if not isinstance(result, tg.VerificationReport):
        return False
    lhs, _, se = ck.report_rows(result)
    i = abs(lhs).argmax()
    return ck.K_SIGMA * se[i] >= abs(lhs[i])


def test_zeroed_coordinate_fails(results):
    for op, result in results:
        if gate_wider_than_value(result):
            assert op.name.startswith(EXACT_SIDE), f"{op.name} has no check that bites"
            continue
        variants = list(zeroed(result))
        assert variants, op.name
        for variant in variants:
            with pytest.raises(ck.CheckError):
                op.check(variant)


def test_reference_scaled_by_1e_6_fails(results):
    exact = [(op, r) for op, r in results if op.name.startswith(EXACT_SIDE)]
    for op, result in exact:
        with pytest.raises(ck.CheckError):
            op.check(scaled(result, 1 + 1e-6))


def test_cache_check_accepts_fresh_bodies():
    """The budget check passes when the two calls do not share a polytope."""
    op = next(o for o in workloads.build("exact-measures", 1) if o.known_fault)
    simplex = tg.simplex(3).vertices
    pair = (tg.tcm(tg.Polytope.from_vertices(simplex), 0, s=2, budget=2000),
            tg.tcm(tg.Polytope.from_vertices(simplex), 0, s=2, budget=20000))
    op.check(pair)


def test_reference_values():
    assert ck.principal_kinematic(2, [1, 2, 1], [1, 2, 1]) == pytest.approx(2 + 8 / math.pi)
    assert ck.flag_coefficient(2, 0, 1) * 2 == pytest.approx(4 / math.pi)
    assert ck.cube_steiner(3, 0.5) == pytest.approx(
        1 + 6 * 0.5 + 3 * math.pi * 0.25 + 4 / 3 * math.pi * 0.125)
    assert [ck.independence_count(2, 2), ck.independence_count(3, 2)] == [10, 15]


def test_tracer_self_times_partition_the_operation():
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.operation("tcm"):
            tg.tcm(tg.cube(3), 1, s=2)
    finally:
        tracer.uninstall()
    assert tg.tcm.__module__ == "tensorgeo.measures" and not hasattr(tg.tcm, "__wrapped__")
    totals = tracer.layer_totals()
    assert totals["measures.tcm"][0] == 1
    assert totals["polytope.build"][0] >= 2 and totals["symtensor.mul"][0] > 0
    root = tracer.end[0] - tracer.start[0]
    assert sum(s for _, s in totals.values()) == pytest.approx(root, rel=1e-9)
    assert set(tracer.layer_metrics(1)) == set(METRICS)


def test_hit_fraction_matches_line_crofton():
    """For j = 0 the line kernel's estimate is the weight times the share of
    lines that meet the square, on the same samples."""
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.operation("lines"):
            rep = tg.crofton_verify(tg.cube(2), 1, 0, samples=4000, seed=3)
    finally:
        tracer.uninstall()
    weight = tg.sample_flats_hitting(tg.cube(2), 1, 1, seed=3).weight
    share = tracer.layer_metrics(1)["flats.hit_fraction"]["value"]
    assert share == pytest.approx(rep.lhs.value() / weight, rel=1e-12)
