"""Command-line front end: measure evaluation, coefficient tables, and the
verification suites, with JSON reports (CSV for coefficient tables).

Exit codes: 0 success / all checks passed, 1 verification failure,
2 usage error (an argument the library rejects with ValueError, a missing
file, a seed outside [0, 2^64)), 3 internal error.  The default seed comes
from the TENSORGEO_SEED environment variable when set; only the commands
that take --seed read it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import coeffs
from .measures import tcm
from .polytope import Polytope, Region, builtin_polytope
from .rng import check_seed
from .symtensor import multi_degrees
from .verify import (
    crofton_verify,
    independence_rank,
    kinematic_verify,
    steiner_check,
)

SCHEMA_VERSION = 1


def _seed(text):
    """A --seed value, or TENSORGEO_SEED's when --seed is absent."""
    try:
        return check_seed(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer in [0, 2^64)") from None


def _load_polytope(args, attr="builtin", file_attr="polytope"):
    name = getattr(args, attr, None)
    path = getattr(args, file_attr, None)
    if name:
        return builtin_polytope(name)
    if path:
        with open(path) as fh:
            return Polytope.from_json(json.load(fh))
    raise ValueError("one of --builtin / --polytope is required")


def _load_region(path):
    if not path:
        return None
    with open(path) as fh:
        return Region.from_json(json.load(fh))


def _run_config(args, command):
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k != "func" and v is not None}
    cfg["command"] = command
    return cfg


def _emit(report, args, command):
    report = dict(report)
    report["schema_version"] = SCHEMA_VERSION
    report["config"] = _run_config(args, command)
    text = json.dumps(report, indent=2)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return report


# -- subcommands ------------------------------------------------------------

def _cmd_measure(args):
    P = _load_polytope(args)
    if not 0 <= args.j <= P.dim:        # tcm extends by zero there
        raise ValueError(f"need 0 <= j <= n, got j = {args.j}, n = {P.dim}")
    region = _load_region(args.region)
    mv = tcm(P, args.j, args.r, args.s, args.l, region=region,
             budget=args.budget, seed=args.seed)
    report = {
        "command": "measure",
        "index": {"j": args.j, "r": args.r, "s": args.s, "l": args.l},
        "tensor": mv.tensor.to_json(),
        "coordinates": [
            {"index": list(b), "value": mv.tensor.coordinate(b),
             "stderr": mv.stderr.coordinate(b)}
            for b in multi_degrees(mv.tensor.dim, mv.tensor.rank)],
        "exact": mv.exact,
        "face_count": mv.face_count,
        "mc_samples": mv.mc_samples,
        "cone_methods": mv.methods,
    }
    _emit(report, args, "measure")
    return 0


# per family, its CSV rows from the arguments a and ms = range(floor(s/2) + 1)
_COEFF_ROWS = {
    "d": lambda a, ms: [{"i": i, "m": m, "value": coeffs.d_coeff(a.n, a.j, a.k, a.s, a.l, i, m)}
                        for m in ms for i in range(m + 1)],
    "alpha": lambda a, ms: [{"j": a.j, "k": a.k, "value": coeffs.alpha(a.n, a.j, a.k)}],
    "thm31": lambda a, ms: [{"k": a.k, "s": a.s, "value": coeffs.thm31_coeff(a.n, a.k, a.s)}],
    "iota": lambda a, ms: [{"m": m, "value": coeffs.iota(a.n, a.k, a.s, m)} for m in ms],
    "lambda": lambda a, ms: [{"m": m, "value": coeffs.lambda_coeff(a.n, a.k, a.s, m)}
                             for m in range(len(ms) + 1)],    # m runs to floor(s/2) + 1
    "kappa": lambda a, ms: [{"m": m, "value": coeffs.kappa_coeff(a.n, a.k, a.s, m)} for m in ms],
    "cor38": lambda a, ms: [{"s": a.s, "value": coeffs.cor38_coeff(a.n, a.s)}],
}


def _cmd_coeff(args):
    # m = 0 is always evaluated, so the families themselves reject a negative s
    rows = _COEFF_ROWS[args.family](args, range(max(args.s, 0) // 2 + 1))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def _cmd_crofton(args):
    P = _load_polytope(args)
    region = _load_region(args.region)
    rep = crofton_verify(P, args.k, args.j, args.r, args.s, args.l, region=region,
                         samples=args.samples, seed=args.seed, budget=args.budget)
    _emit(rep.to_dict(), args, "crofton-verify")
    return 0 if rep.passed else 1


def _cmd_kinematic(args):
    P = _load_polytope(args)
    P2 = _load_polytope(args, attr="builtin2", file_attr="polytope2")
    if args.rotate2 is not None:
        from .flats import random_rotation
        from .rng import purpose_key, stream
        rng = stream(args.rotate2, 0, purpose_key("rotate2"))
        P2 = P2.transformed(random_rotation(rng, P2.dim), rng.random(P2.dim) - 0.5)
    rep = kinematic_verify(P, P2, args.j, args.r, args.s, args.l,
                           samples=args.samples, seed=args.seed, budget=args.budget)
    _emit(rep.to_dict(), args, "kinematic-verify")
    return 0 if rep.passed else 1


def _cmd_independence(args):
    rank, count, sv = independence_rank(args.n, args.p, trials=args.trials,
                                        seed=args.seed)
    report = {"command": "independence", "n": args.n, "p": args.p,
              "rank": rank, "expected_count": count,
              "passed": rank == count,
              # the margin of the rank: sigma_rank / sigma_1 and sigma_{rank+1} / sigma_1
              "sv_rank_ratio": float(sv[rank - 1] / sv[0]) if rank else None,
              "sv_next_ratio": float(sv[rank] / sv[0]) if rank < len(sv) else None,
              "singular_values": [float(v) for v in sv[:count]]}
    _emit(report, args, "independence")
    return 0 if rank == count else 1


def _cmd_steiner(args):
    P = _load_polytope(args)
    args.eps = args.eps or [0.25, 0.5, 1.0]     # "extend" would append to a list default
    rep = steiner_check(P, args.eps, samples=args.samples, seed=args.seed)
    passed = all(e <= args.rel_tol for e in rep.rel_error)
    report = dict(rep.to_dict())
    report.update({"command": "steiner-check", "passed": passed,
                   "rel_tol": args.rel_tol})
    _emit(report, args, "steiner-check")
    return 0 if passed else 1


# -- parser -----------------------------------------------------------------

def _add_common(sp, samples=None, budget=True):
    # --samples where the command samples (with this default), --budget where
    # its exact side may sample cone moments
    sp.add_argument("--seed", type=_seed, default=os.environ.get("TENSORGEO_SEED", "0"))
    if samples:
        sp.add_argument("--samples", type=int, default=samples)
    if budget:
        sp.add_argument("--budget", type=int, default=20000,
                        help="Monte-Carlo budget per interior cone moment")
    sp.add_argument("--out", help="write the JSON report here as well")


def _add_polytope_args(sp, second=False):
    sp.add_argument("--builtin", help="named generator, e.g. cube3, simplex2, random3-7")
    sp.add_argument("--polytope", help="JSON polytope file")
    if second:
        sp.add_argument("--builtin2")
        sp.add_argument("--polytope2")
        sp.add_argument("--rotate2", type=_seed, default=None,
                        help="seed for a random rotation+shift of the second body")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="tensorgeo",
        description="Tensorial curvature measures of polytopes and "
                    "Monte-Carlo verification of their integral-geometric identities.")
    sub = ap.add_subparsers(dest="command")

    sp = sub.add_parser("measure", help="evaluate one tensorial curvature measure")
    _add_polytope_args(sp)
    sp.add_argument("--region", help="JSON region (observation window) file")
    for flag in ("j", "r", "s", "l"):
        sp.add_argument(f"--{flag}", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_measure)

    sp = sub.add_parser("coeff", help="coefficient tables (CSV)")
    sp.add_argument("family", choices=list(_COEFF_ROWS))
    for flag in ("n", "j", "k", "s", "l"):
        sp.add_argument(f"--{flag}", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_coeff)

    sp = sub.add_parser("crofton-verify", help="verify a Crofton identity by sampling flats")
    _add_polytope_args(sp)
    sp.add_argument("--region")
    for flag in ("k", "j", "r", "s", "l"):
        sp.add_argument(f"--{flag}", type=int, default=0)
    _add_common(sp, samples=100000)
    sp.set_defaults(func=_cmd_crofton)

    sp = sub.add_parser("kinematic-verify", help="verify the kinematic identity by sampling motions")
    _add_polytope_args(sp, second=True)
    for flag in ("j", "r", "s", "l"):
        sp.add_argument(f"--{flag}", type=int, default=0)
    _add_common(sp, samples=100000)
    sp.set_defaults(func=_cmd_kinematic)

    sp = sub.add_parser("independence", help="rank test of the valuation family")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--trials", type=int, default=8)
    sp.add_argument("--seed", type=_seed, default=os.environ.get("TENSORGEO_SEED", "0"))
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_independence)

    sp = sub.add_parser("steiner-check", help="parallel-volume cross-check")
    _add_polytope_args(sp)
    sp.add_argument("--eps", type=float, nargs="+", action="extend",
                    help="parallel distances; repeatable (default 0.25 0.5 1.0)")
    sp.add_argument("--rel-tol", type=float, default=0.005)
    _add_common(sp, samples=10 ** 6, budget=False)
    sp.set_defaults(func=_cmd_steiner)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if not getattr(args, "func", None):
        ap.print_usage(sys.stderr)
        return 2
    try:
        if getattr(args, "samples", 1) < 1:
            raise ValueError(f"--samples must be at least 1, got {args.samples}")
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:     # GeometryError and JSON errors included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
