"""Gate study: every check on freshly drawn samples.

    python3 perfbench/gates.py --draws 1-30 [--workload kernel-mc ...]

Runs each operation once per draw, with the program's Monte-Carlo draws
keyed by that number (and the bodies placed by it), and prints for every
sampled check the largest difference it met in standard errors, against
the gate checks.K_SIGMA.  A correct change that only redraws samples must
stay inside the gate; this is the evidence that it does.
"""

import argparse

import run

run.import_program()

import checks as ck  # noqa: E402
import workloads  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--draws", default="1-30")
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    lo, _, hi = args.draws.partition("-")
    draws = range(int(lo), int(hi or lo) + 1)
    for workload in args.workload or workloads.WORKLOADS:
        worst, failures = {}, {}
        for d in draws:
            for op in workloads.build(workload, seed=d, draws=d):
                result = op.run()
                try:
                    excess = op.check(result)
                except ck.CheckError as exc:
                    if not op.known_fault:
                        failures.setdefault(op.name, []).append(f"draw {d}: {exc}")
                    continue
                if excess is not None:
                    worst[op.name] = max(worst.get(op.name, 0.0), excess)
        print(f"{workload}: {len(draws)} draws, gate {ck.K_SIGMA} standard errors")
        for name, value in worst.items():
            print(f"  {name:32s} largest difference {value:5.2f} standard errors")
        for name, msgs in failures.items():
            for msg in msgs:
                print(f"  FAILED {name}: {msg}")


if __name__ == "__main__":
    main()
