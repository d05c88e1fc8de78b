"""Run-to-run spread of the end-to-end metrics over seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workload kernel-mc ...] [--tag first]

Runs the benchmark command of BENCHMARK.json once per workload and seed,
one run at a time, and prints for each end-to-end metric its median and
its spread: the distance between the first and third quartiles of the
runs (`statistics.quantiles(values, n=4)`) as a share of the median,
beside the metric's bound.  For `pass_s` it also prints the spread that
other summaries of the same repeats would have had.  The runs are saved
in out/spread-<tag>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for line in proc.stderr.splitlines():
        if line.startswith("detail: "):
            result["detail"] = json.loads(line[len("detail: "):])
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def alternatives(detail):
    """pass_s under other summaries of the same repeats: raw times, and
    times relative to the reference loop (as run.summarise uses)."""
    ops, refs = detail["op_repeats"], detail["ref_repeats"]
    out = {}
    for name, ts in ops.items():
        if len(ts) < 2:
            continue
        ratios = [run.REF_NOMINAL_S * t / r for t, r in zip(ts, refs[name])]
        for key, values in (("raw", ts), ("ratio", ratios)):
            q1, q2, _ = statistics.quantiles(values, n=4, method="inclusive")
            for stat, v in (("min", min(values)), ("q25", q1), ("median", q2)):
                out[f"{key}-{stat}"] = out.get(f"{key}-{stat}", 0.0) + v
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workload", action="append")
    ap.add_argument("--tag", default="runs")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    saved = {}
    for workload in workloads:
        runs = [run_once(bench, workload, seed) for seed in args.seeds]
        saved[workload] = runs
        fails = {(r["failed"], r["attempted"]) for r in runs}
        print(f"{workload}: correct {all(r['correct'] for r in runs)}; "
              f"failed/attempted {sorted(fails)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, sp = spread(values)
            print(f"  {name:12s} median {med:12.4f}  spread {sp:6.3f}  bound {bound}"
                  f"  {'ok' if sp <= bound / 3 else 'WIDE' if sp > bound else 'over 1/3'}")
        alts = [alternatives(r["detail"]) for r in runs if "detail" in r]
        for key in alts[0] if alts else ():
            med, sp = spread([a[key] for a in alts])
            print(f"    pass_s as {key:10s} median {med:10.4f}  spread {sp:6.3f}")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"spread-{args.tag}.json").write_text(json.dumps(saved))


if __name__ == "__main__":
    main()
