"""Benchmark of tensorgeo: one workload per run, one JSON line of results.

    python3 perfbench/run.py --workload kernel-mc --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/` of
that checkout and nowhere else.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (`--trace 0`) or the per-layer metrics
(`--trace 1`).  See README.md for the workloads, the metrics and the
noise study behind the timing statistic.
"""

import os
import time

# One BLAS thread: the benchmark command sets these too; setting them here
# keeps a direct run the same.  They must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _process_start():
    """Seconds since the process started, on the clock that perf_counter
    keeps (Linux); falls back to the moment this module started."""
    try:
        with open("/proc/self/stat") as fh:
            ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf("SC_CLK_TCK")
        return time.perf_counter() - age
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter()


T_START = _process_start()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUPS = 3              # set-ups per run; setup_s reports their median
MC_TARGET = 0.01        # relative standard error that mc_cost_s prices
REF_NOMINAL_S = 0.002   # the reference loop's time in the fast state (2-core x86 sandbox)
OUT = HERE / "out"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["kernel-mc", "generic-sections", "exact-measures"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def import_program():
    """Import tensorgeo from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        import tensorgeo
    except ImportError as exc:
        sys.exit(f"error: cannot import tensorgeo from {SRC}: {exc}")
    if not Path(tensorgeo.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: tensorgeo imported from {tensorgeo.__file__}, not from {SRC}")


# -- one operation --------------------------------------------------------------

def attempt(op, tracer=None):
    """Run `op` once: collect garbage, time the call with the collector off,
    then check the result.  Returns (seconds, result, error)."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        if tracer is None:
            result = op.run()
        else:
            with tracer.operation(op.name):
                result = op.run()
        elapsed = time.perf_counter() - t0
    except Exception as exc:  # an operation that raises has failed
        gc.enable()
        return None, None, f"{type(exc).__name__}: {exc}"
    gc.enable()
    try:
        if tracer is None:
            op.check(result)
        else:
            with tracer.paused():
                tracer.observe(result)
                op.check(result)
    except AssertionError as exc:
        return elapsed, result, str(exc)
    return elapsed, result, None


def reference_time():
    """Seconds taken by a small fixed mix of interpreter work, small numpy
    calls and a vectorised pass, like the program's own."""
    import numpy as np
    m = np.array([[1.0, 0.2, 0.1], [0.3, 1.1, 0.4], [0.2, 0.5, 0.9], [0.7, 0.1, 0.3]])
    x = np.linspace(0.0, 1.0, 20000)
    t0 = time.perf_counter()
    acc = {}
    for i in range(40):
        sv = np.linalg.svd(m, compute_uv=False)
        for b in range(40):
            key = (b % 7, i % 3)
            acc[key] = acc.get(key, 0.0) + float(sv[0]) * b
    for _ in range(4):
        float(np.sin(x * 3.0).sum())
    return time.perf_counter() - t0


def summarise(samples, refs):
    """The repeat statistic: the first quartile of the operation's time
    relative to the reference loop timed beside it, in seconds at the
    loop's nominal speed.  The machine alternates between a fast and a slow
    state; the ratio cancels most of that, and the low quartile the rest
    (see the README's noise study)."""
    ratios = [t / r for t, r in zip(samples, refs)]
    if len(ratios) > 1:
        return REF_NOMINAL_S * statistics.quantiles(ratios, n=4, method="inclusive")[0]
    return REF_NOMINAL_S * ratios[0]


# -- the run --------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    import_program()
    import workloads

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    imported = time.perf_counter()

    set_ups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        ops = workloads.build(args.workload, args.seed)
        for op in ops:                          # warm-up pass
            attempt(op)
        set_ups.append(time.perf_counter() - t0)
    setup_s = (imported - T_START) + statistics.median(set_ups)

    if tracer:
        tracer.install()
    times = {op.name: [] for op in ops}
    refs = {op.name: [] for op in ops}
    last = {}
    failures = {}
    failed = 0
    correct = True
    rounds = 0
    deadline = time.perf_counter() + args.seconds
    round_time = 0.0
    while rounds == 0 or time.perf_counter() + round_time <= deadline:
        t_round = time.perf_counter()
        for op in ops:
            ref = reference_time()
            elapsed, result, error = attempt(op, tracer)
            ref = (ref + reference_time()) / 2
            if error is not None:
                failed += 1
                correct &= op.known_fault
                failures.setdefault(op.name, error)
            if elapsed is not None:
                times[op.name].append(elapsed)
                refs[op.name].append(ref)
            last[op.name] = (result, error)
        rounds += 1
        round_time = time.perf_counter() - t_round
    if tracer:
        tracer.uninstall()
    for name, error in failures.items():
        print(f"failed: {name}: {error}", file=sys.stderr)

    op_s = {name: summarise(ts, refs[name]) for name, ts in times.items() if ts}
    if tracer:
        metrics = tracer.layer_metrics(rounds)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.npz")
        print(tracer.summary(rounds), file=sys.stderr)
        print(f"traced pass_s {sum(op_s.values()):.4f} s", file=sys.stderr)
    else:
        # failed operations count in pass_s (their work was done) but not
        # in mc_cost_s (their standard errors are not to be trusted)
        rel_err = {op.name: op.rel_err(last[op.name][0]) for op in ops
                   if op.rel_err is not None and last[op.name][1] is None}
        mc_cost = sum(op_s[name] * (r / MC_TARGET) ** 2 for name, r in rel_err.items())
        metrics = {
            "pass_s": {"value": sum(op_s.values()), "unit": "s"},
            "mc_cost_s": {"value": mc_cost, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        detail = {"rounds": rounds, "set_ups": set_ups, "import_s": imported - T_START,
                  "op_repeats": times, "ref_repeats": refs, "rel_err": rel_err}
        print("detail: " + json.dumps(detail), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": rounds * len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
