"""One benchmark process: set up a workload, run it for a while, report as JSON.

run.py starts this script in a fresh interpreter with the package on
PYTHONPATH and the BLAS/OpenMP thread caps in the environment:

    python3 perfbench/worker.py --workload sweep --seed 1 --seconds 30 --trace 0 --workdir DIR
    python3 perfbench/worker.py --workload sweep --seed 1 --setup-only --workdir DIR

Set-up time runs from the first line of this file (before numpy and
orliczseq are imported) until the workload's inputs exist.  The measured part
repeats the workload's fixed list of operations in rounds until the time is
used, at least MIN_ROUNDS times; every operation's result is checked against
its oracle the first time and compared byte for byte with the first round
afterwards.  With --trace 1 one traced pass follows the untraced rounds.
The last stdout line is one JSON object.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402

MIN_ROUNDS = 3
MAX_FAILURES_SHOWN = 20
# The yardstick's usual time on the 2-vCPU Xeon virtual machine the first
# baseline was taken on; it turns yardstick units back into seconds.
YARDSTICK_S = 0.016


def yardstick() -> float:
    """Seconds taken by a fixed loop of small numpy calls and Python arithmetic.

    It calls no orliczseq code, so its time follows only the machine's
    current speed.  On shared virtual machines that speed switches between
    states up to 1.7x apart, for seconds to minutes at a time, so operation
    times are divided by yardsticks taken around them.  The loop mixes the
    same kinds of work as the operations (ufuncs on arrays of about 100
    entries inside Python loops): a pure Python loop changes speed more than
    they do and over-corrects.  Set-up time is not corrected: yardsticks run
    right after the imports scatter far more than the set-up times do.
    """
    x = np.linspace(0.1, 1.0, 97)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(3000):
        acc += float((np.exp(x * (1.0 + i * 1e-6)) - 1.0).sum()) + math.sqrt(i)
    return time.perf_counter() - t0


class Runner:
    """Runs rounds of one workload and keeps the first round's outputs and the failures."""

    def __init__(self, ops):
        self.ops = ops
        self.first = [None] * len(ops)  # (repr bytes, problems) of the first round
        self.attempted = 0
        self.failures = []
        self.sticks = []

    def round(self, gauge=lambda phi: phi):
        """One pass over the operations; returns each one's (seconds, yardstick units).

        Yardsticks run before and after every operation.  The units are an
        operation's time divided by the round's yardstick: the yardsticks'
        mean, each weighted by the time of the operations next to it, so that
        the machine's speed is sampled evenly over the round and the noise of
        single yardsticks averages out.
        """
        times, sticks = [], [yardstick()]
        for i, op in enumerate(self.ops):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run(gauge)
                error = None
            except Exception as exc:  # a raising operation is a failed one; keep measuring
                error = exc
            times.append(time.perf_counter() - t0)
            sticks.append(yardstick())
            if error is not None:
                self.failures.append(f"{op.name}: raised {error!r}")
                continue
            blob = repr(out)
            if self.first[i] is None:
                problems = workloads.nonfinite(out) + op.check(out)
                self.first[i] = (blob, problems)
            first_blob, problems = self.first[i]
            if blob != first_blob:
                self.failures.append(f"{op.name}: output differs from the first round")
            elif problems:
                self.failures.append(f"{op.name}: {'; '.join(problems[:3])}")
        self.sticks.append(sticks)
        weights = [a + b for a, b in zip([0.0] + times, times + [0.0])]
        stick = sum(w * s for w, s in zip(weights, sticks)) / sum(weights)
        return [(t, t / stick) for t in times]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="measuring time (not used with --setup-only)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    work = workloads.build(args.workload, args.seed, args.tiny, args.workdir)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    runner = Runner(work.ops)
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(runner.round())
        elapsed = time.perf_counter() - start
        # a traced run needs only one untraced round to compare the traced pass with
        if args.trace or len(rounds) >= MIN_ROUNDS and elapsed + statistics.median(
                sum(t for t, _ in r) for r in rounds) > args.seconds:
            break
    # the fixed list's time: per operation the median over rounds, summed
    per_op = [(statistics.median(t for t, _ in op), statistics.median(u for _, u in op))
              for op in zip(*rounds)]
    units = sum(u for _, u in per_op)

    layer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        with tracer.installed():
            traced = runner.round(tracer.gauge)
        tracer.dump(args.workdir / "spans.jsonl")
        layer = tracer.metrics()
        layer["trace.overhead"] = sum(u for _, u in traced) / units - 1.0

    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": YARDSTICK_S * units,
        "wall_raw_s": sum(t for t, _ in per_op),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": len(rounds),
        "round_raw_s": [sum(t for t, _ in r) for r in rounds],
        "op_raw_s": [[t for t, _ in r] for r in rounds],
        "yardsticks_s": runner.sticks,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:MAX_FAILURES_SHOWN],
        "ops": [{"name": op.name, "size": op.size, "median_s": t, "median_units": u}
                for op, (t, u) in zip(work.ops, per_op)],
        "params": work.params,
        "numpy": np.__version__,
        "layer": layer,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
