"""Run one workload over several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --workload sweep --seeds 1-10
    python3 perfbench/spread.py --workload sweep --seeds 1-10 --json spread.json

For every end-to-end metric in BENCHMARK.json it prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  Runs are made one after another with run.py.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="range, e.g. 1-10")
    parser.add_argument("--json", type=Path, help="also write the runs and the summary here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    runs = []
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                               "--seed", str(seed), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}", file=sys.stderr)
            return 1
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **line})
        values = " ".join(f"{k}={m['value']:.6g}" for k, m in line["metrics"].items())
        print(f"seed {seed}: failed {line['failed']}/{line['attempted']} {values}", flush=True)

    summary = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[metric["name"]] = {"unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                                   "spread": (q3 - q1) / med, "bound": metric["bound"]}
        print(f"{args.workload} {metric['name']}: median {med:.6g} {metric['unit']}, "
              f"quartiles {q1:.6g}..{q3:.6g}, spread {(q3 - q1) / med:.4f} (bound {metric['bound']})")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": summary},
                                        indent=1) + "\n", encoding="utf-8")
    return 1 if any(r["failed"] for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
