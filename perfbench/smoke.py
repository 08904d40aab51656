"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at tiny size with tracing off and on, and checks that
each result line carries exactly the metric names and units BENCHMARK.json
declares for that mode and that no operation failed (fail_rate 0).  Then
checks that a directory holding only BENCHMARK.json and perfbench/ makes
run.py exit non-zero without printing a result.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--tiny")
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {sorted(got)} differ from BENCHMARK.json {sorted(want)}")
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(line)}")
            if line["failed"] or not line["correct"] or line["attempted"] < 1:
                problems.append(f"{where}: fail_rate {line['failed']}/{line['attempted']}: {proc.stderr.strip()}")
            print(f"{where}: {line['failed']}/{line['attempted']} failed, {len(got)} metrics")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "7", "--seconds", "1")
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
