"""Run the orliczseq benchmark.

    python3 perfbench/run.py --workload sweep --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload, one table

Run from the root of a checkout.  Each run starts fresh worker processes with
the package under src/ on PYTHONPATH and BLAS/OpenMP threads capped at the
number of CPUs this process may use: SETUP_SAMPLES processes that only set up
and one that measures the workload; setup_s is the median set-up time of all
of them.  A traced run starts two measuring workers and fails when their work
counters differ.  wall_s is in yardstick-corrected seconds (see worker.py).
Workloads, metrics and the run length are declared in BENCHMARK.json.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The line before it is the environment block.  With
--workload all the output is instead one table row per metric.  The
full result, with every operation's input size, and the traced run's spans
are written under perfbench/out/.  fail_rate is failed / attempted.

Exit codes: 0 when the run finished (check "correct"), 1 when a worker
failed or timed out, 2 for usage errors or a checkout without src/orliczseq.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")) \
    if (ROOT / "BENCHMARK.json").is_file() else None

SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170  # a run, set-up processes included, must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("sweep", "kfunc", "wideband")


class BenchError(RuntimeError):
    pass


def _worker(args, env, deadline):
    """Run one worker process to completion and return its last stdout line as JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit():
    """HEAD of the checkout's own git repository, or None when it is not one."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest():
    """SHA-256 over the package sources, which identifies the code when git is absent."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "orliczseq").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_workload(name, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (full result, result line)."""
    threads = len(os.sched_getaffinity(0))
    env = {**os.environ, **{var: str(threads) for var in THREAD_VARS}}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    outdir = HERE / "out" / f"{name}-seed{seed}-trace{trace}{'-tiny' if tiny else ''}"
    outdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed), "--workdir", str(outdir)] + (["--tiny"] if tiny else [])

    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []
    if not trace:
        setups = [_worker(common + ["--setup-only"], env, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
    # a traced run starts two workers, whose counters must agree exactly
    runs = [_worker(common + ["--seconds", str(seconds), "--trace", str(trace)], env, deadline)
            for _ in range(2 if trace else 1)]
    result = runs[0]
    if trace:
        counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
        moved = [k for k in counts if runs[0]["layer"][k] != runs[1]["layer"][k]]
        result["attempted"] = 1 + sum(r["attempted"] for r in runs)
        result["failures"] = runs[0]["failures"] + runs[1]["failures"] + (
            [f"trace counters differ between two traced runs: {moved}"] if moved else [])
        result["failed"] = runs[0]["failed"] + runs[1]["failed"] + bool(moved)

    environment = {
        "python": platform.python_version(), "numpy": result["numpy"], "nproc": threads,
        "blas_threads": threads, "commit": _commit(), "src_sha256": _src_digest(),
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "ops": result["ops"], "params": result["params"],
    }
    if trace:
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        metrics = {k: {"value": result["layer"][k], "unit": u} for k, u in units.items()}
    else:
        values = {"setup_s": statistics.median(setups + [result["setup_s"]]),
                  "wall_s": result["wall_s"], "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC["end_to_end"]}
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    full = {"environment": environment, "setup_samples_s": setups, **result, "result": line}
    (outdir / "result.json").write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    return full, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"] if SPEC else 30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if SPEC is None or not (SRC / "orliczseq" / "__init__.py").is_file():
        print(f"error: run from a checkout with BENCHMARK.json and src/orliczseq (looked in {ROOT})",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            full, line = run_workload(name, args.seed, args.seconds, args.trace, args.tiny)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        for failure in full["failures"]:
            print(f"FAILED {name}: {failure}", file=sys.stderr)
        if args.workload == "all":
            rate = line["failed"] / line["attempted"]
            print(f"{name:<9} {'fail_rate':<26} {rate:.6g} ratio ({line['failed']}/{line['attempted']})")
            for metric, m in line["metrics"].items():
                print(f"{name:<9} {metric:<26} {m['value']:.6g} {m['unit']}")
        else:
            print(json.dumps({"environment": full["environment"]}))
            print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
