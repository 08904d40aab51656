"""Count the solver work of one round of each benchmark workload.

    python tools/work_counts.py                      every workload at seed 1
    python tools/work_counts.py --workload sweep --seed 3

For each workload of ``perfbench/workloads.py`` (imported as it is) this runs one round of its
operations and prints one JSON line per workload: the ``_bisect`` calls made through
``orlicz._bisect``, their steps (calls of the test) and the rows they enter with (``bisect_rows``:
the brackets of each call, one for a scalar; a grid row that ``_lux_rows`` screens out never enters
one), the rows and entries handed to
``_lux_rows`` (spies on that name in ``orlicz``, ``fracdiff`` and ``kfunc``, as the tests use; a
folded row counts its k >= 0 half), of them the modulus's (``modulus_calls`` and ``modulus_rows``:
the calls and rows ``fracdiff`` hands on; ``zoom_calls``, the ``values`` calls of its zoom, apart from
its grid call; ``edge_certified``, the brackets whose zoom met a point the slope bound certified to rise
up to the bracket's end), the K scan's rows (``kscan_rows``: those
``_window_norms`` hands on while ``kfunc`` calls it) and the K polish's (``polish_rows``: those
``kfunc`` hands on itself, in ``polish_calls`` calls), and the gauge ``eval`` calls and the
elements they were given.  The gauges are counting copies made with ``dataclasses.replace``:
``eval_*`` counts the gauges the operations are handed, and ``cli_eval_*`` the ones the CLI
operations build from their spec (``orlicz.from_spec`` is wrapped to return a copy).  A round that fills the package's caches (the
numeric gauge inverse, per gauge copy) runs first and is not counted, so the counts repeat
exactly; no timer is read.  The package is imported from the ``src`` directory of the checkout
this file lives in.
"""

import argparse
import dataclasses
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from orliczseq import fracdiff, kfunc, orlicz  # noqa: E402

SOLVERS = (orlicz, fracdiff, kfunc)  # the modules that call _lux_rows by that name


def count_round(name, seed):
    """Counts of one round of the named workload at this seed, after one uncounted round."""
    counts = Counter()
    copies = {}

    def gauge(phi, prefix=""):
        if (phi, prefix) not in copies:
            def counted(t):
                counts[prefix + "eval_calls"] += 1
                counts[prefix + "eval_elems"] += int(np.size(t))
                return phi.eval(t)
            copies[phi, prefix] = dataclasses.replace(phi, eval=counted)
        return copies[phi, prefix]

    bisect, from_spec = orlicz._bisect, orlicz.from_spec

    def spy(above, lo, hi, rtol):
        counts["bisect_calls"] += 1
        counts["bisect_rows"] += int(np.size(lo))

        def step(x):
            counts["bisect_steps"] += 1
            return above(x)
        return bisect(step, lo, hi, rtol)

    in_scan = [False]  # inside a _window_norms call made by kfunc

    def scan_spy(*args, **kw):
        in_scan[0] = True
        try:
            return window_norms(*args, **kw)
        finally:
            in_scan[0] = False

    def rows_spy(solve, module):
        def counted(vals, phi, **kw):
            counts["lux_rows"] += vals.shape[0]
            counts["lux_entries"] += vals.size
            if module is fracdiff:
                counts["modulus_calls"] += 1
                counts["modulus_rows"] += vals.shape[0]
            elif module is kfunc:
                counts["polish_calls"] += 1
                counts["polish_rows"] += vals.shape[0]
            elif in_scan[0]:
                counts["kscan_rows"] += vals.shape[0]
            return solve(vals, phi, **kw)
        return counted

    def zoom_spy(values, *args):
        def counted(i, pts):
            counts["zoom_calls"] += 1
            got = values(i, pts)
            if isinstance(got, tuple) and len(got) > 2:
                certified.update(np.asarray(i)[np.asarray(got[2], dtype=bool)].tolist())
            return got
        certified = set()
        try:
            return zoom(counted, *args)
        finally:
            counts["edge_certified"] += len(certified)

    solves, window_norms, zoom = [m._lux_rows for m in SOLVERS], kfunc._window_norms, fracdiff._zoom
    for m, solve in zip(SOLVERS, solves):
        m._lux_rows = rows_spy(solve, m)
    kfunc._window_norms, fracdiff._zoom = scan_spy, zoom_spy
    orlicz._bisect, orlicz.from_spec = spy, lambda spec: gauge(from_spec(spec), "cli_")
    try:
        with tempfile.TemporaryDirectory() as workdir:
            ops = workloads.build(name, seed, False, Path(workdir)).ops
            for op in ops:
                op.run(gauge)
            counts.clear()
            for op in ops:
                op.run(gauge)
    finally:
        orlicz._bisect, orlicz.from_spec, kfunc._window_norms, fracdiff._zoom = bisect, from_spec, window_norms, zoom
        for m, solve in zip(SOLVERS, solves):
            m._lux_rows = solve
    keys = ("bisect_calls", "bisect_steps", "bisect_rows", "lux_rows", "lux_entries", "modulus_calls", "modulus_rows",
            "zoom_calls", "edge_certified", "kscan_rows",
            "polish_calls", "polish_rows", "eval_calls", "eval_elems", "cli_eval_calls", "cli_eval_elems")
    return {"workload": name, "seed": seed, **{k: counts[k] for k in keys}}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        print(json.dumps(count_round(name, args.seed)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
