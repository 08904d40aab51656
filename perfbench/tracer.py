"""Outside-in layer tracing for the orliczseq benchmark.

The layers are the package's modules.  While a `Tracer` is installed, every
public function of a layer (its ``__all__``, or its public names when it has
none) is replaced by a wrapper that records a span, and every module-level
name in the package that points to a wrapped function is rebound, so calls
made through ``from .x import y`` bindings are seen too.  ``CoeffSeq``
construction and ``CoeffSeq.as_arrays`` are wrapped as spectrum spans.

Spans stay in memory as tuples and are written out once the run ends.  A
span's self time is its duration minus the durations of its direct children.

Work counters come from a counting gauge: a ``dataclasses.replace`` copy of a
real gauge whose ``eval`` and ``right_derivative`` count calls, elements and
time.  The tracer cannot see work that ``fracdiff`` and ``kfunc`` hand to the
private ``orlicz._lux_rows``: it shows up only in ``orlicz.gauge_*`` and
otherwise counts in the calling layer's self time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

# module name -> layer name used in metric names (metric names start with a letter)
LAYERS = {
    "orlicz": "orlicz",
    "_search": "search",
    "fracdiff": "fracdiff",
    "approx": "approx",
    "kfunc": "kfunc",
    "spectrum": "spectrum",
    "verify": "verify",
    "cli": "cli",
}

# The per-layer metrics are the ones BENCHMARK.json declares.
PER_LAYER = [m["name"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]]

_JACKSON = {"jackson_kernel", "jackson_approximant"}
_IO = {"read_coeffs", "write_coeffs"}
_REPORTS = {"direct_report", "inverse_report", "equivalence_report", "classify",
            "rates_report", "balpha_check"}


class Tracer:
    """Span recorder and work counters for one traced pass.

    Use ``with tracer.installed():`` around the traced work, then read
    ``metrics()``.
    """

    def __init__(self, package: str = "orliczseq"):
        self.package = importlib.import_module(package)
        self.modules = {layer: importlib.import_module(f"{package}.{mod}")
                        for mod, layer in LAYERS.items()}
        self._counting = {}
        # span: (layer, name, start, end, parent index or -1, self seconds)
        self.spans = []
        self.counts = Counter()
        self.gauge_s = 0.0
        self._stack = []  # frames of the open spans: [span index, layer, seconds in children]

    # -- counting gauge -------------------------------------------------------

    def gauge(self, phi):
        """The counting copy of a gauge; one copy per real gauge."""
        if phi not in self._counting:
            self._counting[phi] = dataclasses.replace(
                phi, eval=self._count(phi.eval), right_derivative=self._count(phi.right_derivative))
        return self._counting[phi]

    def _count(self, fn):
        def counted(t):
            t0 = perf_counter()
            out = fn(t)
            self.gauge_s += perf_counter() - t0
            self.counts["orlicz.gauge_calls"] += 1
            self.counts["orlicz.gauge_elems"] += int(np.size(t))
            return out
        return counted

    # -- spans ------------------------------------------------------------------

    def _wrap(self, layer, name, fn, pre=None, post=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            spans, stack = self.spans, self._stack
            parent = stack[-1] if stack else None
            frame = [len(spans), layer, 0.0]
            spans.append(None)
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[2] += t1 - t0
                spans[frame[0]] = (layer, name, t0, t1, parent[0] if parent else -1,
                                   t1 - t0 - frame[2])
            return out if post is None else post(out, parent)

        return traced

    def _hooks(self):
        """(pre, post) hooks that turn arguments and results into counts."""

        def search_steps(args, kwargs):
            # the objective is the caller's work: give it a span in the caller's layer
            caller = next((f[1] for f in reversed(self._stack) if f[1] != "search"), "search")
            objective = self._wrap(caller, "objective", args[0])

            def step(x):
                self.counts["search.steps"] += 1
                return objective(x)
            return (step, *args[1:]), kwargs

        modulus_sig = inspect.signature(self.modules["fracdiff"].modulus)

        def grid_rows(args, kwargs):
            bound = modulus_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.counts["fracdiff.grid_rows"] += int(bound.arguments["grid"])
            return args, kwargs

        def candidates(est, parent):
            self.counts["kfunc.candidates"] += est.candidates_tried
            return est

        def report(rep, parent):
            # reports built inside another report (classify runs balpha_check)
            # are not counted
            if parent is None or parent[1] != "verify":
                self.counts["verify.reports"] += 1
                self.counts["verify.samples"] += len(rep.samples)
            return rep

        hooks = {("search", "golden_min"): (search_steps, None),
                 ("fracdiff", "modulus"): (grid_rows, None),
                 ("kfunc", "k_functional"): (None, candidates),
                 ("orlicz", "from_spec"): (None, lambda phi, parent: self.gauge(phi))}
        hooks.update({("verify", name): (None, report) for name in _REPORTS})
        return hooks

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layers for the duration of the block, then restore them."""
        saved = self._install()
        try:
            yield self
        finally:
            for owner, name, obj in reversed(saved):
                setattr(owner, name, obj)

    def _install(self):
        hooks = self._hooks()
        wrapped = {}
        for layer, mod in self.modules.items():
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for name in names:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[obj] = self._wrap(layer, name, obj, *hooks.get((layer, name), ()))
        saved = []
        for mod in (self.package, *self.modules.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    saved.append((mod, name, obj))
                    setattr(mod, name, wrapped[obj])
        seq = self.modules["spectrum"].CoeffSeq
        init, as_arrays = seq.__init__, seq.as_arrays

        traced_init = self._wrap("spectrum", "CoeffSeq", init)

        def counted_init(obj, *args, **kwargs):
            traced_init(obj, *args, **kwargs)
            self.counts["spectrum.entries_built"] += len(obj)

        saved += [(seq, "__init__", init), (seq, "as_arrays", as_arrays)]
        seq.__init__ = counted_init
        seq.as_arrays = self._wrap("spectrum", "as_arrays", as_arrays)
        return saved

    # -- aggregation --------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the recorded spans and counters."""
        spans = self.spans
        out = {name: 0 for name in PER_LAYER if name != "trace.overhead"}
        out.update(self.counts)
        for layer, name, t0, t1, parent, self_s in spans:
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + self_s
            parent_name = spans[parent][1] if parent >= 0 else None
            if layer == "orlicz" and name in ("luxemburg_norm", "orlicz_norm"):
                out["orlicz.solves"] += 1
            elif layer == "search" and name == "golden_min":
                out["search.calls"] += 1
                if parent >= 0 and spans[parent][0] == "kfunc":
                    out["kfunc.polish_s"] += t1 - t0
            elif name == "modulus":
                out["fracdiff.modulus_calls"] += 1
            elif name == "best_approx":
                out["approx.best_approx_calls"] += 1
            elif name in _JACKSON and parent_name not in _JACKSON:
                out["approx.jackson_s"] += t1 - t0
            elif name == "k_functional":
                out["kfunc.calls"] += 1
            elif name == "analyze_samples":
                out["spectrum.analyze_s"] += t1 - t0
            elif name in _IO and parent_name not in _IO:
                out["spectrum.io_s"] += t1 - t0
            elif layer == "cli" and name == "run":
                out["cli.runs"] += 1
            if layer == "spectrum":
                out["spectrum.calls"] += 1
        out["orlicz.gauge_s"] = self.gauge_s
        calls = out["orlicz.gauge_calls"]
        out["orlicz.batch_width"] = out["orlicz.gauge_elems"] / calls if calls else 0.0
        undeclared = set(out).difference(PER_LAYER)
        if undeclared:
            raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
        return out

    def dump(self, path) -> None:
        """Write the recorded spans as JSON lines, times relative to the first span."""
        base = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (layer, name, t0, t1, parent, self_s) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "parent": parent, "layer": layer, "name": name,
                                     "start_s": t0 - base, "dur_s": t1 - t0,
                                     "self_s": self_s}) + "\n")
