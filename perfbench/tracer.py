"""Per-layer tracing of smtl from outside the program.

`Tracer.install()` wraps the functions named in `TARGETS` and restores
them in `uninstall()`. A module-level function is replaced on its own
module and on every `smtl` module that imported the same object by name
(for example `cli` holds `synthesize_tln`, and `synthesis` and `evaluate`
hold `bench.evaluate_many`). A name that no longer exists is skipped with
a note rather than treated as an error, so the benchmark keeps working
while the program's internals are renamed.

Each wrapped call records a span (name, layer, start, end, parent) in
memory. A layer's self time is the time of its spans minus the time
covered by their child spans. Spans never reach smtl's artifacts; they go
to the benchmark's own results.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# layer (an smtl module) -> attributes to wrap, "Class.method" for methods
# and "command.callback" for click commands.
TARGETS = {
    "bench": ("parse_bench", "evaluate_many",
              "BooleanNetwork.topological_order", "BooleanNetwork.from_json"),
    "tlg": ("solve_weights", "ThresholdLogicNetwork.topological_order",
            "ThresholdLogicNetwork.consumers",
            "ThresholdLogicNetwork.evaluate_many",
            "ThresholdLogicNetwork.validate",
            "ThresholdLogicNetwork.from_json",
            "ThresholdLogicNetwork.to_json"),
    "synthesis": ("synthesize_tln", "collapse_tln", "verify_equivalence"),
    "mapping": ("map_design", "assign_stages", "insert_buffers",
                "strip_buffers", "enforce_capacity", "split_fanout",
                "absorb_small_layers", "reorder_stages", "validate",
                "MappedDesign.to_json", "MappedDesign.from_json"),
    "partition": ("rebin", "classify_links", "repartition", "area_estimate"),
    "evaluate": ("simulate_mapped", "variation_tolerance", "full_report",
                 "sweep", "power_report", "delay_report"),
    "devices": ("write_sim_trials", "DeviceParams.load"),
    "cli": ("synth.callback", "map_cmd.callback", "evaluate_cmd.callback",
            "sweep_cmd.callback", "write_sim_cmd.callback", "_atomic_write",
            "_dump", "_load_tln", "_load_design"),
}
LAYERS = tuple(TARGETS)

# spans whose integer return value is summed, e.g. merges per collapse
RESULT_COUNTERS = ("synthesis.collapse_tln",)

# per-layer metric -> (statistic, span names); "s" sums span durations
# (inclusive of children), "calls" counts spans, "result" sums returns
SPAN_METRICS = {
    "bench.parse_s": ("s", ("bench.parse_bench",)),
    "bench.oracle_s": ("s", ("bench.evaluate_many",)),
    "bench.oracle_calls": ("calls", ("bench.evaluate_many",)),
    "tlg.solve_weights_s": ("s", ("tlg.solve_weights",)),
    "tlg.solve_weights_calls": ("calls", ("tlg.solve_weights",)),
    "tlg.topo_s": ("s", ("tlg.ThresholdLogicNetwork.topological_order",)),
    "tlg.topo_calls": ("calls",
                       ("tlg.ThresholdLogicNetwork.topological_order",)),
    "tlg.consumers_calls": ("calls", ("tlg.ThresholdLogicNetwork.consumers",)),
    "synthesis.synth_s": ("s", ("synthesis.synthesize_tln",)),
    "synthesis.collapse_s": ("s", ("synthesis.collapse_tln",)),
    "synthesis.collapse_merges": ("result", ("synthesis.collapse_tln",)),
    "synthesis.verify_s": ("s", ("synthesis.verify_equivalence",)),
    "mapping.map_s": ("s", ("mapping.map_design",)),
    "mapping.buffer_s": ("s", ("mapping.insert_buffers",
                               "mapping.strip_buffers")),
    "mapping.capacity_s": ("s", ("mapping.enforce_capacity",)),
    "mapping.split_s": ("s", ("mapping.split_fanout",)),
    "mapping.absorb_s": ("s", ("mapping.absorb_small_layers",)),
    "mapping.reorder_s": ("s", ("mapping.reorder_stages",)),
    "mapping.validate_s": ("s", ("mapping.validate",)),
    "partition.classify_s": ("s", ("partition.classify_links",)),
    "partition.classify_calls": ("calls", ("partition.classify_links",)),
    "partition.rebin_s": ("s", ("partition.rebin",)),
    "evaluate.simulate_s": ("s", ("evaluate.simulate_mapped",)),
    "evaluate.simulate_calls": ("calls", ("evaluate.simulate_mapped",)),
    "evaluate.tolerance_s": ("s", ("evaluate.variation_tolerance",)),
    "evaluate.sweep_s": ("s", ("evaluate.sweep",)),
    "devices.write_s": ("s", ("devices.write_sim_trials",)),
    "cli.io_s": ("s", ("cli._atomic_write", "cli._dump", "cli._load_tln",
                       "cli._load_design")),
}


class Tracer:
    def __init__(self, package="smtl"):
        self.package = package
        self.spans = []      # [name, layer, start, end, parent index]
        self.results = defaultdict(int)
        self.skipped = []    # notes for targets that no longer exist
        self._stack = []
        self._patches = []   # (owner, attribute, original raw attribute)

    # -- recording --------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.results.clear()

    @contextlib.contextmanager
    def span(self, name, layer="harness"):
        rec = [name, layer, perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[3] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, layer):
        count_result = name in RESULT_COUNTERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                result = fn(*args, **kwargs)
            if count_result and isinstance(result, int):
                self.results[name] += result
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, names in TARGETS.items():
            try:
                module = importlib.import_module(f"{self.package}.{layer}")
            except ImportError as e:
                self.skipped.append(f"{layer}: module not importable ({e})")
                continue
            for qual in names:
                self._install_one(module, layer, qual)

    def _install_one(self, module, layer, qual):
        *path, attr = qual.split(".")
        owner = module
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, attr):
            self.skipped.append(f"{layer}.{qual}: not found, not traced")
            return
        raw = inspect.getattr_static(owner, attr)
        name = f"{layer}.{qual}"
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self._wrap(raw.__func__, name, layer))
        elif callable(raw):
            new = self._wrap(raw, name, layer)
        else:
            self.skipped.append(f"{name}: not callable, not traced")
            return
        self._patch(owner, attr, raw, new)
        if owner is module:
            # modules that did `from .layer import name`
            for mod_name, other in list(sys.modules.items()):
                if (other is module
                        or not mod_name.startswith(self.package + ".")):
                    continue
                for k, v in list(vars(other).items()):
                    if v is raw:
                        self._patch(other, k, raw, new)

    def _patch(self, owner, attr, raw, new):
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- summaries --------------------------------------------------------

    def self_times(self):
        """Layer -> seconds spent in its own code, children excluded."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS + ("harness",), 0.0)
        for i, (_, layer, start, end, _) in enumerate(self.spans):
            out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
        return out

    def by_name(self):
        """Span name -> (calls, inclusive seconds)."""
        out = defaultdict(lambda: [0, 0.0])
        for name, _, start, end, _ in self.spans:
            out[name][0] += 1
            out[name][1] += end - start
        return {k: tuple(v) for k, v in out.items()}

    def layer_metrics(self):
        """The SPAN_METRICS figures plus per-layer self times."""
        names = self.by_name()
        out = {}
        for metric, (stat, spans) in SPAN_METRICS.items():
            if stat == "result":
                out[metric] = sum(self.results.get(s, 0) for s in spans)
            else:
                i = 0 if stat == "calls" else 1
                out[metric] = sum(names.get(s, (0, 0.0))[i] for s in spans)
        for layer, seconds in self.self_times().items():
            out[f"self.{layer}_s"] = seconds
        return out
