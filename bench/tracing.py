"""Spans around the public entry points of each sparserec layer.

The traced run wraps the functions and methods in ``TARGETS`` from the
outside (the program itself carries no tracing).  Each call records a
span: name, trial id, parent span, start and end.  Self time is a span's
duration minus the durations of its direct child spans.  Counts are
taken at the same boundaries from the call's arguments and result.
Spans stay in memory; ``Tracer.dump`` writes them out at the end.

A target that no longer exists is an error naming it, so a refactor
cannot silently zero a layer metric.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "trial", "parent", "start", "end", "child", "counts")

    def __init__(self, name, trial, parent):
        self.name = name
        self.trial = trial
        self.parent = parent
        self.start = self.end = self.child = 0.0
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.trial = None
        self._stack: list[int] = []

    def wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, self.trial, parent)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent].child += span.end - span.start
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "trial": s.trial,
                    "parent": s.parent, "start": s.start, "end": s.end,
                    "counts": s.counts}) + "\n")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(pos, name, key):
    return lambda a, k, r: {key: len(_arg(a, k, pos, name))}


def _weak_identify(a, k, r):
    return {"weak.candidates": len(_arg(a, k, 2, "candidates")),
            "weak.identified": len(r)}


def _list_recover(a, k, r):
    sets = _arg(a, k, 1, "child_sets")
    return {"codes.list_in": sum(len(s) for s in sets), "codes.list_out": len(r)}


def _tree_identify(a, k, r):
    tree = a[0]
    found, info = r
    leaves = {v.node_id for v in tree.nodes if not v.children}
    scanned = sum(rec["candidates"] for rec in info["nodes"] if rec["node"] in leaves)
    return {"recursive.leaf_candidates": scanned, "recursive.survivors": len(found)}


def _invert(a, k, r):
    return {"recursive.invert_dropped": len(_arg(a, k, 1, "det")) - len(r)}


# (module, attribute path, span name, counter).  A span's layer is the
# part of its name before the first dot.
TARGETS = [
    ("sparserec.hashing", "SignFamily.sign_vec", "hashing.sign_vec",
     _rows(1, "i", "hashing.sign_evals")),
    ("sparserec.expander", "BipartiteGraph.neighbors_of", "expander.neighbors",
     _rows(1, "indices", "expander.neighbor_rows")),
    ("sparserec.expander", "SignedSketchOperator.apply_sparse", "expander.apply",
     _rows(1, "indices", "expander.apply_entries")),
    ("sparserec.expander", "SignedSketchOperator.readings", "expander.readings",
     _rows(2, "indices", "expander.readings_rows")),
    ("sparserec.expander", "SignedSketchOperator.build", "expander.build", None),
    ("sparserec.weak", "WeakLayer.encode_sparse", "weak.encode", None),
    ("sparserec.weak", "WeakLayer.identify", "weak.identify", _weak_identify),
    ("sparserec.weak", "WeakLayer.estimate", "weak.estimate", None),
    ("sparserec.weak", "median_estimates", "weak.median", None),
    ("sparserec.recursive", "NodeCode.list_recover_pairs", "codes.list_recover",
     _list_recover),
    ("sparserec.recursive", "NodeCode.encode_part_vec", "codes.encode_part", None),
    ("sparserec.recursive", "RecursionTree.encode_sparse", "recursive.encode", None),
    ("sparserec.recursive", "RecursionTree.identify", "recursive.identify",
     _tree_identify),
    ("sparserec.recursive", "Scheme2Map.invert", "recursive.invert", _invert),
    ("sparserec.toplevel", "TopLevelSystem.encode", "toplevel.encode", None),
    ("sparserec.toplevel", "TopLevelSystem.decode", "toplevel.decode", None),
    ("sparserec.fields", "FieldSpec.prime", "fields.build", None),
    ("sparserec.fields", "FieldSpec.binary", "fields.build", None),
    ("sparserec.fields", "FieldSpec.mul_vec", "fields.mul_vec", None),
]


@contextmanager
def instrumented(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    undo = []
    try:
        for module_name, path, name, count in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = (inspect.getattr_static(owner, attr, None)
                   if owner is not None else None)
            if raw is None:
                raise RuntimeError(f"trace target {module_name}.{path} is missing")
            if isinstance(raw, staticmethod):
                new = staticmethod(tracer.wrap(name, raw.__func__, count))
            else:
                new = tracer.wrap(name, raw, count)
            setattr(owner, attr, new)
            undo.append((owner, attr, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


# -- per-layer metrics ---------------------------------------------------

SELF_TIMES = {
    "hashing.sign_s": "hashing.sign_vec",
    "expander.neighbors_s": "expander.neighbors",
    "expander.apply_s": "expander.apply",
    "expander.readings_s": "expander.readings",
    "weak.identify_s": "weak.identify",
    "weak.median_s": "weak.median",
    "weak.estimate_s": "weak.estimate",
    "codes.list_recover_s": "codes.list_recover",
    "codes.encode_part_s": "codes.encode_part",
    "recursive.identify_s": "recursive.identify",
    "recursive.invert_s": "recursive.invert",
    "recursive.encode_s": "recursive.encode",
    "toplevel.decode_self_s": "toplevel.decode",
    "toplevel.encode_self_s": "toplevel.encode",
    "fields.mul_vec_s": "fields.mul_vec",
}
SETUP_SELF_TIMES = {
    "expander.build_s": "expander.build",
    "fields.table_build_s": "fields.build",
}
COUNTS = [
    "hashing.sign_evals", "expander.neighbor_rows", "expander.apply_entries",
    "expander.readings_rows", "weak.candidates", "weak.identified",
    "codes.list_in", "codes.list_out", "recursive.leaf_candidates",
    "recursive.truncations", "recursive.survivors", "recursive.invert_dropped",
]
RESIDUAL_ENCODERS = ("recursive.encode", "weak.encode")


def trial_metrics(spans: list[Span], all_spans: list[Span],
                  n_stages: int) -> dict[str, float]:
    """Self times, counts and derived values of one signal's spans;
    parents are indices into `all_spans`."""
    out = dict.fromkeys(SELF_TIMES, 0.0) | dict.fromkeys(COUNTS, 0)
    by_span = {span: metric for metric, span in SELF_TIMES.items()}
    out["toplevel.residual_encode_s"] = 0.0
    stages_run = 0
    for s in spans:
        metric = by_span.get(s.name)
        if metric is not None:
            out[metric] += s.self_time
        if s.counts:
            for key, value in s.counts.items():
                out[key] += value
        if s.parent >= 0 and all_spans[s.parent].name == "toplevel.decode":
            if s.name in RESIDUAL_ENCODERS:
                out["toplevel.residual_encode_s"] += s.duration
            elif s.name == "weak.estimate":
                stages_run += 1
    decodes = sum(1 for s in spans if s.name == "toplevel.decode")
    out["toplevel.stages_run"] = stages_run
    out["toplevel.stages_skipped"] = n_stages * decodes - stages_run
    out["hashing.sign_ns_per_eval"] = _ratio(out["hashing.sign_s"] * 1e9,
                                             out["hashing.sign_evals"])
    out["weak.candidates_per_identified"] = _ratio(out["weak.candidates"],
                                                   out["weak.identified"])
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def summarize(tracer: Tracer, trials: list, n_stages: int,
              truncations: dict) -> tuple[dict[str, float], dict]:
    """Per-signal medians of the per-layer metrics, plus the layer shares
    of traced self time (for the workload design check)."""
    grouped: dict = {t: [] for t in trials}
    setup = []
    for s in tracer.spans:
        if s.trial == "setup":
            setup.append(s)
        elif s.trial in grouped:
            grouped[s.trial].append(s)
    per_trial = []
    for t in trials:
        m = trial_metrics(grouped[t], tracer.spans, n_stages)
        m["recursive.truncations"] += truncations.get(t, 0)
        per_trial.append(m)
    metrics = {key: statistics.median(m[key] for m in per_trial)
               for key in per_trial[0]}
    for metric, name in SETUP_SELF_TIMES.items():
        metrics[metric] = sum(s.self_time for s in setup if s.name == name)

    spans = [s for t in trials for s in grouped[t]]
    layers: dict[str, float] = {}
    for s in spans:
        layer = s.name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + s.self_time
    decode_total = sum(s.duration for s in spans if s.name == "toplevel.decode")
    list_recover = sum(s.self_time for s in spans if s.name == "codes.list_recover")
    total = sum(layers.values())
    design = {
        "layer_share": {k: v / total for k, v in sorted(layers.items())},
        "top_layer": max(layers, key=layers.get),
        "list_recover_share_of_decode": _ratio(list_recover, decode_total),
    }
    return metrics, design


# Every per-layer metric in report order, with its unit.  The trace.*
# entries are added by the harness, which times the untraced pass.
PER_LAYER_UNITS = {
    "hashing.sign_s": "s", "hashing.sign_evals": "count",
    "hashing.sign_ns_per_eval": "ns",
    "expander.neighbors_s": "s", "expander.neighbor_rows": "count",
    "expander.apply_s": "s", "expander.apply_entries": "count",
    "expander.readings_s": "s", "expander.readings_rows": "count",
    "expander.build_s": "s",
    "weak.identify_s": "s", "weak.median_s": "s", "weak.estimate_s": "s",
    "weak.candidates": "count", "weak.identified": "count",
    "weak.candidates_per_identified": "ratio",
    "codes.list_recover_s": "s", "codes.list_in": "count",
    "codes.list_out": "count", "codes.encode_part_s": "s",
    "recursive.identify_s": "s", "recursive.leaf_candidates": "count",
    "recursive.truncations": "count", "recursive.survivors": "count",
    "recursive.invert_s": "s", "recursive.invert_dropped": "count",
    "recursive.encode_s": "s",
    "toplevel.decode_self_s": "s", "toplevel.encode_self_s": "s",
    "toplevel.residual_encode_s": "s", "toplevel.stages_run": "count",
    "toplevel.stages_skipped": "count",
    "fields.table_build_s": "s", "fields.mul_vec_s": "s",
    "trace.overhead_ms": "ms", "trace.overhead_pct": "%",
}
