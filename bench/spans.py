"""Span recorder for the benchmark's traced run, and the per-layer metrics.

The traced run times calls into each ``fade`` module's public functions from
outside the package: ``install`` replaces module attributes with timing
wrappers.  ``from x import y`` binds ``y`` into the importer at import time,
so a wrapper goes on every ``fade`` module attribute that holds the original
function, not only on its defining module; the originals are restored
afterwards.  Spans are kept in memory and written out once at the end.

A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# Functions timed in the traced run, by defining module.  A name a later
# version of the package no longer has is reported as missing, not an error.
HOOKS: dict[str, tuple[str, ...]] = {
    "fade.cli": ("main", "_ablate_one_seed"),
    "fade.data": ("load_dataset", "normalized_adjacency"),
    "fade.synthgen": ("generate",),
    "fade.encoder": ("encode_all", "encode_batch_node"),
    "fade.augmentation": ("augment", "select_augmentation", "derive_rng"),
    "fade.autodiff": ("backward", "adam_step"),
    "fade.predictors": (
        "train_target",
        "train_event_only",
        "ce_loss",
        "contrastive_loss",
        "save_checkpoint",
        "load_checkpoint",
    ),
    "fade.inference": ("sweep_beta", "predict"),
}

ROOT_SPAN = "cli.main"
TRAINERS = ("predictors.train_target", "predictors.train_event_only")


@dataclass(frozen=True, slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run_id: str
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any thread; parents come from a per-thread stack."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def call(self, name: str, fn, args, kwargs, attrs: dict | None = None):
        """Run ``fn`` inside a span.  ``attrs`` may be filled in after the call."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, name, start, end, parent, threading.get_ident(), self.run_id, attrs)
            )

    def write(self, path, missing=()) -> None:
        names = sorted({s.name for s in self.spans})
        threads = sorted({s.thread for s in self.spans})
        name_ix = {n: i for i, n in enumerate(names)}
        thread_ix = {t: i for i, t in enumerate(threads)}
        rows = [
            [s.id, name_ix[s.name], s.start, s.end, s.parent, thread_ix[s.thread], s.attrs]
            for s in self.spans
        ]
        payload = {"run_id": self.run_id, "missing": list(missing), "names": names, "spans": rows}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def read_spans(path) -> tuple[list[Span], list[str]]:
    """Spans and missing hook names from a file ``SpanRecorder.write`` made."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    names, run_id = payload["names"], payload["run_id"]
    spans = [
        Span(sid, names[n], start, end, parent, thread, run_id, attrs)
        for sid, n, start, end, parent, thread, attrs in payload["spans"]
    ]
    return spans, payload["missing"]


# ---------------------------------------------------------------------------
# wrappers


def _plain(rec: SpanRecorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs)

    return wrapper


def _forward(rec: SpanRecorder, name: str, fn):
    """Records the node count of the graphs in each batched forward pass."""
    sig = inspect.signature(fn)
    if "graphs" not in sig.parameters:
        return _plain(rec, name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        graphs = sig.bind(*args, **kwargs).arguments["graphs"]
        return rec.call(name, fn, args, kwargs, {"nodes": sum(g.n for g in graphs)})

    return wrapper


def _selection(rec: SpanRecorder, name: str, fn):
    """Counts candidates scored, candidates that kept the label, and fallbacks."""
    sig = inspect.signature(fn)
    if not {"directions", "classify_fn", "label"} <= set(sig.parameters):
        return _plain(rec, name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        arguments = bound.arguments
        classify, label = arguments["classify_fn"], int(arguments["label"])
        attrs = {"candidates": len(arguments["directions"]), "kept": 0}

        def counting_classify(candidate):
            z = classify(candidate)
            if int(np.argmax(z)) == label:
                attrs["kept"] += 1
            return z

        arguments["classify_fn"] = counting_classify
        result = rec.call(name, fn, bound.args, bound.kwargs, attrs)
        attrs["fallback"] = bool(result[1])
        return result

    return wrapper


_WRAPPERS = {
    "encoder.encode_batch_node": _forward,
    "augmentation.select_augmentation": _selection,
}


def span_name(module: str, function: str) -> str:
    return f"{module.removeprefix('fade.')}.{function}"


@contextmanager
def install(rec: SpanRecorder, hooks: dict[str, tuple[str, ...]] = HOOKS):
    """Wrap every hooked function wherever a ``fade`` module binds it.

    Yields the hook names that were not found.  Restores the originals on
    exit.
    """
    for module in hooks:
        importlib.import_module(module)
    fade_modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "fade" or name.startswith("fade."))
    ]
    swaps = []
    missing = []
    try:
        for module, functions in hooks.items():
            for function in functions:
                name = span_name(module, function)
                original = getattr(sys.modules[module], function, None)
                if original is None:
                    missing.append(name)
                    continue
                wrapper = _WRAPPERS.get(name, _plain)(rec, name, original)
                for m in fade_modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            swaps.append((m, attr, original))
        yield missing
    finally:
        for m, attr, original in reversed(swaps):
            setattr(m, attr, original)


# ---------------------------------------------------------------------------
# analysis


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())
        )
        out[s.id] = s.duration - covered
    return out


def uncovered_time(spans: list[Span], root: str = ROOT_SPAN) -> float:
    """Time inside the root span that no other span, on any thread, covers."""
    roots = [s for s in spans if s.name == root]
    if not roots:
        return 0.0
    total = 0.0
    for r in roots:
        others = [
            (max(s.start, r.start), min(s.end, r.end)) for s in spans if s.name != root
        ]
        total += r.duration - union_length(others)
    return total


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def trainer_breakdown(spans: list[Span]) -> dict:
    """Per trainer: its time, the self time of each layer under it, and counts.

    This is where "augmentation is most of train_target" can be read off.
    """
    by_id = {s.id: s for s in spans}
    self_t = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        trainer = s if s.name in TRAINERS else None
        p = s.parent
        while trainer is None and p is not None:
            anc = by_id[p]
            if anc.name in TRAINERS:
                trainer = anc
            p = anc.parent
        if trainer is None:
            continue
        entry = out.setdefault(
            trainer.name, {"spans": set(), "s": 0.0, "layer_self_s": defaultdict(float),
                           "calls": defaultdict(int), "candidates_scored": 0}
        )
        if s is trainer:
            entry["spans"].add(s.id)
            entry["s"] += s.duration
        entry["layer_self_s"][_layer(s.name)] += self_t[s.id]
        entry["calls"][s.name] += 1
        if s.attrs and "candidates" in s.attrs:
            entry["candidates_scored"] += s.attrs["candidates"]
    for entry in out.values():
        entry["invocations"] = len(entry.pop("spans"))
        entry["layer_self_s"] = dict(entry["layer_self_s"])
        entry["calls"] = dict(entry["calls"])
    return out


def layer_metrics(
    spans: list[Span], traced_wall_s: float, untraced_wall_s: float, workers: int
) -> dict[str, float]:
    """The per-layer metric values named in BENCHMARK.json."""
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_sum: dict[str, float] = defaultdict(float)
    self_t = self_times(spans)
    nodes_max = 0
    candidates = kept = fallbacks = selections = 0
    for s in spans:
        total[s.name] += s.duration
        calls[s.name] += 1
        self_sum[s.name] += self_t[s.id]
        attrs = s.attrs or {}
        nodes_max = max(nodes_max, attrs.get("nodes", 0))
        if "candidates" in attrs:
            selections += 1
            candidates += attrs["candidates"]
            kept += attrs["kept"]
            fallbacks += attrs.get("fallback", False)
    return {
        "data.load_s": total["data.load_dataset"],
        "data.adjacency_calls": calls["data.normalized_adjacency"],
        "data.adjacency_s": total["data.normalized_adjacency"],
        "synthgen.generate_s": total["synthgen.generate"],
        "encoder.forward_calls": calls["encoder.encode_batch_node"],
        "encoder.forward_self_s": self_sum["encoder.encode_batch_node"],
        "encoder.encode_all_s": total["encoder.encode_all"],
        "encoder.nodes_per_call_max": nodes_max,
        # Computed, not measured: one float64 dense (sum N)^2 matrix.
        "encoder.dense_adj_mb_max": nodes_max * nodes_max * 8 / 2**20,
        "augmentation.augment_calls": calls["augmentation.augment"],
        "augmentation.augment_s": total["augmentation.augment"],
        "augmentation.candidates_scored": candidates,
        "augmentation.candidate_keep_ratio": kept / candidates if candidates else 0.0,
        "augmentation.fallback_rate": fallbacks / selections if selections else 0.0,
        "augmentation.rng_streams": calls["augmentation.derive_rng"],
        "autodiff.backward_calls": calls["autodiff.backward"],
        "autodiff.backward_s": total["autodiff.backward"],
        "autodiff.adam_s": total["autodiff.adam_step"],
        "predictors.train_target_s": total["predictors.train_target"],
        "predictors.train_event_only_s": total["predictors.train_event_only"],
        "predictors.loss_s": total["predictors.ce_loss"] + total["predictors.contrastive_loss"],
        "predictors.self_s": sum(self_sum[t] for t in TRAINERS),
        "predictors.checkpoint_io_s": (
            total["predictors.save_checkpoint"] + total["predictors.load_checkpoint"]
        ),
        "inference.sweep_beta_s": total["inference.sweep_beta"],
        "inference.predict_s": total["inference.predict"],
        "cli.ablate_busy_share": total["cli._ablate_one_seed"] / (traced_wall_s * workers),
        "trace.overhead_ratio": traced_wall_s / untraced_wall_s,
        "trace.uncovered_s": uncovered_time(spans),
    }
