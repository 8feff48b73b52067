"""Span recorder for traced benchmark passes.

Spans are recorded from outside the program: each target function is
wrapped, and the wrapper is bound in place of the original in every
``ccc`` module namespace that holds it. ``src/`` binds names at import
(``from .kernels import crowd_grads``), so rebinding only the defining
module would miss the callers that matter; rebinding every namespace
that holds the same object catches the defining module, each consumer
and the package re-exports alike.

A span is ``(id, parent id, name, start, end)``. Spans stay in memory
and are written out when the run ends. A target that a refactor has
removed is listed as absent and reports zero calls.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _save_format(args, kwargs):
    return kwargs.get("features_format", args[2] if len(args) > 2 else "csv")


def _load_format(args, kwargs):
    meta = Path(args[0] if args else kwargs["directory"]) / "meta.json"
    try:
        features_file = json.loads(meta.read_text()).get("features_file", "")
    except (OSError, ValueError):
        return "csv"
    return "bin" if features_file.endswith(".bin") else "csv"


def _count_crowd_grads(args, kwargs, counts):
    # crowd_grads(P, ann_i, ann_r, ann_y, M, R): scatters A (C, C) blocks
    # into dM and A C-vectors into dZ, 8 bytes per float64 value.
    A, C = args[1].shape[0], args[0].shape[1]
    counts["kernels.crowd_grads.ann"] += A
    counts["kernels.crowd_grads.scatter_bytes_computed"] += 8 * (A * C * C + A * C)


def _count_hyper_grads(args, kwargs, counts):
    # hyper_grads(P, U, ann_i, ...): scatters A (C, C) blocks into dV.
    A, C = args[2].shape[0], args[0].shape[1]
    counts["kernels.hyper_grads.ann"] += A
    counts["kernels.hyper_grads.scatter_bytes_computed"] += 8 * A * C * C


# (module, function, format label or None, counter or None). A format
# label splits one function's spans by the features format it handles.
FORMATS = ("csv", "bin")
TARGETS = [
    ("simulate", "build_pool", None, None),
    ("simulate", "generate", None, None),
    ("kernels", "draw_labels", None, None),
    ("kernels", "select_k", None, None),
    ("kernels", "crowd_grads", None, _count_crowd_grads),
    ("kernels", "hyper_grads", None, _count_hyper_grads),
    ("data", "make_blobs", None, None),
    ("data", "save_dataset", _save_format, None),
    ("data", "load_dataset", _load_format, None),
    ("data", "save_eval_set", None, None),
    ("data", "load_eval_set", None, None),
    ("data", "evaluate_accuracy", None, None),
    ("data", "true_confusion_matrix", None, None),
    ("data", "confusion_distance", None, None),
    ("models", "batch_forward", None, None),
    ("models", "backprop", None, None),
    ("models", "sgd_step", None, None),
    ("models", "loss_and_grads", None, None),
    ("models", "save_model", None, None),
    ("models", "load_model", None, None),
    ("numerics", "kmeans", None, None),
    ("training", "train_majority", None, None),
    ("training", "train_crowdlayer", None, None),
    ("training", "train_ccc", None, None),
    ("training", "aggregate_majority", None, None),
    ("training", "make_batch", None, None),
    ("training", "distill_meta_set", None, None),
    ("training", "group_annotators", None, None),
    ("training", "correction_gradient", None, None),
]

COMMANDS = ("simulate", "inspect", "train", "eval")

COUNTERS = ("kernels.crowd_grads.ann", "kernels.crowd_grads.scatter_bytes_computed",
            "kernels.hyper_grads.ann", "kernels.hyper_grads.scatter_bytes_computed")


def span_names() -> list[str]:
    """Every span name a traced pass can report, in a fixed order."""
    names = [f"cli.{c}" for c in COMMANDS]
    for module, fn, label, _ in TARGETS:
        if label is None:
            names.append(f"{module}.{fn}")
        else:
            names += [f"{module}.{fn}.{fmt}" for fmt in FORMATS]
    return names


class Recorder:
    """Collects spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack = [0]
        self._next = 1
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Record a span around a block; yields the span id."""
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def _wrap(self, fn, name, label, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        perf = time.perf_counter

        # The bookkeeping of span() is inlined here: this runs on every
        # traced call, 125,000 times per pass on gen-io.
        def wrapper(*args, **kwargs):
            full = name if label is None else f"{name}.{label(args, kwargs)}"
            if count is not None:
                count(args, kwargs, counts)
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans.append((sid, parent, full, t0, t1))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Bind a span wrapper in place of every target in every ccc module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ccc" or n.startswith("ccc."))]
        for module, fn_name, label, count in TARGETS:
            name = f"{module}.{fn_name}"
            original = getattr(sys.modules.get(f"ccc.{module}"), fn_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(original, name, label, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and self time per span name.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        child = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for sid, _, name, t0, t1 in self.spans:
            rec = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += (t1 - t0) - child[sid]
        return out

    def count_within(self, root: int, name: str, skip_parent: str | None = None) -> int:
        """Spans called `name` under span `root`, optionally skipping those
        whose direct parent is called `skip_parent`."""
        parent_of = {sid: parent for sid, parent, _, _, _ in self.spans}
        name_of = {sid: n for sid, _, n, _, _ in self.spans}
        total = 0
        for sid, parent, n, _, _ in self.spans:
            if n != name or (skip_parent and name_of.get(parent) == skip_parent):
                continue
            node = sid
            while node and node != root:
                node = parent_of.get(node, 0)
            total += node == root
        return total
