"""Spans recorded from outside the program.

The tracer swaps wrappers into the module attributes through which wocd's
own callers look up each public function (``wocd.train.loss_and_gradients``,
``wocd.model.gcn_forward``, ``wocd.cli.load_edge_list`` ...). The matrix
returned by ``gcn_norm`` is handed out behind ``SpmmProxy``, which times every
``P @ Z``. Nothing inside ``src/`` changes, and ``traced`` restores every
attribute on exit.

Spans are kept in memory; ``Tracer.dump`` writes them as JSON lines.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module, attribute looked up by its caller, span name)
TARGETS = [
    ("wocd", "synth_graph", "graph.synth"),
    ("wocd.train", "sample_labels", "graph.sample_labels"),
    ("wocd.cli", "sample_labels", "graph.sample_labels"),
    ("wocd.cli", "load_edge_list", "graph.load_edges"),
    ("wocd.cli", "load_cover", "graph.load_cover"),
    ("wocd.cli", "write_cover", "graph.write_cover"),
    ("wocd.train", "identify_weak_cliques", "cliques.identify"),
    ("wocd.cli", "identify_weak_cliques", "cliques.identify"),
    ("wocd.train", "construct_pseudo_labels", "pseudo.construct"),
    ("wocd.cli", "construct_pseudo_labels", "pseudo.construct"),
    ("wocd.train", "refresh_pseudo_labels", "pseudo.refresh"),
    ("wocd.train", "initial_training", "train.initial"),
    ("wocd.train", "refined_training", "train.refined"),
    ("wocd.train", "gcn_norm", "model.gcn_norm"),
    ("wocd.train", "loss_and_gradients", "model.loss_and_gradients"),
    ("wocd.train", "adam_step", "model.adam"),
    ("wocd.train", "predict", "model.predict"),
    ("wocd.model", "predict", "model.predict"),
    ("wocd.model", "gcn_forward", "model.gcn_forward"),
    ("wocd.model", "gt_forward", "model.gt_forward"),
    ("wocd.train", "onmi", "metrics.onmi"),
    ("wocd.metrics", "onmi", "metrics.onmi"),
]

# spans whose arguments and result are kept until the operation's counters
# have been read, so counts are taken where the work happens
CAPTURED = {"cliques.identify", "pseudo.construct", "pseudo.refresh"}


@dataclass
class Span:
    name: str
    op: str  # spans of one operation (or one set-up) share this id
    parent: int  # index into Tracer.spans, -1 at the top
    start: float
    end: float = 0.0
    nbytes: int = 0  # computed bytes moved, for sparse products

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    op: str = ""
    captured: dict = field(default_factory=lambda: defaultdict(list))
    _stack: list = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.op, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, nbytes: int = 0) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.nbytes = nbytes
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if name == "model.gcn_norm":
                out = SpmmProxy(out, self)
            if name in CAPTURED:
                self.captured[name].append((args, out))
            return out
        return wrapper

    def take_captured(self) -> dict:
        out, self.captured = self.captured, defaultdict(list)
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "op": s.op,
                                     "parent": s.parent, "start": s.start,
                                     "end": s.end, "bytes": s.nbytes}) + "\n")


class SpmmProxy:
    """Stands in for the normalized adjacency; the model only applies
    ``p_mat @ Z``. Bytes moved per product are the CSR arrays plus the dense
    operand and result, computed, not measured."""

    __array_ufunc__ = None  # make ndarray @ proxy defer to __rmatmul__

    def __init__(self, matrix, tracer: Tracer):
        self.matrix = matrix
        self._tracer = tracer
        self._nbytes = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes

    def __matmul__(self, other):
        idx = self._tracer.open("model.spmm")
        out = None
        try:
            out = self.matrix @ other
        finally:
            moved = self._nbytes + getattr(other, "nbytes", 0) + getattr(out, "nbytes", 0)
            self._tracer.close(idx, moved)
        return out

    def __rmatmul__(self, other):
        return other @ self.matrix

    def __getattr__(self, name):
        return getattr(self.matrix, name)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def per_op_totals(spans: list) -> dict:
    """op id -> {span name -> (inclusive seconds, self seconds, calls)}."""
    selfs = self_times(spans)
    out: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
    for s, st in zip(spans, selfs):
        acc = out[s.op][s.name]
        acc[0] += s.duration
        acc[1] += st
        acc[2] += 1
    return out


def epoch_stats(spans: list, ops: set) -> dict:
    """Per-epoch figures over the loss_and_gradients spans of ``ops``.

    An epoch is one ``loss_and_gradients`` call plus the ``adam_step`` that
    follows it; sparse products count toward the epoch whose
    ``loss_and_gradients`` span encloses them.
    """
    epochs, spmm_calls, spmm_bytes = [], 0, 0
    lg_spans = set()
    pending = None
    for i, s in enumerate(spans):
        if s.op not in ops:
            continue
        if s.name == "model.loss_and_gradients":
            lg_spans.add(i)
            pending = s.duration
        elif s.name == "model.adam" and pending is not None:
            epochs.append(pending + s.duration)
            pending = None
        elif s.name == "model.spmm":
            p = s.parent
            while p >= 0 and p not in lg_spans:
                p = spans[p].parent
            if p >= 0:
                spmm_calls += 1
                spmm_bytes += s.nbytes
    return {"epochs": epochs, "spmm_calls": spmm_calls, "spmm_bytes": spmm_bytes,
            "n_epochs": len(lg_spans)}
