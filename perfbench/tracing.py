"""Span tracer for the benchmark's traced runs.

The package carries no timers of its own, so the tracer works from outside:
it replaces the module-level names that ite_bench callers resolve at call
time (``batch_loss`` and ``predict_all_outcomes`` look up
``ite_bench.model.mlp_forward`` in the model module's globals, ``cmd_sweep``
looks up ``ite_bench.cli.run_sweep``, and so on) with wrappers that record
one span per call, and puts the originals back on ``uninstall``. Spans stay
in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np


def _forward_flops(params, x, *_args, **_kwargs) -> int:
    """GEMM flops of one forward pass: one multiply-add per weight per row."""
    rows = np.shape(x)[0] if np.ndim(x) == 2 else 1
    return 2 * rows * sum(w.size for w, _ in params.layers)


def _backward_flops(params, cache, *_args, **_kwargs) -> int:
    """Weight-gradient and input-gradient GEMMs: two multiply-adds per weight per row."""
    return 4 * cache.inputs[0].shape[0] * sum(w.size for w, _ in params.layers)


def _gram_entries(groups, *_args, **_kwargs) -> int:
    """Kernel entries evaluated by the per-pair MMD: m^2 + n^2 + mn for each pair."""
    sizes = [len(g) for g in groups.values() if len(g)]
    return sum(m * m + n * n + m * n for i, m in enumerate(sizes) for n in sizes[i + 1 :])


# span name -> (the (module, attribute) bindings that route to the function,
#               optional counter of the work one call does)
BINDINGS: dict[str, tuple[list[tuple[str, str]], Callable[..., int] | None]] = {
    "cli.main": ([("ite_bench.cli", "main")], None),
    "experiments.run_sweep": (
        [("ite_bench.cli", "run_sweep"), ("ite_bench.experiments", "run_sweep")], None
    ),
    "simulate.simulate": (
        [("ite_bench.simulate", "simulate_dataset"), ("ite_bench.experiments", "simulate_dataset")],
        None,
    ),
    "simulate.save": (
        [("ite_bench.simulate", "save_dataset"), ("ite_bench.experiments", "save_dataset")], None
    ),
    "simulate.load": (
        [
            ("ite_bench.simulate", "load_dataset"),
            ("ite_bench.experiments", "load_dataset"),
            ("ite_bench.cli", "load_dataset"),
        ],
        None,
    ),
    "model.train": (
        [("ite_bench.model", "train"), ("ite_bench.experiments", "train"), ("ite_bench.cli", "train")],
        None,
    ),
    "model.batch_loss": ([("ite_bench.model", "batch_loss")], None),
    "model.validation": ([("ite_bench.model", "factual_predictions")], None),
    "model.ckpt_save": (
        [
            ("ite_bench.model", "save_checkpoint"),
            ("ite_bench.experiments", "save_checkpoint"),
            ("ite_bench.cli", "save_checkpoint"),
        ],
        None,
    ),
    "model.ckpt_load": (
        [("ite_bench.model", "load_checkpoint"), ("ite_bench.experiments", "load_checkpoint")],
        None,
    ),
    "nn.forward": ([("ite_bench.model", "mlp_forward")], _forward_flops),
    "nn.backward": ([("ite_bench.model", "mlp_backward")], _backward_flops),
    "nn.sgd_step": ([("ite_bench.model", "sgd_step")], None),
    "mmd.balance": ([("ite_bench.model", "treatment_regularization_loss")], _gram_entries),
    "metrics.evaluate": (
        [("ite_bench.metrics", "evaluate_model"), ("ite_bench.experiments", "evaluate_model")],
        None,
    ),
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    stop: int  # spans[index + 1 : stop] are this span's descendants
    work: int  # computed flops or Gram entries; 0 where nothing is counted


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, Callable]] = []
        self._pid = os.getpid()

    def _enter(self) -> tuple[int, float]:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, time.perf_counter()

    def _exit(self, idx: int, name: str, start: float, work: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = Span(name, start, end, parent, len(self.spans), work)

    @contextlib.contextmanager
    def span(self, name: str):
        idx, start = self._enter()
        try:
            yield
        finally:
            self._exit(idx, name, start, 0)

    def _wrap(self, name: str, fn: Callable, count: Callable[..., int] | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # sweep workers are forked with the wrappers in place; they are not traced
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            work = count(*args, **kwargs) if count else 0
            idx, start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx, name, start, work)

        return traced

    def install(self) -> None:
        for name, (bindings, count) in BINDINGS.items():
            for module_name, attr in bindings:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._originals.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, count))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.parent == -1 and s.name == name]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps({"name": s.name, "start": s.start, "end": s.end, "parent": s.parent})
                    + "\n"
                )


@dataclass
class Summary:
    """Per-layer totals over one root span's descendants."""

    wall: float
    dur: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    # GEMM flops of one epoch, one entry per train call
    flops_per_epoch: list[int] = field(default_factory=list)
    # MMD Gram entries of each epoch trained
    gram_per_epoch: list[int] = field(default_factory=list)
    # direct children of run_sweep: the parent-side work outside the pool
    sweep_children_s: float = 0.0
    sweep_ckpt_reads: int = 0


def summarize(spans: list[Span], root: int) -> Summary:
    top = spans[root]
    inner = range(root + 1, top.stop)
    out = Summary(wall=top.end - top.start)
    child_s: dict[int, float] = defaultdict(float)
    for i in inner:
        child_s[spans[i].parent] += spans[i].end - spans[i].start
    for i in inner:
        s = spans[i]
        d = s.end - s.start
        out.dur[s.name] += d
        out.self_s[s.name] += d - child_s[i]
        out.calls[s.name] += 1
        if s.parent >= 0 and spans[s.parent].name == "experiments.run_sweep":
            out.sweep_children_s += d
            out.sweep_ckpt_reads += s.name == "model.ckpt_load"
        if s.name == "model.train":
            _split_epochs(spans, i, out)
    return out


def _split_epochs(spans: list[Span], train: int, out: Summary) -> None:
    # every epoch ends with one validation call, and every epoch does the same
    # GEMM work (each sample passes one head), so flops divide exactly
    epochs = flops = gram = 0
    for s in spans[train + 1 : spans[train].stop]:
        if s.name in ("nn.forward", "nn.backward"):
            flops += s.work
        elif s.name == "mmd.balance":
            gram += s.work
        elif s.name == "model.validation":
            epochs += 1
            out.gram_per_epoch.append(gram)
            gram = 0
    if epochs:
        out.flops_per_epoch.append(flops // epochs)
