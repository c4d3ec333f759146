"""Spans around the package's public functions, installed at runtime.

Only the traced run installs them; no source file of the package changes.
A span covers one call. It records the call count, the inclusive time and
the self time (inclusive time minus the time of the spans it encloses).
In memory mode it records instead the ``tracemalloc`` peak reached inside
the span, above the traced size at entry.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

# (span name, module of the hngen package, attribute path in that module)
TARGETS = [
    ("autodiff.backward", "autodiff", "Tensor.backward"),
    ("autodiff.AdamW.step", "autodiff", "AdamW.step"),
    ("gcl.init_graph", "gcl", "init_graph"),
    ("gcl.GraphNet.propagate", "gcl", "GraphNet.propagate"),
    ("cacai.LambdaHead", "cacai", "LambdaHead.__call__"),
    ("cacai.synthesize", "cacai", "synthesize"),
    ("cacai.select_positives", "cacai", "select_positives"),
    ("losses.j_gen", "losses", "j_gen"),
    ("losses.j_cz", "losses", "j_cz"),
    ("losses.j_gca", "losses", "j_gca"),
    ("losses.j_syn", "losses", "j_syn"),
    ("losses.np_loss", "losses", "np_loss"),
    ("backbone.embed", "backbone", "Backbone.embed"),
    ("backbone.embed_array", "backbone", "Backbone.embed_array"),
    ("datakit.sample_balanced", "datakit", "sample_balanced"),
    ("kernels.hadamard_pairs", "kernels", "hadamard_pairs"),
    ("kernels.hadamard_pairs_grad", "kernels", "hadamard_pairs_grad"),
    ("kernels.pairwise_sqdist", "kernels", "pairwise_sqdist"),
    ("kernels.pairwise_sqdist_grad", "kernels", "pairwise_sqdist_grad"),
    ("kernels.ranked_hits", "kernels", "ranked_hits"),
    ("evalkit.ranked_hits", "evalkit", "RetrievalIndex.ranked_hits"),
    ("evalkit.recall_at_k", "evalkit", "recall_at_k"),
    ("evalkit.r_precision", "evalkit", "r_precision"),
    ("evalkit.map_at_r", "evalkit", "map_at_r"),
    ("evalkit.evaluate_retrieval", "evalkit", "evaluate_retrieval"),
    ("trainer.train_step", "trainer", "Trainer.train_step"),
    ("trainer.save_checkpoint", "trainer", "save_checkpoint"),
    ("trainer.load_checkpoint", "trainer", "load_checkpoint"),
]

_MARK = "__perfbench_span__"


def _owner_and_attr(module: str, path: str):
    owner = importlib.import_module(f"hngen.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def wrapped_targets() -> list[str]:
    """Span names whose target is currently a wrapper rather than the original."""
    return [
        name for name, module, path in TARGETS
        if hasattr(getattr(*_owner_and_attr(module, path)), _MARK)
    ]


def _valid_lane_ratio(args, kwargs, out) -> float:
    return float(np.mean(out.valid))


def _ranked_prefix_used_ratio(args, kwargs, out) -> float:
    """(max(K, R_max) + 1) over the gallery size: the share of each ranked
    row that Recall@K, R-Precision and MAP@R can read."""
    index, ks = args[0], args[1]
    classes, counts = np.unique(index.gallery_labels, return_counts=True)
    present = np.isin(index.query_labels, classes)
    r_max = int(counts[np.searchsorted(classes, index.query_labels[present])].max())
    r_max -= 1 if index.exclude_self else 0
    return (max(max(ks), r_max) + 1) / index.gallery_z.shape[0]


# span -> (ratio name, function of the span's arguments and result)
OBSERVERS = {
    "cacai.synthesize": ("cacai.synthesize.valid_lane_ratio", _valid_lane_ratio),
    "evalkit.evaluate_retrieval": ("evalkit.ranked_prefix_used_ratio", _ranked_prefix_used_ratio),
}


@dataclass
class SpanStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    peak_bytes: int = 0


class _Frame:
    __slots__ = ("name", "start", "child_s", "mem_start", "seen_peak")

    def __init__(self, name: str, start: float, mem_start: int):
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.mem_start = mem_start
        self.seen_peak = 0


class Tracer:
    """Installs span wrappers on every target and collects their stats.

    ``memory=True`` measures ``tracemalloc`` peaks instead of times; the
    caller starts and stops ``tracemalloc`` around the traced work.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.stats: dict[str, SpanStat] = {}
        self.ratios: dict[str, float] = {}
        self._stack: list[_Frame] = []
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for name, module, path in TARGETS:
            owner, attr = _owner_and_attr(module, path)
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        observer = OBSERVERS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            if observer is not None:
                self.ratios[observer[0]] = observer[1](args, kwargs, out)
            return out

        setattr(span, _MARK, name)
        return span

    def _enter(self, name: str) -> None:
        mem_start = 0
        if self.memory:
            # the global peak is reset below; keep what the enclosing span saw
            mem_start, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1].seen_peak = max(self._stack[-1].seen_peak, peak)
            tracemalloc.reset_peak()
        self._stack.append(_Frame(name, time.perf_counter(), mem_start))

    def _exit(self) -> None:
        end = time.perf_counter()
        frame = self._stack.pop()
        stat = self.stats.setdefault(frame.name, SpanStat())
        elapsed = end - frame.start
        stat.calls += 1
        stat.total_s += elapsed
        stat.self_s += elapsed - frame.child_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_s += elapsed
        if self.memory:
            peak = max(tracemalloc.get_traced_memory()[1], frame.seen_peak)
            stat.peak_bytes = max(stat.peak_bytes, peak - frame.mem_start)
            if parent is not None:
                parent.seen_peak = max(parent.seen_peak, peak)
            tracemalloc.reset_peak()
