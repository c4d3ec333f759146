"""Retrieval metrics and embedding diagnostics.

Streaming exact evaluation. Items rank by cosine similarity descending, ties
broken by gallery index ascending. Recall@K counts queries with a same-class
item in the top K; R-Precision scores the top R, where R is the query's
same-class gallery count (less the query itself under self-exclusion);
MAP@R averages precision at each relevant rank up to R. These read only the
first ``max(max(K), max(R))`` ranks, so ``evaluate_retrieval`` has
``RetrievalIndex.ranked_hits`` rank only that prefix, block by block of
query rows, and computes every metric from its relevance flags (the
metric functions are pure functions of those flags and of R). The blocks
are spread over the cores this process may run on, one thread and one
similarity buffer per core, sized so that at most ``_BLOCK_SIMS``
similarities are in flight. Each row's cut is the ``width``-th largest
maximum over strided groups of gallery columns, a lower bound on its
``width``-th similarity; only the items at or above the cut are stably
sorted by -similarity, so ties at the cut need no path of their own.
The result equals the prefix of a full stable sort bit for bit, whatever
the core count, in O(_BLOCK_SIMS + n_queries * width) memory.
Rows must be finite and unit-norm. Also per-dimension means and variances
and a deterministic 2-D principal-component projection.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ConfigurationError, ShapeError

# similarities in flight over all blocks being ranked (8 MiB of float64)
_BLOCK_SIMS = 1 << 20


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@dataclass
class EvalConfig:
    """Holdout evaluation: the recall cutoffs and the per-class holdout size."""

    ks: list[int] = field(default_factory=lambda: [1, 2, 4, 8])
    holdout_per_class: int = 10

    def validate(self) -> None:
        if not self.ks or not all(k >= 1 for k in self.ks):
            raise ConfigurationError(f"eval.ks must be a non-empty list of integers >= 1, got {self.ks!r}")
        if self.holdout_per_class < 2:  # each query needs a same-class gallery item
            raise ConfigurationError("eval.holdout_per_class must be >= 2")


@dataclass
class RetrievalIndex:
    gallery_z: np.ndarray
    gallery_labels: np.ndarray
    query_z: np.ndarray
    query_labels: np.ndarray
    exclude_self: bool

    def __post_init__(self):
        single = self.query_z is self.gallery_z  # one set, checked once
        self.gallery_z = np.asarray(self.gallery_z, dtype=np.float64)
        self.query_z = self.gallery_z if single else np.asarray(self.query_z, dtype=np.float64)
        self.gallery_labels = np.asarray(self.gallery_labels, dtype=np.int64)
        self.query_labels = np.asarray(self.query_labels, dtype=np.int64)
        if self.gallery_z.shape[1] != self.query_z.shape[1]:
            raise ShapeError("query and gallery dims differ")
        for z in (self.gallery_z,) if single else (self.gallery_z, self.query_z):
            # the ranking kernel needs finite similarities (-inf aside)
            if not np.all(np.isfinite(z)):
                raise ShapeError("retrieval index expects finite rows")
            kernels.check_unit_rows(z, "retrieval index")
        if self.exclude_self and self.gallery_z.shape[0] != self.query_z.shape[0]:
            raise ShapeError("self-exclusion requires query set == gallery set")

    @classmethod
    def single_set(cls, z: np.ndarray, labels: np.ndarray) -> "RetrievalIndex":
        """CUB/Cars/SOP-style protocol: queries retrieve from themselves."""
        return cls(z, labels, z, labels, exclude_self=True)

    @classmethod
    def query_gallery(cls, query_z, query_labels, gallery_z, gallery_labels) -> "RetrievalIndex":
        """InShop-style protocol with disjoint query and gallery subsets."""
        return cls(gallery_z, gallery_labels, query_z, query_labels, exclude_self=False)

    @property
    def effective_gallery_size(self) -> int:
        return self.gallery_z.shape[0] - (1 if self.exclude_self else 0)

    def relevant_counts(self) -> np.ndarray:
        """R per query: its same-class gallery items, itself excluded."""
        g = np.sort(self.gallery_labels)
        r = np.searchsorted(g, self.query_labels, "right") - np.searchsorted(g, self.query_labels)
        return r - 1 if self.exclude_self else r

    def ranked_hits(self, width: int) -> np.ndarray:
        """Relevance flags of each query's top ``width`` gallery items,
        ``(n_queries, width)`` uint8.

        With ``W`` workers, one per core this process may run on (at most
        one per block), the query rows split into blocks of
        ``_BLOCK_SIMS // (n_gallery * W)`` rows and worker ``w`` ranks
        blocks ``w, w + W, ...`` in a similarity buffer allocated once, so
        at most ``_BLOCK_SIMS`` similarities are in flight (one row per
        worker where a gallery is larger). One worker runs inline. Each
        row is ranked from its own similarities alone, so the flags do not
        depend on the core count.
        """
        if not 0 <= width <= self.effective_gallery_size:
            raise ValueError(
                f"prefix width {width} outside [0, {self.effective_gallery_size}]"
            )
        nq, ng = self.query_z.shape[0], self.gallery_z.shape[0]
        per_gallery = max(ng, 1)
        one_worker_blocks = -(-nq // max(1, _BLOCK_SIMS // per_gallery))
        workers = max(1, min(_cores(), one_worker_blocks))
        rows = max(1, _BLOCK_SIMS // (per_gallery * workers))  # >= workers blocks
        starts = range(0, nq, rows)
        # allocated here, not in the workers: a thread's own malloc arena
        # cannot reuse the heap the caller has freed
        bufs = [np.empty((min(rows, nq), ng)) for _ in range(workers)]
        hits = np.empty((nq, width), dtype=np.uint8)

        def rank(w: int) -> None:
            for q0 in starts[w::workers]:
                q1 = min(q0 + rows, nq)
                sims = np.matmul(self.query_z[q0:q1], self.gallery_z.T, out=bufs[w][: q1 - q0])
                if self.exclude_self:
                    # similarities are finite and width <= n - 1, so a -inf
                    # item never reaches the prefix: the same as dropping it
                    sims[np.arange(q1 - q0), np.arange(q0, q1)] = -np.inf
                hits[q0:q1] = kernels.ranked_hits(
                    sims, self.query_labels[q0:q1], self.gallery_labels, width
                )

        if workers == 1:
            rank(0)
        else:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                for done in [pool.submit(rank, w) for w in range(workers)]:
                    done.result()
        return hits


@dataclass
class MetricReport:
    recall_at: dict[int, float] = field(default_factory=dict)
    r_precision: float = 0.0
    map_at_r: float = 0.0
    n_queries: int = 0
    n_skipped: int = 0

    def to_dict(self) -> dict:
        return {
            "recall_at": {str(k): v for k, v in self.recall_at.items()},
            "r_precision": self.r_precision,
            "map_at_r": self.map_at_r,
            "n_queries": self.n_queries,
            "n_skipped": self.n_skipped,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def recall_at_k(hits: np.ndarray, ks: list[int]) -> dict[int, float]:
    """Share of queries with a relevant item among their first K ranks."""
    return {int(k): float(hits[:, :k].any(axis=1).mean()) for k in ks}


def r_precision(hits: np.ndarray, r: np.ndarray) -> float:
    """Mean R-Precision over the queries with R > 0; ``hits`` holds at
    least the first ``max(r)`` ranks."""
    keep = r > 0
    csum = hits[:, : int(r.max())].cumsum(axis=1)
    rk = r[keep]
    prec = csum[keep, rk - 1] / rk
    return float(prec.mean())


def map_at_r(hits: np.ndarray, r: np.ndarray) -> float:
    """Mean MAP@R over the queries with R > 0; ``hits`` as in :func:`r_precision`."""
    keep = r > 0
    hits = hits[:, : int(r.max())]
    csum = hits.astype(np.int64).cumsum(axis=1)
    ranks = np.arange(1, hits.shape[1] + 1)
    prec_at = csum / ranks
    within_r = ranks[None, :] <= r[:, None]
    # cumsum accumulates left to right, matching a rank-ascending loop bit
    # for bit (skipped ranks contribute exactly 0.0)
    ap_sum = np.cumsum(prec_at * hits * within_r, axis=1)[:, -1]
    ap = ap_sum[keep] / r[keep]
    return float(ap.mean())


def evaluate_retrieval(index: RetrievalIndex, ks: list[int]) -> MetricReport:
    """Every metric from one ranked prefix. The Ks are checked, R counted and
    queries with R = 0 skipped (with one warning) before anything is ranked."""
    for k in ks:
        if k < 1:
            raise ConfigurationError(f"recall K must be >= 1, got {k}")
        if k > index.effective_gallery_size:
            raise ConfigurationError(
                f"recall K={k} exceeds gallery size {index.effective_gallery_size}"
            )
    r = index.relevant_counts()
    skipped = int((r == 0).sum())
    if skipped:
        warnings.warn(f"skipping {skipped} queries with no same-class gallery items")
    if skipped == r.shape[0]:
        raise ConfigurationError("no query has a same-class gallery item")
    # K <= effective gallery size (checked) and R <= it by construction
    hits = index.ranked_hits(max(max(ks, default=0), int(r.max())))
    return MetricReport(
        recall_at=recall_at_k(hits, ks),
        r_precision=r_precision(hits, r),
        map_at_r=map_at_r(hits, r),
        n_queries=int(r.shape[0]),
        n_skipped=skipped,
    )


def embedding_stats(embeddings: np.ndarray) -> dict:
    """Per-dimension mean and variance."""
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ShapeError("embedding_stats needs a 2-D array with >= 2 rows")
    return {"per_dim_mean": x.mean(axis=0), "per_dim_var": x.var(axis=0)}


def project_2d(embeddings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top-2 principal components with a deterministic sign convention.

    Each component is flipped so its largest-magnitude coordinate is
    positive. Returns (coords (n, 2), all eigenvalues descending). A
    rank-deficient direction yields exact zeros with a warning.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 3:
        raise ShapeError("project_2d needs a 2-D array with >= 3 rows")
    centered = x - x.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / (x.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    coords = np.zeros((x.shape[0], 2))
    tol = max(eigvals[0], 0.0) * 1e-12
    for c in range(2):
        if c >= eigvals.size or eigvals[c] <= tol:
            warnings.warn(f"rank-deficient embedding: component {c} set to zero")
            continue
        v = eigvecs[:, c]
        pivot = np.argmax(np.abs(v))
        if v[pivot] < 0:
            v = -v
        coords[:, c] = centered @ v
    return coords, eigvals
