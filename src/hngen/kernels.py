"""Numeric kernels: pairwise products and distances, retrieval ranking.

Each kernel is one vectorized numpy function. ``autodiff`` calls the
pairwise kernels as ``kernels.<name>`` from its ``hadamard_pairs`` and
``pairwise_sqdist`` ops, and ``evalkit`` calls ``ranked_hits``. Inputs are
made C-contiguous first, so the reduction order does not depend on the
caller's memory layout.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def hadamard_pairs(z: np.ndarray) -> np.ndarray:
    """All ordered elementwise products z_i * z_j, shape (B, B, D)."""
    z = np.ascontiguousarray(z)
    return z[:, None, :] * z[None, :, :]


def hadamard_pairs_grad(z: np.ndarray, grad: np.ndarray) -> np.ndarray:
    # d out[i,j]/d z[i] = z[j], d out[i,j]/d z[j] = z[i]
    z, grad = np.ascontiguousarray(z), np.ascontiguousarray(grad)
    return np.einsum("ijd,jd->id", grad, z) + np.einsum("jid,jd->id", grad, z)


def pairwise_sqdist(z: np.ndarray) -> np.ndarray:
    """Squared euclidean distance for every ordered pair, shape (B, B)."""
    z = np.ascontiguousarray(z)
    diff = z[None, :, :] - z[:, None, :]
    return np.sum(diff * diff, axis=-1)


def pairwise_sqdist_grad(z: np.ndarray, grad: np.ndarray) -> np.ndarray:
    # d out[i,j]/d z[i] = 2 (z[i]-z[j]); d out[i,j]/d z[j] = 2 (z[j]-z[i])
    z, grad = np.ascontiguousarray(z), np.ascontiguousarray(grad)
    g = grad + grad.T
    return 2.0 * (g.sum(axis=1)[:, None] * z - g @ z)


def ranked_hits(
    sim: np.ndarray,
    query_labels: np.ndarray,
    gallery_labels: np.ndarray,
    width: int,
) -> np.ndarray:
    """Relevance flags of each query's top ``width`` gallery items, in rank order.

    Items rank by descending similarity, ties broken by gallery index
    ascending: exactly the first ``width`` columns of a stable sort of the
    negated rows. Every similarity must be finite or -inf. One
    ``argpartition`` at column ``n - width`` leaves each row's ``width``
    largest similarities in its last columns, the first of them the cut
    value. A row with no other item equal to the cut holds exactly its
    prefix there: the survivors are sorted by index, then stably by
    descending similarity. Only rows tied across the cut take the tie
    path, which keeps every item at or above the cut and orders them by
    (-sim, index). Returns ``(rows, width)`` uint8.
    """
    sim = np.asarray(sim, dtype=np.float64)
    ql = np.asarray(query_labels, dtype=np.int64)
    gl = np.asarray(gallery_labels, dtype=np.int64)
    rows, n = sim.shape
    if not 0 <= width <= n:
        raise ValueError(f"prefix width must be in [0, {n}], got {width}")
    if width == 0:
        return np.zeros((rows, 0), dtype=np.uint8)
    part = np.argpartition(sim, n - width, axis=1)
    cut = np.take_along_axis(sim, part[:, n - width : n - width + 1], axis=1)
    tied = np.count_nonzero(sim >= cut, axis=1) > width
    top = np.sort(part[:, n - width :], axis=1)
    order = np.argsort(-np.take_along_axis(sim, top, axis=1), axis=1, kind="stable")
    top = np.take_along_axis(top, order, axis=1)
    if tied.any():
        top[tied] = _tied_prefix(sim[tied], cut[tied], width)
    return (gl[top] == ql[:, None]).astype(np.uint8)


def _tied_prefix(sim: np.ndarray, cut: np.ndarray, width: int) -> np.ndarray:
    """Top ``width`` columns of rows with items tied across their cut: every
    item at or above the cut is a candidate, ordered by (-sim, index)."""
    row, col = np.nonzero(sim >= cut)  # row-major, so col ascends within a row
    order = np.lexsort((-sim[row, col], row))  # stable: ties keep index order
    n_cand = np.bincount(row, minlength=sim.shape[0])
    starts = np.cumsum(n_cand) - n_cand
    return col[order[starts[:, None] + np.arange(width)]]
