"""Numeric kernels: pairwise products and distances, retrieval ranking,
and the unit-norm row check that graph building, the distances and
retrieval share.

Each kernel is one vectorized numpy function, called as
``kernels.<name>``: ``autodiff.hadamard_pairs`` calls the pair products,
``cacai`` the distances and ``evalkit`` ``ranked_hits``. The pair
layout is defined here alone: ``pair_rows`` fixes the row order of packed
pair arrays, and ``pair_index`` maps every ordered pair to its packed row.
Inputs are made C-contiguous first, so the reduction order does not depend
on the caller's memory layout.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ShapeError


def check_unit_rows(z: np.ndarray, caller: str) -> None:
    """Raise unless every row of ``z`` has an L2 norm within 1e-5 of 1."""
    if np.any(np.abs(np.linalg.norm(z, axis=1) - 1.0) > 1e-5):
        raise ShapeError(f"{caller} expects unit-norm rows")


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


@functools.lru_cache(maxsize=8)
def pair_rows(b: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (i, j) of the B(B+1)/2 unordered pairs i <= j, in
    ``np.triu_indices(b)`` order: the row order of packed pair arrays."""
    i, j = np.triu_indices(b)
    i.flags.writeable = j.flags.writeable = False
    return i, j


@functools.lru_cache(maxsize=8)
def pair_index(b: int) -> np.ndarray:
    """(B, B) packed row of every ordered pair: ``idx[i, j] = idx[j, i]`` is
    the row of the pair (min(i, j), max(i, j)) in ``pair_rows`` order."""
    i, j = pair_rows(b)
    idx = np.empty((b, b), dtype=np.int64)
    idx[i, j] = idx[j, i] = np.arange(i.size)
    idx.flags.writeable = False
    return idx


def hadamard_pairs(z: np.ndarray) -> np.ndarray:
    """Elementwise products z_i * z_j of the pairs i <= j, shape (B(B+1)/2, D)."""
    z = np.ascontiguousarray(z)
    i, j = pair_rows(z.shape[0])
    return z[i] * z[j]


def hadamard_pairs_grad(z: np.ndarray, grad: np.ndarray) -> np.ndarray:
    # d out[p]/d z[i] = z[j] and d out[p]/d z[j] = z[i] for p = (i, j): the
    # mirrored rows, with each diagonal row (i, i) counted twice
    z = np.ascontiguousarray(z)
    i, j = pair_rows(z.shape[0])
    g = np.zeros((z.shape[0],) + z.shape)
    g[i, j] = grad
    g[j, i] += grad
    return np.einsum("ijd,jd->id", g, z)


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
    negated rows. Every similarity must be finite or -inf. The columns
    split into ``c >= width`` strided groups (column ``j`` in group
    ``j % c``, the ragged tail past ``c * (n // c)`` left out), and each
    row's cut is the ``width``-th largest group maximum. Those ``width``
    groups hold distinct items at or above the cut, so the row's whole
    prefix, and every item tied with its last entry, is too. Strided groups
    spread a class-sorted gallery's adjacent items over many groups, which
    keeps the cut close. The candidates at or above the cut, in index
    order, are padded per row with +inf keys after the real ones and
    stably sorted by -similarity. Returns ``(rows, width)`` uint8.
    """
    sim = np.asarray(sim, dtype=np.float64)
    ql = np.asarray(query_labels, dtype=np.int64)
    gl = np.asarray(gallery_labels, dtype=np.int64)
    rows, n = sim.shape
    if not 0 <= width <= n:
        raise ValueError(f"prefix width must be in [0, {n}], got {width}")
    if width == 0:
        return np.zeros((rows, 0), dtype=np.uint8)
    c = min(n, max(4 * width, 256))
    gmax = sim[:, : c * (n // c)].reshape(rows, n // c, c).max(axis=1)
    cut = np.partition(gmax, c - width, axis=1)[:, c - width, None]
    row, col = np.divmod(np.flatnonzero(sim >= cut), n)  # col ascends in a row
    count = np.bincount(row, minlength=rows)  # each row has >= width
    slot = np.arange(row.size) - (np.cumsum(count) - count)[row]
    keys = np.full((rows, count.max(initial=width)), np.inf)
    keys[row, slot] = -sim[row, col]
    cols = np.zeros(keys.shape, dtype=np.int64)
    cols[row, slot] = col
    order = np.argsort(keys, axis=1, kind="stable")[:, :width]
    return (gl[np.take_along_axis(cols, order, axis=1)] == ql[:, None]).astype(np.uint8)
