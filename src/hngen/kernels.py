"""Hot numeric kernels.

The pairwise kernels exist twice: a ``@njit``-compiled loop version and a
vectorized numpy version. The active backend is chosen once at import time:

* ``HNGEN_NUMBA=0`` in the environment forces the numpy path;
* otherwise numba is used when it imports, falling back to numpy (with a
  warning) when it does not.

``set_backend`` switches at runtime, which the test suite uses to check that
both paths agree. The two paths are numerically interchangeable (same
formulas, float64-safe) but not guaranteed bit-identical for wide
reductions. Retrieval ranking (``ranked_hits``) has one numpy
implementation on every backend.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    _HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if len(args) == 1 and callable(args[0]):
            return args[0]
        return wrap


def _initial_backend() -> str:
    if os.environ.get("HNGEN_NUMBA", "1").strip() == "0":
        return "numpy"
    if not _HAVE_NUMBA:
        warnings.warn("numba unavailable; falling back to pure-numpy kernels")
        return "numpy"
    return "numba"


_BACKEND = _initial_backend()


def active_backend() -> str:
    return _BACKEND


def set_backend(name: str) -> None:
    """Select 'numba' or 'numpy' kernels; 'numba' requires numba installed."""
    if name not in ("numba", "numpy"):
        raise ValueError(f"unknown kernel backend {name!r}")
    if name == "numba" and not _HAVE_NUMBA:
        raise ValueError("numba backend requested but numba is not installed")
    global _BACKEND
    _BACKEND = name


# --- pairwise Hadamard products: out[i, j] = z[i] * z[j] -------------------


def _hadamard_pairs_np(z):
    return z[:, None, :] * z[None, :, :]


@njit(cache=True)
def _hadamard_pairs_nb(z):
    b, d = z.shape
    out = np.empty((b, b, d), z.dtype)
    for i in range(b):
        for j in range(b):
            for c in range(d):
                out[i, j, c] = z[i, c] * z[j, c]
    return out


def _hadamard_pairs_grad_np(z, grad):
    # d out[i,j]/d z[i] = z[j], d out[i,j]/d z[j] = z[i]
    return np.einsum("ijd,jd->id", grad, z) + np.einsum("jid,jd->id", grad, z)


@njit(cache=True)
def _hadamard_pairs_grad_nb(z, grad):
    b, d = z.shape
    out = np.zeros((b, d), z.dtype)
    for i in range(b):
        for j in range(b):
            for c in range(d):
                out[i, c] += grad[i, j, c] * z[j, c]
                out[i, c] += grad[j, i, c] * z[j, c]
    return out


# --- pairwise squared distances: out[i, j] = sum_c (z[j,c] - z[i,c])^2 -----


def _pairwise_sqdist_np(z):
    diff = z[None, :, :] - z[:, None, :]
    return np.sum(diff * diff, axis=-1)


@njit(cache=True)
def _pairwise_sqdist_nb(z):
    b, d = z.shape
    out = np.empty((b, b), z.dtype)
    for i in range(b):
        for j in range(b):
            acc = 0.0
            for c in range(d):
                t = z[j, c] - z[i, c]
                acc += t * t
            out[i, j] = acc
    return out


def _pairwise_sqdist_grad_np(z, grad):
    # d out[i,j]/d z[i] = 2 (z[i]-z[j]); d out[i,j]/d z[j] = 2 (z[j]-z[i])
    g = grad + grad.T
    return 2.0 * (g.sum(axis=1)[:, None] * z - g @ z)


@njit(cache=True)
def _pairwise_sqdist_grad_nb(z, grad):
    b, d = z.shape
    out = np.zeros((b, d), z.dtype)
    for i in range(b):
        for j in range(b):
            g = grad[i, j] + grad[j, i]
            for c in range(d):
                out[i, c] += 2.0 * g * (z[i, c] - z[j, c])
    return out


_IMPLS = {
    "numpy": {
        "hadamard_pairs": _hadamard_pairs_np,
        "hadamard_pairs_grad": _hadamard_pairs_grad_np,
        "pairwise_sqdist": _pairwise_sqdist_np,
        "pairwise_sqdist_grad": _pairwise_sqdist_grad_np,
    },
    "numba": {
        "hadamard_pairs": _hadamard_pairs_nb,
        "hadamard_pairs_grad": _hadamard_pairs_grad_nb,
        "pairwise_sqdist": _pairwise_sqdist_nb,
        "pairwise_sqdist_grad": _pairwise_sqdist_grad_nb,
    },
}


def hadamard_pairs(z: np.ndarray) -> np.ndarray:
    """All ordered elementwise products z_i * z_j, shape (B, B, D)."""
    return _IMPLS[_BACKEND]["hadamard_pairs"](np.ascontiguousarray(z))


def hadamard_pairs_grad(z: np.ndarray, grad: np.ndarray) -> np.ndarray:
    return _IMPLS[_BACKEND]["hadamard_pairs_grad"](
        np.ascontiguousarray(z), np.ascontiguousarray(grad)
    )


def pairwise_sqdist(z: np.ndarray) -> np.ndarray:
    """Squared euclidean distance for every ordered pair, shape (B, B)."""
    return _IMPLS[_BACKEND]["pairwise_sqdist"](np.ascontiguousarray(z))


def pairwise_sqdist_grad(z: np.ndarray, grad: np.ndarray) -> np.ndarray:
    return _IMPLS[_BACKEND]["pairwise_sqdist_grad"](
        np.ascontiguousarray(z), np.ascontiguousarray(grad)
    )


def ranked_hits(
    sim: np.ndarray,
    query_labels: np.ndarray,
    gallery_labels: np.ndarray,
    width: int,
) -> np.ndarray:
    """Relevance flags of each query's top ``width`` gallery items, in rank order.

    Items rank by descending similarity, ties broken by gallery index
    ascending: exactly the first ``width`` columns of a stable sort of the
    negated rows. ``argpartition`` finds each row's cut value; every item
    tied with the cut stays a candidate, and one ``lexsort`` orders the
    candidates by (-sim, index). Returns ``(rows, width)`` uint8.
    """
    neg = -np.asarray(sim, dtype=np.float64)
    ql = np.asarray(query_labels, dtype=np.int64)
    gl = np.asarray(gallery_labels, dtype=np.int64)
    rows, n = neg.shape
    if not 0 <= width <= n:
        raise ValueError(f"prefix width must be in [0, {n}], got {width}")
    if width == 0:
        return np.zeros((rows, 0), dtype=np.uint8)
    cut_at = np.argpartition(neg, width - 1, axis=1)[:, width - 1 : width]
    cand = neg <= np.take_along_axis(neg, cut_at, axis=1)
    row, col = np.nonzero(cand)  # row-major, so col ascends within a row
    order = np.lexsort((col, neg[row, col], row))
    n_cand = cand.sum(axis=1)
    starts = np.cumsum(n_cand) - n_cand
    top = col[order[starts[:, None] + np.arange(width)]]
    return (gl[top] == ql[:, None]).astype(np.uint8)
