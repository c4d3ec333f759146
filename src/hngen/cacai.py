"""Channel-adaptive interpolation of anchor-negative pairs.

Final edge states are mapped through a sigmoid FC head to per-channel
interpolation vectors in (0, 1). Each anchor-negative pair is interpolated
inside the hardness interval [d+, d+ + eta*(d- - d+)] along the chord from
anchor to negative (falling back to the negative itself when d- <= d+), and
the per-class interpolants are fused, in group order, by iterated random
weighting into one synthetic negative per (anchor, negative class).
Synthetics are never re-normalized; the losses consume raw inner products.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .backbone import EmbeddingBatch
from .errors import SamplingError, ShapeError


def eta_from_avg_loss(alpha_pull: float, avg_metric_loss: float | None) -> float:
    """Interval schedule eta = exp(-alpha / J_avg).

    ``None`` (no history yet) means the widest interval, eta = 1. A
    non-positive average is clamped to 1e-8 with a warning.
    """
    if avg_metric_loss is None or np.isinf(avg_metric_loss):
        return 1.0
    if avg_metric_loss <= 0.0:
        warnings.warn("average metric loss <= 0; clamping to 1e-8 for eta")
        avg_metric_loss = 1e-8
    return float(np.exp(-alpha_pull / avg_metric_loss))


@dataclass
class SyntheticNegatives:
    """One synthetic embedding per (anchor, batch-class slot) plus provenance.

    ``valid[i, s]`` is False on the anchor's own class slot, whose lane is
    filled but must never be consumed. Provenance arrays let tests rebuild
    each fusion as an explicit convex combination; slot s fuses the batch
    members s, s + N, ..., s + (m-1)N, in that order.
    """

    z_hat: ad.Tensor               # (B, N, D)
    slot_labels: np.ndarray        # (N,) class id of each slot
    valid: np.ndarray              # (B, N) bool
    fusion_weights: np.ndarray     # (B, N, m) convex coefficients
    interpolants: np.ndarray       # (B, N, m, D) values entering the fusion


class LambdaHead(ad.Module):
    """Edge state -> per-channel interpolation vector, via sigmoid(FC)."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.fc = ad.Linear(dim, dim, rng)

    def __call__(self, e_final: ad.Tensor) -> ad.Tensor:
        return ad.sigmoid(self.fc(e_final))


def select_positives(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniform same-class positive (excluding self) for every anchor."""
    labels = np.asarray(labels)
    pos = np.empty(labels.shape[0], dtype=np.int64)
    for i, lab in enumerate(labels):
        pool = np.flatnonzero((labels == lab) & (np.arange(labels.shape[0]) != i))
        if pool.size == 0:
            raise SamplingError(f"anchor {i} has no positive in the batch")
        pos[i] = rng.choice(pool)
    return pos


def pair_distances(
    zb: EmbeddingBatch, positive_idx: np.ndarray
) -> tuple[ad.Tensor, ad.Tensor]:
    """(d_plus, d_minus): anchor-positive and all-pairs euclidean distances."""
    z = zb.z
    norms = np.linalg.norm(z.data, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-5):
        raise ShapeError("pair_distances expects unit-norm rows")
    d_minus = ad.sqrt_or_zero(ad.pairwise_sqdist(z))
    b = z.shape[0]
    d_plus = d_minus[np.arange(b), np.asarray(positive_idx)]
    return d_plus, d_minus


def interpolate_all(
    z: ad.Tensor,
    lam: ad.Tensor,
    d_plus: ad.Tensor,
    d_minus: ad.Tensor,
    eta: float,
) -> ad.Tensor:
    """Vectorized interpolation for every ordered pair, (B, B, D).

    The branch select is a constant 0/1 mask so the d- <= d+ case
    reproduces z_j bit for bit; divisions on inactive lanes are guarded.
    """
    b, d = z.shape
    take = (d_minus.data > d_plus.data[:, None]).astype(np.float64)  # (B, B)
    take3 = take[:, :, None]
    d_safe = d_minus * take + (1.0 - take)       # 1 where inactive
    dp = d_plus.reshape(b, 1, 1)
    dm = d_safe.reshape(b, b, 1)
    bracket = dp + lam * eta * (dm - dp)
    z_i = z.reshape(b, 1, d)
    z_j = z.reshape(1, b, d)
    chord = (z_j - z_i) / dm
    return take3 * (z_i + bracket * chord) + (1.0 - take3) * z_j


def fusion_coefficients(step_weights: np.ndarray) -> np.ndarray:
    """Expand sequential fusion weights (..., m-1) into convex coefficients
    (..., m): c_0 = prod(w), c_j = (1 - w_{j-1}) * prod(w_{j:})."""
    w = np.asarray(step_weights, dtype=np.float64)
    m = w.shape[-1] + 1
    out = np.empty(w.shape[:-1] + (m,), dtype=np.float64)
    suffix = np.ones(w.shape[:-1], dtype=np.float64)
    for j in range(m - 1, 0, -1):
        out[..., j] = (1.0 - w[..., j - 1]) * suffix
        suffix = suffix * w[..., j - 1]
    out[..., 0] = suffix
    return out


def synthesize(
    zb: EmbeddingBatch,
    lam: ad.Tensor,
    eta: float,
    rng: np.random.Generator,
    positive_idx: np.ndarray,
    pick_single: bool = False,
) -> SyntheticNegatives:
    """Synthetic negatives for every anchor and every other batch class.

    ``eta`` is the hardness-interval factor in [0, 1] (see
    ``eta_from_avg_loss``); the caller freezes it for the batch. Each
    slot's interpolants are fused in group order, and the fused synthetics
    are not re-normalized. ``pick_single`` replaces the fusion with a
    uniformly chosen single interpolant (the no-random-weighting ablation).
    """
    z, labels = zb.z, zb.labels
    n, m = zb.n_classes, zb.n_instances
    b = n * m
    if z.shape[0] != b:
        raise ShapeError("embedding batch size does not match its layout")
    slot_labels = labels[:n].copy()

    d_plus, d_minus = pair_distances(zb, positive_idx)
    z_tilde = interpolate_all(z, lam, d_plus, d_minus, eta)

    if pick_single:
        picks = rng.integers(0, m, size=(b, n))
        coeffs = np.zeros((b, n, m))
        np.put_along_axis(coeffs, picks[:, :, None], 1.0, axis=2)
    else:
        coeffs = fusion_coefficients(rng.random((b, n, m - 1)))

    member_idx = np.arange(n)[:, None] + n * np.arange(m)[None, :]  # (N, m)
    grouped = z_tilde[:, member_idx]                       # (B, N, m, D)
    z_hat = (grouped * coeffs[:, :, :, None]).sum(axis=2)  # (B, N, D)
    valid = slot_labels[None, :] != labels[:, None]
    return SyntheticNegatives(
        z_hat=z_hat,
        slot_labels=slot_labels,
        valid=valid,
        fusion_weights=coeffs,
        interpolants=grouped.data,  # a fresh gather that no op writes to
    )
