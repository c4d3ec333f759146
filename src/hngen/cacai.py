"""Channel-adaptive interpolation of anchor-negative pairs.

Final edge states are mapped through a sigmoid FC head to per-channel
interpolation vectors in (0, 1). Each anchor-negative pair is interpolated
inside the hardness interval [d+, d+ + eta*(d- - d+)] along the chord from
anchor to negative (falling back to the negative itself when d- <= d+), and
the per-class interpolants are fused, in group order, by iterated random
weighting into one synthetic negative per (anchor, negative class).
Synthetics are never re-normalized; the losses consume raw inner products.
``interpolate_all`` puts the interpolation of every ordered pair on the tape
as one node with a hand-written backward.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import kernels
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
    """One synthetic embedding per (anchor, batch-class slot).

    ``valid[i, s]`` is False on the anchor's own class slot, whose lane is
    filled but must never be consumed. Slot s fuses the interpolants of the
    batch members s, s + N, ..., s + (m-1)N, in that order.
    """

    z_hat: ad.Tensor               # (B, N, D)
    slot_labels: np.ndarray        # (N,) class id of each slot
    valid: np.ndarray              # (B, N) bool


class LambdaHead(ad.Module):
    """Edge state -> per-channel interpolation vector, via sigmoid(FC)."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.fc = ad.Linear(dim, dim, rng)

    def __call__(self, e_final: ad.Tensor) -> ad.Tensor:
        return ad.sigmoid(self.fc(e_final))


def select_positives(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniform same-class positive (excluding self) for every anchor.

    One ``rng.integers`` call draws every anchor's position in its pool of
    same-class columns, taken in ascending order: the draws, and the
    generator state after them, of one ``rng.choice(pool)`` per anchor.
    """
    labels = np.asarray(labels)
    pool = labels[:, None] == labels[None, :]
    np.fill_diagonal(pool, False)
    counts = pool.sum(axis=1)
    if not counts.all():
        raise SamplingError(f"anchor {np.argmin(counts)} has no positive in the batch")
    picks = rng.integers(0, counts)
    return np.argmax(pool.cumsum(axis=1) > picks[:, None], axis=1)


def pair_distances(
    zb: EmbeddingBatch, positive_idx: np.ndarray
) -> tuple[ad.Tensor, ad.Tensor]:
    """(d_plus, d_minus): anchor-positive and all-pairs euclidean distances."""
    z = zb.z
    kernels.check_unit_rows(z.data, "pair_distances")
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
    """Interpolants of every ordered pair, (B, B, D): one tape node.

    Lane (i, j) is z_i + (d+_i + lam_ij eta (d-_ij - d+_i)) (z_j - z_i) / d-_ij
    when d-_ij > d+_i, else z_j. The branch select is a constant 0/1 mask t,
    out = t (first branch) + (1 - t) z_j, so the d- <= d+ case reproduces z_j
    bit for bit; the divisor is 1 on inactive lanes. The forward pass does
    the arithmetic of the composed ops in their order, so its values match
    them bit for bit. It keeps two (B, B, D) arrays for the backward pass,
    the bracket and the chord, which needs about four more at its peak.
    """
    b, d = z.shape
    if lam.shape != (b, b, d):
        raise ShapeError(f"interpolation vectors {lam.shape} != {(b, b, d)}")
    take = (d_minus.data > d_plus.data[:, None]).astype(np.float64)  # (B, B)
    take3 = take[:, :, None]
    dp = d_plus.data.reshape(b, 1, 1)
    dm = (d_minus.data * take + (1.0 - take)).reshape(b, b, 1)  # 1 where inactive
    dm_minus_dp = dm - dp
    bracket = lam.data * eta
    bracket *= dm_minus_dp
    bracket += dp
    z_i = z.data.reshape(b, 1, d)
    z_j = z.data.reshape(1, b, d)
    chord = z_j - z_i
    chord /= dm
    out = bracket * chord
    out += z_i
    out *= take3
    out += z_j * (1.0 - take3)

    def backward(g):
        # Each gradient is the composed ops' product, summed over the same
        # axes of an array in the same layout; only z's two halves are added
        # in another order. Steps marked "in place" reuse a (B, B, D) buffer.
        g_first = g * take3  # d(z_i + bracket * chord)
        g_bracket = g_first * chord
        if lam.requires_grad:
            g_lam = g_bracket * dm_minus_dp
            g_lam *= eta
            ad._accumulate(lam, g_lam)
        if not (z.requires_grad or d_plus.requires_grad or d_minus.requires_grad):
            return
        tmp = lam.data * eta
        tmp *= g_bracket
        g_gap = tmp.sum(axis=2, keepdims=True)  # d(dm - dp)
        g_dp = g_bracket.sum(axis=(1, 2), keepdims=True) + (-g_gap).sum(axis=1, keepdims=True)
        g_chord = np.multiply(g_first, bracket, out=g_bracket)  # in place
        g_zi = g_first.sum(axis=1, keepdims=True)
        g_diff = np.divide(g_chord, dm, out=g_first)  # d(z_j - z_i), in place
        np.negative(g_chord, out=g_chord)  # d(dm) = sum(-g_chord (z_j - z_i) / dm^2)
        g_chord *= np.subtract(z_j, z_i, out=tmp)
        g_chord /= dm * dm
        g_dm = g_chord.sum(axis=2, keepdims=True) + g_gap
        g_zj = g_diff.sum(axis=0, keepdims=True)
        g_zi = g_zi + np.negative(g_diff, out=g_diff).sum(axis=1, keepdims=True)
        g_zj = np.multiply(g, 1.0 - take3, out=tmp).sum(axis=0, keepdims=True) + g_zj
        ad._accumulate(d_plus, g_dp.reshape(b))
        ad._accumulate(d_minus, g_dm.reshape(b, b) * take)
        ad._accumulate(z, g_zj.reshape(b, d) + g_zi.reshape(b, d))

    # parents in the order in which the tape walk reached the composed ops'
    # inputs, so the nodes upstream of them run in the same order
    return ad._make(out, (lam, d_plus, d_minus, z), backward)


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
    return SyntheticNegatives(z_hat, slot_labels, slot_labels[None, :] != labels[:, None])
