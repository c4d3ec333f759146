"""Channel-adaptive interpolation of anchor-negative pairs.

Final edge states are mapped through a sigmoid FC head to per-channel
interpolation vectors in (0, 1). Each anchor-negative pair is interpolated
inside the hardness interval [d+, d+ + eta*(d- - d+)] along the chord from
anchor to negative (falling back to the negative itself when d- <= d+), and
the per-class interpolants are fused, in group order, by iterated random
weighting into one synthetic negative per (anchor, negative class).
Synthetics are never re-normalized; the losses consume raw inner products.

λ stays packed from the head to the synthetics (see ``lambda_lanes``), and
``synthesize`` puts the distances, the interpolation of every ordered pair
and the fusion on the tape as one node with a hand-written backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import kernels
from .backbone import EmbeddingBatch
from .errors import SamplingError, ShapeError


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


def pair_distances(zb: EmbeddingBatch, positive_idx: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(d_plus, d_minus): anchor-positive (B,) and all-pairs (B, B)
    euclidean distances, exactly 0 for coincident points."""
    z = zb.z.data
    d_minus, _ = ad._sqrt_or_zero_forward(kernels.pairwise_sqdist(z))
    return d_minus[np.arange(z.shape[0]), np.asarray(positive_idx)], d_minus


def lambda_lanes(rows: np.ndarray, lane: np.ndarray) -> np.ndarray:
    """λ of each lane of ``lane``, ``lane.shape + (D,)``: the packed row
    ``lane`` of ``rows``, and the constant 1 where ``lane`` is -1 (a pair
    whose row no loss reads, or an arm without a λ head)."""
    return np.concatenate([rows, np.ones((1, rows.shape[1]))])[lane]


def fold_lanes(g: np.ndarray, lane: np.ndarray, r: int) -> np.ndarray:
    """The gradient of ``lambda_lanes``'s ``r`` packed rows for the lane
    gradients ``g``: each row adds its lanes' in ``np.ravel`` order, as
    ``ad.take``'s scatter does; the constant lanes pass nothing back."""
    d = g.shape[-1]
    src = np.where(lane < 0, r, lane)[..., None] * d + np.arange(d)
    return ad._scatter(src, g, (r + 1, d))[:r]


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
    lane: np.ndarray,
    eta: float,
    rng: np.random.Generator,
    positive_idx: np.ndarray,
    pick_single: bool = False,
) -> SyntheticNegatives:
    """Synthetic negatives for every anchor and every other batch class:
    one tape node over the packed λ rows ``lam`` (R, D), read through the
    lane map ``lane`` (see ``lambda_lanes``), and the embeddings.

    Lane (i, j) interpolates to z_i + (d+_i + λ_ij eta (d-_ij - d+_i))
    (z_j - z_i) / d-_ij when d-_ij > d+_i, else to z_j: a constant 0/1 mask
    selects the branch, so the fallback is z_j bit for bit, and the divisor
    is 1 on inactive lanes. ``eta`` is frozen for the batch (see
    ``trainer.eta_for_batch``). ``pick_single`` replaces the fusion with a
    uniformly chosen single interpolant (the no-random-weighting ablation).
    The forward pass replays the composed ops' arithmetic in their order and
    keeps two (B, B, D) arrays, the bracket and the chord; the backward pass
    folds λ's gradient to the rows and hands z its share, the distances'
    included, as one term.
    """
    z, labels = zb.z, zb.labels
    n, m = zb.n_classes, zb.n_instances
    b, d = z.shape
    if lane.shape != (b, b) or lam.shape[1:] != (d,):
        raise ShapeError(f"λ rows {lam.shape} and lane map {lane.shape} do not fit {(b, d)}")
    slot_labels = labels[:n].copy()
    d_plus, d_minus = pair_distances(zb, positive_idx)
    if pick_single:  # a one-hot coefficient row
        coeffs = np.eye(m)[rng.integers(0, m, size=(b, n))]
    else:
        coeffs = fusion_coefficients(rng.random((b, n, m - 1)))

    take = (d_minus > d_plus[:, None]).astype(np.float64)  # (B, B)
    take3 = take[:, :, None]
    dp = d_plus.reshape(b, 1, 1)
    dm = (d_minus * take + (1.0 - take)).reshape(b, b, 1)  # 1 where inactive
    dm_minus_dp = dm - dp
    bracket = lambda_lanes(lam.data, lane)
    bracket *= eta
    bracket *= dm_minus_dp
    bracket += dp
    z_i = z.data.reshape(b, 1, d)
    z_j = z.data.reshape(1, b, d)
    chord = z_j - z_i
    chord /= dm
    z_tilde = bracket * chord
    z_tilde += z_i
    z_tilde *= take3
    z_tilde += z_j * (1.0 - take3)
    # slot s's members s, s + N, ... as axis 2: (B, m, N, D) -> (B, N, m, D)
    members = np.swapaxes(z_tilde.reshape(b, m, n, d), 1, 2)
    z_hat = (members * coeffs[:, :, :, None]).sum(axis=2)

    def backward(g_hat):
        # Each gradient is the composed ops' product, summed over the same
        # axes of an array in the same layout. Steps marked "in place" reuse
        # a (B, B, D) buffer.
        g = np.empty((b, m, n, d))  # the fusion's gradient, in z_tilde's layout
        np.multiply(g_hat[:, None], np.swapaxes(coeffs, 1, 2)[:, :, :, None], out=g)
        g = g.reshape(b, b, d)
        g_first = g * take3  # d(z_i + bracket * chord)
        g_bracket = g_first * chord
        if lam.requires_grad:
            g_lam = g_bracket * dm_minus_dp
            g_lam *= eta
            ad._accumulate(lam, fold_lanes(g_lam, lane, lam.shape[0]))
        if not z.requires_grad:
            return
        tmp = lambda_lanes(lam.data, lane)
        tmp *= eta
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
        # d+ is d-'s entry (i, pos_i); d- = sqrt_or_zero(pairwise_sqdist(z))
        g_dm = g_dm.reshape(b, b) * take
        g_dm[np.arange(b), positive_idx] += g_dp.reshape(b)
        g_sq = ad._sqrt_or_zero_backward(g_dm, d_minus, d_minus > 0)
        ad._accumulate(z, g_zj.reshape(b, d) + g_zi.reshape(b, d)
                       + kernels.pairwise_sqdist_grad(z.data, g_sq))

    z_hat = ad._make(z_hat, (lam, z), backward)
    return SyntheticNegatives(z_hat, slot_labels, slot_labels[None, :] != labels[:, None])
