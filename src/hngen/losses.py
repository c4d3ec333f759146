"""Training objectives for both optimization stages.

Stage 1 guides the generator: per synthetic negative, a classification term
(keep the negative's class), a similarity term (pull it toward the anchor),
and a diversity term (spread the interpolation vectors), combined with
weights gamma_s / gamma_d and averaged with the 1/(B*N) convention.

Stage 2 trains the metric model: a metric loss on real embeddings (modified
N-pair over the group layout, or Proxy Anchor), a node-classification term
on final graph nodes, and the synthetic-pair term, weighted by (1 - gamma_n)
where gamma_n = exp(-beta / smoothed generator loss).

All losses are pure functions of tensors; classifier heads can be applied
with frozen parameters so their weights never accumulate gradient from
synthetic samples.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .cacai import SyntheticNegatives
from .errors import ConfigurationError, ShapeError


class ClassCodec:
    """Maps dataset class ids (any ints) to contiguous head columns."""

    def __init__(self, class_ids: np.ndarray):
        ids = np.unique(np.asarray(class_ids, dtype=np.int64))
        if ids.size < 2:
            raise ConfigurationError("need at least two classes")
        self.ids = ids
        self._col = {int(c): i for i, c in enumerate(ids)}

    @property
    def num_classes(self) -> int:
        return self.ids.size

    def columns(self, labels: np.ndarray) -> np.ndarray:
        try:
            return np.array([self._col[int(l)] for l in np.ravel(labels)],
                            dtype=np.int64).reshape(np.shape(labels))
        except KeyError as exc:
            raise ConfigurationError(f"label {exc} has no head column/proxy") from exc


class ClassifierHead(ad.Module):
    """Linear C x D classifier over embeddings (the C_z / C_v heads)."""

    def __init__(self, num_classes: int, dim: int, rng: np.random.Generator):
        self.linear = ad.Linear(dim, num_classes, rng)

    def __call__(self, x: ad.Tensor, frozen: bool = False) -> ad.Tensor:
        return self.linear(x, frozen=frozen)


class ProxyBank(ad.Module):
    """One trainable proxy embedding per class, with PA scale and margin."""

    def __init__(self, num_classes: int, dim: int, rng: np.random.Generator,
                 *, alpha: float, margin: float):
        raw = rng.standard_normal((num_classes, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        self.proxies = ad.parameter(raw)
        self.alpha = float(alpha)
        self.margin = float(margin)


def cross_entropy(logits: ad.Tensor, columns: np.ndarray) -> ad.Tensor:
    """Per-sample stable softmax cross-entropy against integer column targets."""
    columns = np.asarray(columns, dtype=np.int64)
    if columns.min() < 0 or columns.max() >= logits.shape[-1]:
        raise ConfigurationError("target column outside classifier range")
    lse = ad.logsumexp(logits, axis=-1)
    picked = logits[np.arange(logits.shape[0]), columns]
    return lse - picked


def _stage1_lanes(
    z: ad.Tensor,
    synth: SyntheticNegatives,
    head_cz: ClassifierHead,
    codec: ClassCodec,
) -> tuple[ad.Tensor, ad.Tensor]:
    """Per-(anchor, slot) classification and similarity terms, (B, N)."""
    b, n, d = synth.z_hat.shape
    logits = head_cz(synth.z_hat.reshape(b * n, d), frozen=True)
    cols = np.broadcast_to(codec.columns(synth.slot_labels), (b, n)).reshape(-1)
    ce = cross_entropy(logits, cols).reshape(b, n)

    dots = ad.tsum(z.reshape(b, 1, d) * synth.z_hat, axis=-1)
    z_norm = ad.sqrt(ad.tsum(z * z, axis=-1, keepdims=True))
    hat_sq = ad.tsum(synth.z_hat * synth.z_hat, axis=-1)
    if np.any(hat_sq.data <= 0):
        raise ShapeError("synthetic negative collapsed to the zero vector")
    sim = 1.0 - dots / (z_norm * ad.sqrt(hat_sq))
    return ce, sim


def j_div_per_anchor(lam: ad.Tensor, labels: np.ndarray) -> ad.Tensor:
    """Diversity term per anchor over its negative-pair lambda vectors."""
    labels = np.asarray(labels)
    b = labels.shape[0]
    neg = labels[:, None] != labels[None, :]
    counts = neg.sum(axis=1)
    if np.any(counts * lam.shape[-1] < 2):
        raise ShapeError("diversity loss needs at least two lambda entries")
    if len(set(counts.tolist())) != 1:
        raise ShapeError("diversity loss expects a balanced batch")
    sel = lam[neg].reshape(b, counts[0] * lam.shape[-1])
    mu = sel.mean(axis=1, keepdims=True)
    var = ((sel - mu) ** 2).mean(axis=1)
    return 1.0 - ad.sqrt_or_zero(var)


def j_gen(
    z: ad.Tensor,
    synth: SyntheticNegatives,
    lam: ad.Tensor,
    head_cz: ClassifierHead,
    codec: ClassCodec,
    *,
    gamma_s: float,
    gamma_d: float,
) -> tuple[ad.Tensor, dict[str, float]]:
    """Stage-1 generator objective with the 1/(B*N) normalization.

    The classification head is applied frozen: gradient reaches the graph
    network through the synthetics, never the head parameters. Returns the
    scalar plus the averaged components for logging.
    """
    b, n, _ = synth.z_hat.shape
    valid = synth.valid.astype(np.float64)
    n_valid = valid.sum()
    ce, sim = _stage1_lanes(z, synth, head_cz, codec)
    div = j_div_per_anchor(lam, _batch_labels(synth, b))
    lane = ce + gamma_s * sim
    total = ad.tsum(lane * valid) + gamma_d * (float(n) - 1.0) * ad.tsum(div)
    scalar = total * (1.0 / (b * n))
    parts = {
        "j_ce": float((ce.data * valid).sum() / n_valid),
        "j_sim": float((sim.data * valid).sum() / n_valid),
        "j_div": float(div.data.mean()),
    }
    return scalar, parts


def _batch_labels(synth: SyntheticNegatives, b: int) -> np.ndarray:
    n = synth.slot_labels.shape[0]
    return np.tile(synth.slot_labels, b // n)


def j_cz(z: ad.Tensor, labels: np.ndarray, head: ClassifierHead, codec: ClassCodec) -> ad.Tensor:
    """Head classification loss over real embeddings (mean reduction)."""
    return cross_entropy(head(z), codec.columns(labels)).mean()


def j_gca(v_final: ad.Tensor, labels: np.ndarray, head: ClassifierHead,
          codec: ClassCodec) -> ad.Tensor:
    """Node classification loss over final graph node states."""
    return cross_entropy(head(v_final), codec.columns(labels)).mean()


def j_syn(z: ad.Tensor, positive_idx: np.ndarray, synth: SyntheticNegatives) -> ad.Tensor:
    """Synthetic-pair loss: mean_i log(1 + sum_n exp(z.zhat_in - z.z+_i))."""
    b, n, d = synth.z_hat.shape
    dots = ad.tsum(z.reshape(b, 1, d) * synth.z_hat, axis=-1)       # (B, N)
    pos = ad.tsum(z * z[np.asarray(positive_idx)], axis=-1)         # (B,)
    u = dots - pos.reshape(b, 1)
    return ad.log1p_sum_exp(u, synth.valid, axis=1).mean()


def np_loss(z: ad.Tensor, labels: np.ndarray, n_classes: int, n_instances: int) -> ad.Tensor:
    """Modified N-pair loss over the repeating group layout.

    Anchors are the first group; each later group supplies one positive and
    N-1 negatives per anchor slot; normalized by B' = (m-1) * N.
    """
    n, m = n_classes, n_instances
    if m < 2:
        raise ConfigurationError("modified N-pair loss needs at least 2 instances per class")
    labels = np.asarray(labels)
    if z.shape[0] != n * m:
        raise ShapeError("embedding count does not match the (N, m) layout")
    if not all(
        np.array_equal(labels[g * n : (g + 1) * n], labels[:n]) for g in range(m)
    ):
        raise ShapeError("labels do not repeat with the group period")
    anchors = z[np.arange(n)]                                    # (N, D)
    rest = z[np.arange(n, n * m)].reshape(m - 1, n, z.shape[1])  # (m-1, N, D)
    sims = anchors @ rest.swapaxes(1, 2)                         # (m-1, N, N): [g, j, q]
    diag = sims[:, np.arange(n), np.arange(n)]                   # (m-1, N)
    u = sims - diag.reshape(m - 1, n, 1)
    off_diag = ~np.eye(n, dtype=bool)
    terms = ad.log1p_sum_exp(u, np.broadcast_to(off_diag, u.shape), axis=2)
    return terms.sum() * (1.0 / ((m - 1) * n))


def pa_loss(z: ad.Tensor, labels: np.ndarray, bank: ProxyBank, codec: ClassCodec) -> ad.Tensor:
    """Proxy Anchor loss with cosine similarity, scale alpha, margin delta."""
    cols = codec.columns(labels)
    proxies = ad.l2_normalize(bank.proxies)
    sims = z @ proxies.T                                     # (B, C); z rows unit-norm
    c = bank.proxies.shape[0]
    pos_mask = np.zeros((z.shape[0], c), dtype=bool)
    pos_mask[np.arange(z.shape[0]), cols] = True

    by_proxy = sims.swapaxes(0, 1)                           # (C, B)
    pull_terms = ad.log1p_sum_exp(
        -bank.alpha * (by_proxy - bank.margin), pos_mask.T, axis=1
    )
    push_terms = ad.log1p_sum_exp(
        bank.alpha * (by_proxy + bank.margin), ~pos_mask.T, axis=1
    )
    present = np.unique(cols)
    pull = pull_terms[present].sum() * (1.0 / present.size)
    push = push_terms.mean()
    return pull + push


def gamma_n_from_gen(beta: float, gen_loss_smoothed: float) -> float:
    """Balance factor gamma_n = exp(-beta / smoothed generator loss)."""
    if gen_loss_smoothed <= 0.0:
        gen_loss_smoothed = 1e-8
    return float(np.exp(-beta / gen_loss_smoothed))


@dataclass
class LossReport:
    """Per-step scalar record; serialized as one JSON line."""

    step: int = 0
    epoch: int = 0
    j_ce: float | None = None
    j_sim: float | None = None
    j_div: float | None = None
    j_gen: float | None = None
    j_cz: float | None = None
    j_gca: float | None = None
    j_syn: float | None = None
    j_r: float | None = None
    j_m: float | None = None
    gamma_n: float | None = None
    eta: float | None = None
    lr_g: float | None = None
    timestamp: str | None = None

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None}

    def assert_finite(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and not np.isfinite(v):
                raise ValueError(f"non-finite loss component {f.name}={v}")
