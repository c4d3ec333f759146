"""Training objectives for both optimization stages.

Stage 1 guides the generator: per synthetic negative, a classification term
(keep the negative's class), a similarity term (pull it toward the anchor),
and a diversity term (spread the interpolation vectors), combined with
weights gamma_s / gamma_d and averaged with the 1/(B*N) convention.

Stage 2 trains the metric model: a metric loss on real embeddings (modified
N-pair over the group layout, or Proxy Anchor), a node-classification term
on final graph nodes, and the synthetic-pair term, weighted by (1 - gamma_n)
where gamma_n = exp(-beta / smoothed generator loss) (see
``trainer.schedule_factor``).

Each loss term is one tape node with a hand-written backward pass:
``cross_entropy`` (which ``j_cz`` and ``j_gca`` apply to their heads),
``j_gen`` (its classification and cosine lanes, the diversity term and the
weighting), ``j_syn``, ``np_loss`` and ``pa_loss``. Each forward pass does
the arithmetic of the composed autodiff ops it replaces, in their order, so
every value matches them bit for bit; ``tests/oracles.py`` keeps the
composed forms. ``j_gen`` reads the C_z head's weights and the anchors as
constant arrays, so neither gets a gradient from the synthetic samples.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .cacai import SyntheticNegatives, fold_lanes, lambda_lanes
from .errors import ConfigurationError, ShapeError


class ClassCodec:
    """Maps dataset class ids (any ints) to contiguous head columns."""

    def __init__(self, class_ids: np.ndarray):
        ids = np.unique(np.asarray(class_ids, dtype=np.int64))
        if ids.size < 2:
            raise ConfigurationError("need at least two classes")
        self.ids = ids

    @property
    def num_classes(self) -> int:
        return self.ids.size

    def columns(self, labels: np.ndarray) -> np.ndarray:
        """Head column of each label, in the labels' shape."""
        labels = np.asarray(labels)
        cols = np.searchsorted(self.ids, labels)
        unknown = self.ids[np.minimum(cols, self.ids.size - 1)] != labels
        if np.any(unknown):
            raise ConfigurationError(
                f"label {int(labels[unknown].flat[0])} has no head column/proxy")
        return np.asarray(cols, dtype=np.int64)


class ClassifierHead(ad.Module):
    """Linear C x D classifier over embeddings (the C_z / C_v heads);
    ``cross_entropy`` and ``j_gen`` apply it."""

    def __init__(self, num_classes: int, dim: int, rng: np.random.Generator):
        self.linear = ad.Linear(dim, num_classes, rng)


class ProxyBank(ad.Module):
    """One trainable proxy embedding per class, with PA scale and margin."""

    def __init__(self, num_classes: int, dim: int, rng: np.random.Generator,
                 *, alpha: float, margin: float):
        raw = rng.standard_normal((num_classes, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        self.proxies = ad.parameter(raw)
        self.alpha = float(alpha)
        self.margin = float(margin)


# -- numpy pieces shared by the fused losses ------------------------------------


def _softmax_ce(logits: np.ndarray, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row stable softmax cross-entropy against integer column targets,
    and the softmax that its gradient reads."""
    if columns.min() < 0 or columns.max() >= logits.shape[-1]:
        raise ConfigurationError("target column outside classifier range")
    lse, soft = ad._softmax(logits)
    return lse - logits[np.arange(logits.shape[0]), columns], soft


def _softmax_ce_grad(g: np.ndarray, soft: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The logits' gradient of ``_softmax_ce`` for per-row gradients ``g``."""
    g_logits = g[:, None] * soft
    g_logits[np.arange(g.shape[0]), columns] -= g
    return g_logits


def _log1p_sum_exp(u: np.ndarray, valid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(1 + sum over the valid lanes of exp(u)) along the last axis, and
    the weights w with d(out_r)/d(u_rj) = w_rj: the softmax of u's lanes,
    zero on invalid ones.

    An invalid lane is replaced by -1e9, whose exp underflows to exactly
    zero, so it contributes neither value nor gradient. The sum runs over a
    leading zero lane (the 1) and the lanes, the layout of the composed ops.
    """
    weights = valid.astype(np.float64)
    masked = u * weights + (~valid) * -1e9
    lanes = np.concatenate([np.zeros(u.shape[:-1] + (1,)), masked], axis=-1)
    lse, soft = ad._softmax(lanes)
    return lse, soft[..., 1:] * weights


# -- stage 1 ---------------------------------------------------------------------


def j_gen(
    z: ad.Tensor,
    synth: SyntheticNegatives,
    lam: ad.Tensor,
    lane: np.ndarray,
    head_cz: ClassifierHead,
    codec: ClassCodec,
    *,
    gamma_s: float,
    gamma_d: float,
) -> tuple[ad.Tensor, dict[str, float]]:
    """Stage-1 generator objective with the 1/(B*N) normalization: one tape
    node.

    Per (anchor i, slot s) lane: the frozen head's cross-entropy of z_hat_is
    against the slot's class, plus gamma_s (1 - cos(z_i, z_hat_is)); lanes
    of the anchor's own class are left out. Per anchor: gamma_d (N - 1) times
    the diversity term 1 - std of its negative-pair lambda vectors, read
    from the packed rows ``lam`` through the lane map ``lane`` (see
    ``cacai.lambda_lanes``). The C_z head's weights and the anchors ``z``
    are read as constant arrays (stage 1 passes detached embeddings):
    gradient reaches the graph network through the synthetics and lambda,
    never the head or ``z``. Returns the scalar plus the averaged components
    for logging.
    """
    z_hat = synth.z_hat
    b, n, d = z_hat.shape
    valid = synth.valid.astype(np.float64)
    zd, zh = z.data, z_hat.data

    # classification lanes, head frozen
    w = head_cz.linear.weight.data
    cols = np.broadcast_to(codec.columns(synth.slot_labels), (b, n)).reshape(-1)
    ce_flat, soft = _softmax_ce(ad._affine(zh.reshape(b * n, d), w, head_cz.linear.bias.data),
                                cols)
    ce = ce_flat.reshape(b, n)

    # similarity lanes
    zr = zd.reshape(b, 1, d)
    dots = (zr * zh).sum(axis=-1)
    z_norm = np.sqrt((zd * zd).sum(axis=-1, keepdims=True))
    hat_sq = (zh * zh).sum(axis=-1)
    if np.any(hat_sq <= 0):
        raise ShapeError("synthetic negative collapsed to the zero vector")
    hat_norm = np.sqrt(hat_sq)
    den = z_norm * hat_norm
    sim = 1.0 - dots / den

    # diversity per anchor over its negative pairs' lambda vectors
    labels = np.tile(synth.slot_labels, b // n)
    neg = labels[:, None] != labels[None, :]
    counts = neg.sum(axis=1)
    if np.any(counts * lam.shape[-1] < 2):
        raise ShapeError("diversity loss needs at least two lambda entries")
    # distinct slot labels, tiled: every anchor has counts[0] negatives
    k = int(counts[0]) * lam.shape[-1]
    neg_lanes = lane[neg]
    sel = lambda_lanes(lam.data, neg_lanes).reshape(b, k)
    dev = sel - sel.sum(axis=1, keepdims=True) * (1.0 / k)
    var = (dev**2.0).sum(axis=1) * (1.0 / k)
    std, spread = ad._sqrt_or_zero_forward(var)
    div = 1.0 - std

    per_lane = ce + sim * gamma_s
    c_div = gamma_d * (float(n) - 1.0)
    out_data = ((per_lane * valid).sum() + div.sum() * c_div) * (1.0 / (b * n))

    def backward(g):
        g_total = g * (1.0 / (b * n))
        if lam.requires_grad:
            g_std = np.full(b, g_total * c_div * -1.0)
            g_var = ad._sqrt_or_zero_backward(g_std, std, spread)
            g_dev = (g_var * (1.0 / k))[:, None] * 2.0 * dev
            g_mean = g_dev.sum(axis=1, keepdims=True) * -1.0 * (1.0 / k)
            g_sel = (g_dev + g_mean).reshape(-1, lam.shape[-1])
            ad._accumulate(lam, fold_lanes(g_sel, neg_lanes, lam.shape[0]))
        if z_hat.requires_grad:
            g_lane = g_total * valid
            g_q = g_lane * gamma_s * -1.0
            g_den = -g_q * dots / (den * den)
            g_logits = _softmax_ce_grad(g_lane.reshape(b * n), soft, cols)
            g_hat_sq = g_den * z_norm * 0.5 / hat_norm
            g_h = g_hat_sq[..., None] * zh
            g_pd = (g_q / den)[..., None]
            # in the order the composed ops added them: CE, dot, then the
            # two factors of z_hat * z_hat
            ad._accumulate(z_hat, (g_logits @ w).reshape(b, n, d) + g_pd * zr + g_h + g_h)

    n_valid = valid.sum()
    parts = {
        "j_ce": float((ce * valid).sum() / n_valid),
        "j_sim": float((sim * valid).sum() / n_valid),
        "j_div": float(div.mean()),
    }
    return ad._make(out_data, (lam, z_hat), backward), parts


# -- classification heads --------------------------------------------------------


def cross_entropy(x: ad.Tensor, head: ClassifierHead, columns: np.ndarray) -> ad.Tensor:
    """Mean softmax cross-entropy of ``head``'s logits for ``x`` against
    integer column targets: the affine map, the stable log-softmax and the
    mean as one tape node."""
    columns = np.asarray(columns, dtype=np.int64)
    w, bias = head.linear.weight, head.linear.bias
    ce, soft = _softmax_ce(ad._affine(x.data, w.data, bias.data), columns)
    inv_n = 1.0 / float(ce.size)

    def backward(g):
        g_logits = _softmax_ce_grad(np.full(ce.shape, g * inv_n), soft, columns)
        g_x = ad._affine_backward(g_logits, x.data, w, bias, x.requires_grad)
        if g_x is not None:
            ad._accumulate(x, g_x)

    return ad._make(ce.sum() * inv_n, (x, w, bias), backward)


def j_cz(z: ad.Tensor, labels: np.ndarray, head: ClassifierHead, codec: ClassCodec) -> ad.Tensor:
    """Head classification loss over real embeddings (mean reduction)."""
    return cross_entropy(z, head, codec.columns(labels))


def j_gca(v_final: ad.Tensor, labels: np.ndarray, head: ClassifierHead,
          codec: ClassCodec) -> ad.Tensor:
    """Node classification loss over final graph node states."""
    return cross_entropy(v_final, head, codec.columns(labels))


# -- stage 2 ---------------------------------------------------------------------


def j_syn(z: ad.Tensor, positive_idx: np.ndarray, synth: SyntheticNegatives) -> ad.Tensor:
    """Synthetic-pair loss: mean_i log(1 + sum_n exp(z.zhat_in - z.z+_i)),
    one tape node."""
    z_hat = synth.z_hat
    b, n, d = z_hat.shape
    pos_idx = np.asarray(positive_idx)
    zd, zh = z.data, z_hat.data
    zr = zd.reshape(b, 1, d)
    z_pos = zd[pos_idx]
    u = (zr * zh).sum(axis=-1) - (zd * z_pos).sum(axis=-1).reshape(b, 1)  # (B, N)
    terms, weights = _log1p_sum_exp(u, synth.valid)

    def backward(g):
        g_u = g * (1.0 / b) * weights
        g_pd = g_u[..., None]
        if z_hat.requires_grad:
            ad._accumulate(z_hat, g_pd * zr)
        if z.requires_grad:
            g_pp = g_u.sum(axis=1, keepdims=True) * -1.0
            # in the order the composed ops added them: the anchor's dot
            # with z_hat, then both factors of its dot with the positive
            src = pos_idx[:, None] * d + np.arange(d)
            ad._accumulate(z, (g_pd * zh).sum(axis=1, keepdims=True).reshape(b, d)
                           + g_pp * z_pos + ad._scatter(src, g_pp * zd, zd.shape))

    return ad._make(terms.sum() * (1.0 / b), (z, z_hat), backward)


def np_loss(z: ad.Tensor, labels: np.ndarray, n_classes: int, n_instances: int) -> ad.Tensor:
    """Modified N-pair loss over the repeating group layout, one tape node.

    Anchors are the first group; each later group supplies one positive and
    N-1 negatives per anchor slot; normalized by B' = (m-1) * N.
    """
    n, m = n_classes, n_instances
    if m < 2:
        raise ConfigurationError("modified N-pair loss needs at least 2 instances per class")
    labels = np.asarray(labels)
    if z.shape[0] != n * m:
        raise ShapeError("embedding count does not match the (N, m) layout")
    groups = labels[: n * m]
    if groups.size != n * m or np.any(groups.reshape(m, n) != labels[:n]):
        raise ShapeError("labels do not repeat with the group period")
    d = z.shape[1]
    diag = (slice(None), np.arange(n), np.arange(n))
    anchors = z.data[np.arange(n)]                                 # (N, D)
    rest = z.data[np.arange(n, n * m)].reshape(m - 1, n, d)        # (m-1, N, D)
    sims = anchors @ np.swapaxes(rest, 1, 2)                       # (m-1, N, N): [g, j, q]
    u = sims - sims[diag].reshape(m - 1, n, 1)
    off_diag = np.broadcast_to(~np.eye(n, dtype=bool), u.shape)
    terms, weights = _log1p_sum_exp(u, off_diag)
    inv = 1.0 / ((m - 1) * n)

    def backward(g):
        g_sims = g * inv * weights
        g_sims[diag] += (g_sims.sum(axis=2, keepdims=True) * -1.0).reshape(m - 1, n)
        g_anchors = (g_sims @ rest).sum(axis=0)
        g_rest = np.swapaxes(np.swapaxes(anchors, -1, -2) @ g_sims, 1, 2).reshape(-1, d)
        ad._accumulate(z, np.concatenate([g_anchors, g_rest]))

    return ad._make(terms.sum() * inv, (z,), backward)


def pa_loss(z: ad.Tensor, labels: np.ndarray, bank: ProxyBank, codec: ClassCodec) -> ad.Tensor:
    """Proxy Anchor loss with cosine similarity, scale alpha, margin delta:
    one tape node, the proxies' L2 normalization included."""
    cols = codec.columns(labels)
    raw = bank.proxies.data
    unit, norm = ad._l2_rows_forward(raw)
    proxies_t = np.swapaxes(unit, 0, 1)                      # (D, C)
    by_proxy = np.swapaxes(z.data @ proxies_t, 0, 1)         # (C, B); z rows unit-norm
    c = raw.shape[0]
    pos_mask = np.zeros((z.shape[0], c), dtype=bool)
    pos_mask[np.arange(z.shape[0]), cols] = True

    alpha, margin = bank.alpha, bank.margin
    pull_terms, pull_w = _log1p_sum_exp((by_proxy - margin) * -alpha, pos_mask.T)
    push_terms, push_w = _log1p_sum_exp((by_proxy + margin) * alpha, ~pos_mask.T)
    present = np.unique(cols)
    out_data = pull_terms[present].sum() * (1.0 / present.size) + push_terms.sum() * (1.0 / c)

    def backward(g):
        g_pull = np.zeros(c)
        g_pull[present] = g * (1.0 / present.size)
        g_by = g_pull[:, None] * pull_w * -alpha + g * (1.0 / c) * push_w * alpha
        g_sims = np.ascontiguousarray(np.swapaxes(g_by, 0, 1))  # (B, C)
        if z.requires_grad:
            ad._accumulate(z, g_sims @ np.swapaxes(proxies_t, -1, -2))
        if bank.proxies.requires_grad:
            g_unit = np.ascontiguousarray(np.swapaxes(np.swapaxes(z.data, -1, -2) @ g_sims, 0, 1))
            g_div, g_sq = ad._l2_rows_backward(g_unit, raw, norm)
            # in the order the composed ops added them: the division, then
            # both factors of raw * raw
            ad._accumulate(bank.proxies, g_div + g_sq + g_sq)

    return ad._make(out_data, (z, bank.proxies), backward)


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
