"""Reference implementations that only the tests use."""

from __future__ import annotations

import math

import numpy as np

from hngen import autodiff as ad
from hngen import evalkit, gcl, losses
from hngen.errors import ConfigurationError, ShapeError


def full_sort_ranked_hits(sim, query_labels, gallery_labels, exclude_self):
    """Relevance flags over the whole gallery from a stable sort of -sim.

    Ties break by gallery index ascending; with ``exclude_self`` the item
    sharing the query's index is dropped, so rows have ``n_gallery - 1``
    entries.
    """
    nq, ng = sim.shape
    order = np.argsort(-sim, axis=1, kind="stable")
    matches = gallery_labels[order] == query_labels[:, None]
    if exclude_self:
        keep = order != np.arange(nq)[:, None]
        matches = matches[keep].reshape(nq, ng - 1)
    return matches.astype(np.uint8)


def full_sort_report(index: evalkit.RetrievalIndex, ks: list[int]) -> evalkit.MetricReport:
    """Every metric from the full ranked hit matrix, R from its row sums."""
    hits = full_sort_ranked_hits(
        index.query_z @ index.gallery_z.T, index.query_labels, index.gallery_labels,
        index.exclude_self,
    )
    r = hits.sum(axis=1).astype(np.int64)
    keep = r > 0
    rk = r[keep]
    rprec = hits.cumsum(axis=1)[keep, rk - 1] / rk
    csum = hits.astype(np.int64).cumsum(axis=1)
    ranks = np.arange(1, hits.shape[1] + 1)
    terms = (csum / ranks) * hits * (ranks[None, :] <= r[:, None])
    ap = np.cumsum(terms, axis=1)[:, -1][keep] / rk
    return evalkit.MetricReport(
        recall_at={int(k): float(hits[:, :k].any(axis=1).mean()) for k in ks},
        r_precision=float(rprec.mean()),
        map_at_r=float(ap.mean()),
        n_queries=int(hits.shape[0]),
        n_skipped=int((~keep).sum()),
    )


def stacked_token_cross_attention(block: gcl.EdgeBlock, e_flat, v, b):
    """Edge cross-attention by gathering both endpoint tokens per edge.

    Each edge (i, j) stacks (V_i, V_j) into a 2-token sequence, projects K
    and V for all 2 * B^2 tokens, and takes a max-shifted softmax over the
    two scores. Returns the output (B^2, D) and the weights (B^2, H, 1, 2).
    """
    heads, dim = block.heads, block.dim
    hd = dim // heads
    n_pairs = b * b

    def affine(lin, x):
        return x @ lin.weight.data.T + lin.bias.data

    tokens = np.stack([v[np.repeat(np.arange(b), b)], v[np.tile(np.arange(b), b)]], axis=1)
    q = affine(block.wq, e_flat).reshape(n_pairs, heads, 1, hd)
    k = affine(block.wk, tokens).reshape(n_pairs, 2, heads, hd).swapaxes(1, 2)
    val = affine(block.wv, tokens).reshape(n_pairs, 2, heads, hd).swapaxes(1, 2)
    scores = (q @ k.swapaxes(2, 3)) / np.sqrt(hd)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    ctx = (probs @ val).reshape(n_pairs, dim)
    return affine(block.wo, ctx), probs


def recompute_node_attention(net: gcl.GraphNet, graph: gcl.CorrelationGraph,
                             node_propagation: bool = True,
                             include_edge_sum: bool = True) -> list[np.ndarray]:
    """Node-attention weights per step, each (H, B, B), by a second pass.

    Each step calls ``NodeBlock.attention`` on its own, then advances the
    nodes and edges with the blocks' ``__call__``.
    """
    maps: list[np.ndarray] = []
    for k in range(net.k_steps):
        node_block, edge_block = net._blocks(k)
        if node_propagation:
            _, probs = node_block.attention(graph.v, graph.labels)
            maps.append(probs.data.copy())
            v = node_block(graph.v, graph.e, graph.labels, include_edge_sum)
            graph = gcl.CorrelationGraph(v=v, e=graph.e, labels=graph.labels, step=k)
        e = edge_block(graph.e, graph.v)
        graph = gcl.CorrelationGraph(v=graph.v, e=e, labels=graph.labels, step=k + 1)
    return maps


# -- scalar forms of the vectorized interpolation, fusion and losses -------------


def interpolate_pair(z_i, z_j, lambda_ij, d_plus_i, d_minus_ij, eta: float) -> ad.Tensor:
    """Single-pair interpolation; returns z_j unchanged when d- <= d+."""
    z_i, z_j = ad.as_tensor(z_i), ad.as_tensor(z_j)
    d_plus_i = ad.as_tensor(d_plus_i)
    d_minus_ij = ad.as_tensor(d_minus_ij)
    if float(d_minus_ij.data) <= float(d_plus_i.data):
        return z_j
    lam = ad.as_tensor(lambda_ij)
    bracket = d_plus_i + lam * eta * (d_minus_ij - d_plus_i)
    return z_i + bracket * ((z_j - z_i) / d_minus_ij)


def fuse_random_weighting(
    interpolants: list[ad.Tensor], rng: np.random.Generator
) -> tuple[ad.Tensor, np.ndarray]:
    """Iterated pairwise random fusion; returns the result and the convex
    coefficients it expands to (one per input, nonnegative, summing to 1)."""
    if not interpolants:
        raise ConfigurationError("fuse_random_weighting needs a nonempty set")
    acc = interpolants[0]
    coeffs = np.array([1.0])
    for nxt in interpolants[1:]:
        w = float(rng.random())
        acc = w * acc + (1.0 - w) * nxt
        coeffs = np.append(coeffs * w, 1.0 - w)
    return acc, coeffs


def _cosine(a: ad.Tensor, b: ad.Tensor, axis: int = -1) -> ad.Tensor:
    na = ad.tsum(a * a, axis=axis, keepdims=True)
    nb = ad.tsum(b * b, axis=axis, keepdims=True)
    if np.any(na.data <= 0) or np.any(nb.data <= 0):
        raise ShapeError("cosine similarity of a zero vector")
    dot = ad.tsum(a * b, axis=axis, keepdims=True)
    out = dot / (ad.sqrt(na) * ad.sqrt(nb))
    return out.reshape(out.shape[:-1])


def j_ce(z_hat_in: ad.Tensor, class_n: int, head: losses.ClassifierHead,
         codec: losses.ClassCodec, frozen_head: bool = True) -> ad.Tensor:
    """Classification loss of one synthetic negative against its class."""
    logits = head(z_hat_in.reshape(1, z_hat_in.shape[-1]), frozen=frozen_head)
    return losses.cross_entropy(logits, codec.columns(np.array([class_n])))


def j_sim(z_i: ad.Tensor, z_hat_in: ad.Tensor) -> ad.Tensor:
    """1 - cosine(anchor, synthetic); in [0, 2]."""
    return 1.0 - _cosine(z_i.reshape(1, -1), z_hat_in.reshape(1, -1)).sum()


def j_div(lambda_entries: ad.Tensor) -> ad.Tensor:
    """1 - population std over all channels of an anchor's lambda vectors."""
    flat = lambda_entries.reshape(-1)
    if flat.shape[0] < 2:
        raise ShapeError("diversity loss needs at least two lambda entries")
    mu = flat.mean()
    var = ((flat - mu) ** 2).mean()
    return 1.0 - ad.sqrt_or_zero(var)


def original_np_loss(z: ad.Tensor, labels: np.ndarray, n_classes: int) -> ad.Tensor:
    """Classic N-pair loss on an anchor group plus one positive group."""
    n = n_classes
    if z.shape[0] != 2 * n:
        raise ShapeError("original N-pair loss expects exactly two groups")
    anchors = z[np.arange(n)]
    positives = z[np.arange(n, 2 * n)]
    sims = anchors @ positives.T
    diag = sims[np.arange(n), np.arange(n)]
    u = sims - diag.reshape(n, 1)
    terms = ad.log1p_sum_exp(u, ~np.eye(n, dtype=bool), axis=1)
    return terms.mean()


def j_m(j_r_term: ad.Tensor, j_gca_term: ad.Tensor, j_syn_term: ad.Tensor,
        gamma_n: float) -> ad.Tensor:
    """Stage-2 composite: J_r + J_gca + (1 - gamma_n) * J_syn."""
    return j_r_term + j_gca_term + (1.0 - gamma_n) * j_syn_term


class LoopAdamW:
    """Per-parameter AdamW with the flat optimizer's arithmetic and skip rule:
    a parameter given no gradient keeps its data, moments and step count.
    ``lr[i]`` is parameter i's learning rate."""

    def __init__(self, datas, lr: list[float], weight_decay: float = 0.0,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.data = [np.array(d, dtype=np.float64) for d in datas]
        self.m = [np.zeros_like(d) for d in self.data]
        self.v = [np.zeros_like(d) for d in self.data]
        self.steps = [0] * len(self.data)
        self.lr, self.weight_decay, self.betas, self.eps = list(lr), weight_decay, betas, eps

    def step(self, grads) -> None:
        b1, b2 = self.betas
        for i, g in enumerate(grads):
            if g is None:
                continue
            self.steps[i] += 1
            t = self.steps[i]
            self.m[i] = g + b1 * (self.m[i] - g)
            g2 = g * g
            self.v[i] = g2 + b2 * (self.v[i] - g2)
            c1, c2 = 1.0 - b1**t, 1.0 - b2**t
            lr = self.lr[i]
            update = (self.m[i] / (np.sqrt(self.v[i]) + self.eps * math.sqrt(c2))
                      * (lr * math.sqrt(c2) / c1))
            if self.weight_decay:
                self.data[i] = self.data[i] * (1.0 - lr * self.weight_decay)
            self.data[i] = self.data[i] - update
