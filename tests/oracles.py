"""Reference implementations that only the tests use."""

from __future__ import annotations

import math

import numpy as np

from hngen import autodiff as ad
from hngen import evalkit, gcl, losses, trainer
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


def stacked_token_cross_attention(block: gcl.EdgeBlock, e_rows, v, i, j):
    """Edge cross-attention by gathering both endpoint tokens per edge.

    Edge row p, with endpoints (i[p], j[p]), stacks (V_i, V_j) into a
    2-token sequence; K and V are projected for all 2 * P tokens, and a
    max-shifted softmax is taken over the two scores. Returns the output
    (P, D) and the weights (P, H, 1, 2).
    """
    heads, dim = block.heads, block.dim
    hd = dim // heads
    n_pairs = e_rows.shape[0]

    def affine(lin, x):
        return x @ lin.weight.data.T + lin.bias.data

    tokens = np.stack([v[i], v[j]], axis=1)
    q = affine(block.wq, e_rows).reshape(n_pairs, heads, 1, hd)
    k = affine(block.wk, tokens).reshape(n_pairs, 2, heads, hd).swapaxes(1, 2)
    val = affine(block.wv, tokens).reshape(n_pairs, 2, heads, hd).swapaxes(1, 2)
    scores = (q @ k.swapaxes(2, 3)) / np.sqrt(hd)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    ctx = (probs @ val).reshape(n_pairs, dim)
    return affine(block.wo, ctx), probs


# -- the dense graph: all B^2 ordered edges, (B, B, D) ---------------------------


def dense_node_step(block: gcl.NodeBlock, v, e, labels, include_edge_sum=True):
    """``NodeBlock.step`` with the incident-edge sum over dense edges."""
    attn, probs = block.attention(v, labels)
    pre = v + attn
    if include_edge_sum:
        pre = pre + e.sum(axis=1)
    return block._tail(pre), probs


def dense_edge_step(block: gcl.EdgeBlock, e, v):
    """``EdgeBlock`` on every ordered edge, K and V broadcast over them."""
    b, dim, heads = v.shape[0], block.dim, block.heads
    hd = dim // heads
    e_flat = e.reshape(b * b, dim)
    q = block.wq(e_flat).reshape(b, b, dim)
    k, val = block.wk(v), block.wv(v)
    k_diff = k.reshape(b, 1, dim) - k.reshape(1, b, dim)  # K_i - K_j
    s_diff = (q * k_diff).reshape(b, b, heads, hd).sum(axis=-1)
    p_i = ad.sigmoid(s_diff * (1.0 / np.sqrt(hd)))
    v_i = val.reshape(b, 1, heads, hd)
    v_j = val.reshape(1, b, heads, hd)
    ctx = v_j + p_i.reshape(b, b, heads, 1) * (v_i - v_j)
    ca = block.wo(ctx.reshape(b * b, dim))
    return block._tail(e_flat + ca).reshape(b, b, dim)


def dense_propagate(net: gcl.GraphNet, z, labels, node_propagation=True,
                    include_edge_sum=True):
    """Final (v, e) of ``GraphNet.propagate`` from embeddings ``z``, with
    E_ij = z_i * z_j kept for every ordered pair: (B, D) and (B, B, D)."""
    z = ad.as_tensor(z)
    b, d = z.shape
    v, e = z, z.reshape(b, 1, d) * z.reshape(1, b, d)
    for k in range(net.k_steps):
        node_block, edge_block = net._blocks(k)
        if node_propagation:
            v, _ = dense_node_step(node_block, v, e, labels, include_edge_sum)
        e = dense_edge_step(edge_block, e, v)
    return v, e


def dense_graph(model: trainer.HngModel, zb):
    """(v, e, lambda) of ``model``'s arm on ``zb`` through the dense graph."""
    v, e = dense_propagate(
        model.graph, zb.z, zb.labels,
        node_propagation=model.cfg.ablation != "no_global",
        include_edge_sum=model.cfg.ablation != "no_hadamard",
    )
    if model.lambda_head is None:
        return v, e, ad.Tensor(np.ones(e.shape))
    return v, e, model.lambda_head(e)


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
            graph = gcl.CorrelationGraph(v=v, e=graph.e, labels=graph.labels)
        e = edge_block(graph.e, graph.v)
        graph = gcl.CorrelationGraph(v=graph.v, e=e, labels=graph.labels)
    return maps


class TwoStepStage1Trainer(trainer.Trainer):
    """The trainer with stage 1 as two updates: a backward and an optimizer
    step on the generator objective (skipped when it carries no gradient),
    then a backward and a step on the real-sample head's loss."""

    def _stage1(self, zb_sg, positive_idx, eta):
        cfg, model = self.cfg, self.model
        graph = model.propagate_graph(zb_sg)
        lam = model.lambda_for(graph)
        synth = model.synthesize(zb_sg, lam, eta, self.synth_rng, positive_idx)
        gen_loss, parts = losses.j_gen(
            zb_sg.z, synth, lam, model.head_cz, self.codec,
            gamma_s=cfg.gamma_s, gamma_d=cfg.resolved_gamma_d(),
        )
        if gen_loss.requires_grad:
            gen_loss.backward()
            self.opt.step()
            self.opt.zero_grad()
        cz_loss = losses.j_cz(zb_sg.z, zb_sg.labels, model.head_cz, self.codec)
        cz_loss.backward()
        self.opt.step()
        self.opt.zero_grad()
        return {"j_gen": float(gen_loss.data), "j_cz": float(cz_loss.data), **parts}


# -- scalar forms of the vectorized interpolation, fusion and losses -------------


def loop_select_positives(labels, rng: np.random.Generator) -> np.ndarray:
    """One ``rng.choice`` per anchor over its same-class pool, in index order."""
    labels = np.asarray(labels)
    pos = np.empty(labels.shape[0], dtype=np.int64)
    for i, lab in enumerate(labels):
        pool = np.flatnonzero((labels == lab) & (np.arange(labels.shape[0]) != i))
        pos[i] = rng.choice(pool)
    return pos


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
    return losses.cross_entropy(logits, codec.columns(np.array([class_n]))).mean()


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
