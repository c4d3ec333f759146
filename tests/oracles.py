"""Reference implementations that only the tests use."""

from __future__ import annotations

import numpy as np

from hngen import evalkit, gcl


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
