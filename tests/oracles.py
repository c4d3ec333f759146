"""Reference implementations that only the tests use."""

from __future__ import annotations

import math

import numpy as np

from hngen import autodiff as ad
from hngen import cacai, evalkit, gcl, kernels, losses, trainer
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


# -- autodiff ops that only the composed forms use ---------------------------------
#
# Training builds its losses and its graph sublayers as fused nodes, so
# these small ops run only in the references below and in the tests of the
# ops themselves.


def sub(a, b) -> ad.Tensor:
    """``a - b`` as the two nodes ``a + (-1) b``."""
    return ad.add(a, ad.mul(b, -1.0))


def div(a, b) -> ad.Tensor:
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            ad._accumulate(a, ad._unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            ad._accumulate(b, ad._unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return ad._make(out_data, (a, b), backward)


def sqrt(a) -> ad.Tensor:
    a = ad.as_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        ad._accumulate(a, g * 0.5 / out_data)

    return ad._make(out_data, (a,), backward)


def sqrt_or_zero(a) -> ad.Tensor:
    """sqrt(x) for x > 0, exactly 0 (with zero gradient) at x <= 0."""
    a = ad.as_tensor(a)
    out_data, pos = ad._sqrt_or_zero_forward(a.data)

    def backward(g):
        ad._accumulate(a, ad._sqrt_or_zero_backward(g, out_data, pos))

    return ad._make(out_data, (a,), backward)


def pairwise_sqdist(z) -> ad.Tensor:
    """Squared distances for ordered pairs (B, D) -> (B, B)."""
    z = ad.as_tensor(z)

    def backward(g):
        ad._accumulate(z, kernels.pairwise_sqdist_grad(z.data, g))

    return ad._make(kernels.pairwise_sqdist(z.data), (z,), backward)


def reshape(a, shape) -> ad.Tensor:
    a = ad.as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(g):
        ad._accumulate(a, g.reshape(a.data.shape))

    return ad._make(out_data, (a,), backward)


def swapaxes(a, ax1: int, ax2: int) -> ad.Tensor:
    a = ad.as_tensor(a)
    out_data = np.swapaxes(a.data, ax1, ax2)

    def backward(g):
        ad._accumulate(a, np.swapaxes(g, ax1, ax2))

    return ad._make(out_data, (a,), backward)


def pow_scalar(a, exponent: float) -> ad.Tensor:
    a = ad.as_tensor(a)
    e = float(exponent)
    out_data = a.data**e

    def backward(g):
        ad._accumulate(a, g * e * a.data ** (e - 1.0))

    return ad._make(out_data, (a,), backward)


def matmul(a, b) -> ad.Tensor:
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            ad._accumulate(a, ad._unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            ad._accumulate(b, ad._unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return ad._make(out_data, (a, b), backward)


def tmean(a, axis=None, keepdims=False) -> ad.Tensor:
    a = ad.as_tensor(a)
    n = a.data.size if axis is None else np.prod(
        [a.data.shape[i] for i in np.atleast_1d(axis)]
    )
    return ad.mul(ad.tsum(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> ad.Tensor:
    """Numerically stable log-sum-exp; entries below -1e30 act as -inf."""
    a = ad.as_tensor(a)
    m = np.max(a.data, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out_data = np.log(s) + m
    soft = e / s
    if not keepdims:
        out_data = np.squeeze(out_data, axis=axis)

    def backward(g):
        gk = np.expand_dims(g, axis) if not keepdims else g
        ad._accumulate(a, gk * soft)

    return ad._make(out_data, (a,), backward)


def concatenate(parts, axis: int = 0) -> ad.Tensor:
    parts = [ad.as_tensor(p) for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            ad._accumulate(p, g[tuple(idx)])

    return ad._make(out_data, parts, backward)


def log1p_sum_exp(u, valid: np.ndarray, axis: int = -1) -> ad.Tensor:
    """log(1 + sum over valid lanes of exp(u)), stable.

    Invalid lanes are replaced by a large negative sentinel whose exp
    underflows to exactly zero, so they contribute neither value nor
    gradient.
    """
    u = ad.as_tensor(u)
    valid = np.broadcast_to(np.asarray(valid, dtype=bool), u.shape)
    masked = ad.add(ad.mul(u, valid.astype(np.float64)), (~valid) * -1e9)
    zshape = list(u.shape)
    zshape[axis if axis >= 0 else u.ndim + axis] = 1
    zero = ad.Tensor(np.zeros(zshape))
    return logsumexp(concatenate([zero, masked], axis=axis), axis=axis)


# -- composed forms of the fused tape ops ---------------------------------------
#
# Each builds from the small autodiff ops what one fused op computes. The
# three graph forms take the block as their first argument, so a test can set
# them in place of ``NodeBlock.attention``, ``EdgeBlock.cross_attention`` and
# ``_Block._tail``.


def composed_l2_normalize(x) -> ad.Tensor:
    """``ad.l2_normalize``: ``x / sqrt(sum(x * x, -1))``."""
    x = ad.as_tensor(x)
    sq = ad.tsum(ad.mul(x, x), axis=-1, keepdims=True)
    if np.any(sq.data <= 0.0):
        raise ShapeError("cannot L2-normalize a zero-norm row")
    return div(x, sqrt(sq))


def masked_softmax(scores, blocked: np.ndarray) -> ad.Tensor:
    """Softmax over the last axis, blocked positions exactly zero (logit
    -inf); a row with every position blocked raises."""
    scores = ad.as_tensor(scores)
    blocked = np.broadcast_to(np.asarray(blocked, dtype=bool), scores.shape)
    if np.any(blocked.all(axis=-1)):
        raise ShapeError("masked_softmax: a row has no unmasked positions")
    neg = np.where(blocked, -np.inf, scores.data)
    m = np.max(neg, axis=-1, keepdims=True)
    e = np.where(blocked, 0.0, np.exp(np.where(blocked, 0.0, scores.data - m)))
    p = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        ad._accumulate(scores, p * (g - inner))

    return ad._make(p, (scores,), backward)


def split_heads(x: ad.Tensor, heads: int) -> ad.Tensor:
    b, d = x.shape
    return swapaxes(reshape(x, (b, heads, d // heads)), 0, 1)  # (H, B, hd)


def composed_masked_attention(q, k, v, blocked, heads: int):
    """``ad.masked_attention``: head split, scaled scores, masked softmax,
    ``probs @ v`` and merge."""
    b, d = q.shape
    qh, kh, vh = (split_heads(x, heads) for x in (q, k, v))
    scores = matmul(qh, swapaxes(kh, 1, 2)) * (1.0 / np.sqrt(d // heads))
    probs = masked_softmax(scores, blocked[None, :, :])
    return reshape(swapaxes(matmul(probs, vh), 0, 1), (b, d)), probs


def composed_endpoint_attention(q, k, v, i, j, heads: int) -> ad.Tensor:
    """``ad.endpoint_attention``: endpoint gathers, a sigmoid of the score
    difference and the two-token mix."""
    n, d = q.shape
    hd = d // heads
    s_diff = reshape(q * sub(k[i], k[j]), (n, heads, hd)).sum(axis=-1)
    p_i = ad.sigmoid(s_diff * (1.0 / np.sqrt(hd)))  # (P, H)
    v_i = reshape(v[i], (n, heads, hd))
    v_j = reshape(v[j], (n, heads, hd))
    return reshape(v_j + reshape(p_i, (n, heads, 1)) * sub(v_i, v_j), (n, d))


def layer_norm(x, gain: ad.Tensor, bias: ad.Tensor, eps: float = 1e-5) -> ad.Tensor:
    """Normalize over the last axis, then scale and shift: one tape node.

    The forward pass does the arithmetic of the composed ops (sum times
    1/n for the means), so its values match them bit for bit; the backward
    pass is the analytic layer-norm gradient, the one
    ``ad.residual_ffn_tail`` applies to both of its norms.
    """
    x, gain, bias = ad.as_tensor(x), ad.as_tensor(gain), ad.as_tensor(bias)
    out_data, xhat, std = ad._layer_norm_forward(x.data, gain.data, bias.data, eps)

    def backward(g):
        gx = ad._layer_norm_backward(g, gain, bias, xhat, std, x.requires_grad)
        if gx is not None:
            ad._accumulate(x, gx)

    return ad._make(out_data, (x, gain, bias), backward)


def composed_residual_ffn_tail(pre, ln1, fc1, fc2, ln2) -> ad.Tensor:
    """``ad.residual_ffn_tail``: LN2(FFN(x) + x) with x = LN1(pre)."""
    bar = layer_norm(pre, ln1.gain, ln1.bias, ln1.eps)
    return layer_norm(fc2(ad.relu(fc1(bar))) + bar, ln2.gain, ln2.bias, ln2.eps)


def mirror_pairs(e, b: int) -> ad.Tensor:
    """Packed pair rows (B(B+1)/2, ...) -> (B, B, ...), row (i, j) at [i, j]
    and [j, i], as its own tape op: the reference for indexing with
    ``kernels.pair_index``. The gradient of row (i, j) is g_ij + g_ji, and
    g_ii on the diagonal."""
    e = ad.as_tensor(e)
    i, j = kernels.pair_rows(b)
    out_data = np.empty((b, b) + e.shape[1:])
    out_data[i, j] = e.data
    out_data[j, i] = e.data
    diag = (i == j).reshape((-1,) + (1,) * (e.ndim - 1))

    def backward(g):
        upper = g[i, j]
        ad._accumulate(e, np.where(diag, upper, upper + g[j, i]))

    return ad._make(out_data, (e,), backward)


def composed_node_attention(block: gcl.NodeBlock, v, labels):
    """``NodeBlock.attention`` over ``composed_masked_attention``."""
    ctx, probs = composed_masked_attention(
        block.wq(v), block.wk(v), block.wv(v), gcl.attention_block_mask(labels), block.heads)
    return block.wo(ctx), probs


def composed_cross_attention(block: gcl.EdgeBlock, e, v, rows=None) -> ad.Tensor:
    """``EdgeBlock.cross_attention`` over ``composed_endpoint_attention``."""
    i, j = kernels.pair_rows(v.shape[0])
    if rows is not None:
        i, j = i[rows], j[rows]
    return block.wo(composed_endpoint_attention(
        block.wq(e), block.wk(v), block.wv(v), i, j, block.heads))


def composed_tail(block, pre) -> ad.Tensor:
    """``_Block._tail`` over ``composed_residual_ffn_tail``."""
    return composed_residual_ffn_tail(pre, block.ln1, block.ffn.fc1, block.ffn.fc2, block.ln2)


def composed_interpolate_all(z, lam, d_plus, d_minus, eta: float) -> ad.Tensor:
    """``cacai.interpolate_all``: a constant 0/1 branch mask selects the
    chord point or z_j; the divisor is 1 on inactive lanes."""
    b, d = z.shape
    take = (d_minus.data > d_plus.data[:, None]).astype(np.float64)  # (B, B)
    take3 = take[:, :, None]
    d_safe = d_minus * take + (1.0 - take)       # 1 where inactive
    dp = reshape(d_plus, (b, 1, 1))
    dm = reshape(d_safe, (b, b, 1))
    bracket = dp + lam * eta * sub(dm, dp)
    z_i = reshape(z, (b, 1, d))
    z_j = reshape(z, (1, b, d))
    chord = div(sub(z_j, z_i), dm)
    return take3 * (z_i + bracket * chord) + (1.0 - take3) * z_j


def composed_lambda_lanes(rows, lane: np.ndarray) -> ad.Tensor:
    """``cacai.lambda_lanes`` as nodes: the packed rows and a constant row
    of ones, taken at ``lane`` (-1 is the ones row)."""
    rows = ad.as_tensor(rows)
    return concatenate([rows, ad.Tensor(np.ones((1, rows.shape[1])))])[lane]


def composed_synthesize(zb, lam, lane: np.ndarray, eta: float, rng, positive_idx,
                        pick_single: bool = False):
    """``cacai.synthesize`` from the ops it fuses: the lanes' λ, the
    distances, ``composed_interpolate_all``, the take of each slot's members
    s, s + N, ..., the product with the fusion coefficients and the sum."""
    z = zb.z
    n, m = zb.n_classes, zb.n_instances
    b = n * m
    d_minus = sqrt_or_zero(pairwise_sqdist(z))
    d_plus = d_minus[np.arange(b), np.asarray(positive_idx)]
    z_tilde = composed_interpolate_all(z, composed_lambda_lanes(lam, lane), d_plus, d_minus, eta)
    if pick_single:
        coeffs = np.zeros((b, n, m))
        np.put_along_axis(coeffs, rng.integers(0, m, size=(b, n))[:, :, None], 1.0, axis=2)
    else:
        coeffs = cacai.fusion_coefficients(rng.random((b, n, m - 1)))
    member_idx = np.arange(n)[:, None] + n * np.arange(m)[None, :]  # (N, m)
    z_hat = (z_tilde[:, member_idx] * coeffs[:, :, :, None]).sum(axis=2)
    slot_labels = zb.labels[:n].copy()
    return cacai.SyntheticNegatives(z_hat, slot_labels,
                                    slot_labels[None, :] != zb.labels[:, None])


class _PickMember:
    """An rng whose ``integers`` picks member ``k`` for every slot."""

    def __init__(self, k: int):
        self.k = k

    def integers(self, low, high, size):
        return np.full(size, self.k)


def lane_interpolants(zb, lam, lane: np.ndarray, eta: float, positive_idx) -> np.ndarray:
    """Every ordered pair's interpolant (B, B, D), read out of
    ``cacai.synthesize``: with ``pick_single`` and member k picked for every
    slot, slot s returns the interpolant of lane s + N k bit for bit."""
    return np.concatenate([
        cacai.synthesize(zb, lam, lane, eta, _PickMember(k), positive_idx,
                         pick_single=True).z_hat.data
        for k in range(zb.n_instances)
    ], axis=1)


# -- composed forms of the fused losses -------------------------------------------


def head_logits(x, head: losses.ClassifierHead, frozen: bool = False) -> ad.Tensor:
    """``head``'s logits for ``x``; ``frozen`` applies the weights detached,
    so the head gets no gradient."""
    w, b = head.linear.weight, head.linear.bias
    return ad.linear(x, w.detach(), b.detach()) if frozen else ad.linear(x, w, b)


def cross_entropy(logits, columns: np.ndarray) -> ad.Tensor:
    """Per-sample stable softmax cross-entropy against integer column targets."""
    columns = np.asarray(columns, dtype=np.int64)
    if columns.min() < 0 or columns.max() >= logits.shape[-1]:
        raise ConfigurationError("target column outside classifier range")
    lse = logsumexp(logits, axis=-1)
    picked = logits[np.arange(logits.shape[0]), columns]
    return sub(lse, picked)


def composed_cross_entropy(x, head: losses.ClassifierHead, columns: np.ndarray) -> ad.Tensor:
    """``losses.cross_entropy``: the head's linear node, ``cross_entropy``
    and the mean."""
    return tmean(cross_entropy(head_logits(x, head), columns))


def stage1_lanes(z, synth, head_cz: losses.ClassifierHead, codec: losses.ClassCodec):
    """Per-(anchor, slot) classification and similarity terms, (B, N)."""
    b, n, d = synth.z_hat.shape
    logits = head_logits(reshape(synth.z_hat, (b * n, d)), head_cz, frozen=True)
    cols = np.broadcast_to(codec.columns(synth.slot_labels), (b, n)).reshape(-1)
    ce = reshape(cross_entropy(logits, cols), (b, n))

    dots = ad.tsum(reshape(z, (b, 1, d)) * synth.z_hat, axis=-1)
    z_norm = sqrt(ad.tsum(z * z, axis=-1, keepdims=True))
    hat_sq = ad.tsum(synth.z_hat * synth.z_hat, axis=-1)
    if np.any(hat_sq.data <= 0):
        raise ShapeError("synthetic negative collapsed to the zero vector")
    sim = sub(1.0, div(dots, z_norm * sqrt(hat_sq)))
    return ce, sim


def j_div_per_anchor(lam, labels: np.ndarray) -> ad.Tensor:
    """Diversity term per anchor over its negative-pair lambda vectors."""
    labels = np.asarray(labels)
    b = labels.shape[0]
    neg = labels[:, None] != labels[None, :]
    counts = neg.sum(axis=1)
    if np.any(counts * lam.shape[-1] < 2):
        raise ShapeError("diversity loss needs at least two lambda entries")
    if len(set(counts.tolist())) != 1:
        raise ShapeError("diversity loss expects a balanced batch")
    sel = reshape(lam[neg], (b, counts[0] * lam.shape[-1]))
    mu = tmean(sel, axis=1, keepdims=True)
    var = tmean(pow_scalar(sub(sel, mu), 2), axis=1)
    return sub(1.0, sqrt_or_zero(var))


def batch_labels(synth, b: int) -> np.ndarray:
    """The labels of a balanced batch of ``b`` anchors, from the slot labels."""
    n = synth.slot_labels.shape[0]
    return np.tile(synth.slot_labels, b // n)


def composed_j_gen(z, synth, lam, lane, head_cz, codec, *, gamma_s: float, gamma_d: float):
    """``losses.j_gen`` from the small ops, the head applied frozen and the
    packed λ rows expanded by ``composed_lambda_lanes``."""
    b, n, _ = synth.z_hat.shape
    valid = synth.valid.astype(np.float64)
    n_valid = valid.sum()
    ce, sim = stage1_lanes(z, synth, head_cz, codec)
    diversity = j_div_per_anchor(composed_lambda_lanes(lam, lane), batch_labels(synth, b))
    per_lane = ce + gamma_s * sim
    total = ad.tsum(per_lane * valid) + gamma_d * (float(n) - 1.0) * ad.tsum(diversity)
    scalar = total * (1.0 / (b * n))
    parts = {
        "j_ce": float((ce.data * valid).sum() / n_valid),
        "j_sim": float((sim.data * valid).sum() / n_valid),
        "j_div": float(diversity.data.mean()),
    }
    return scalar, parts


def composed_j_syn(z, positive_idx: np.ndarray, synth) -> ad.Tensor:
    """``losses.j_syn``: mean_i log(1 + sum_n exp(z.zhat_in - z.z+_i))."""
    b, n, d = synth.z_hat.shape
    dots = ad.tsum(reshape(z, (b, 1, d)) * synth.z_hat, axis=-1)       # (B, N)
    pos = ad.tsum(z * z[np.asarray(positive_idx)], axis=-1)           # (B,)
    u = sub(dots, reshape(pos, (b, 1)))
    return tmean(log1p_sum_exp(u, synth.valid, axis=1))


def composed_np_loss(z, n_classes: int, n_instances: int) -> ad.Tensor:
    """``losses.np_loss`` on a batch already in the (N, m) group layout."""
    n, m = n_classes, n_instances
    anchors = z[np.arange(n)]                                         # (N, D)
    rest = reshape(z[np.arange(n, n * m)], (m - 1, n, z.shape[1]))    # (m-1, N, D)
    sims = matmul(anchors, swapaxes(rest, 1, 2))                      # (m-1, N, N)
    diag = sims[:, np.arange(n), np.arange(n)]                        # (m-1, N)
    u = sub(sims, reshape(diag, (m - 1, n, 1)))
    off_diag = ~np.eye(n, dtype=bool)
    terms = log1p_sum_exp(u, np.broadcast_to(off_diag, u.shape), axis=2)
    return terms.sum() * (1.0 / ((m - 1) * n))


def composed_pa_loss(z, labels: np.ndarray, bank: losses.ProxyBank,
                     codec: losses.ClassCodec) -> ad.Tensor:
    """``losses.pa_loss``: L2-normalized proxies, cosine similarities, and
    the pull and push terms over each proxy's positives and negatives."""
    cols = codec.columns(labels)
    proxies = composed_l2_normalize(bank.proxies)
    sims = matmul(z, swapaxes(proxies, 0, 1))                         # (B, C)
    c = bank.proxies.shape[0]
    pos_mask = np.zeros((z.shape[0], c), dtype=bool)
    pos_mask[np.arange(z.shape[0]), cols] = True

    by_proxy = swapaxes(sims, 0, 1)                                   # (C, B)
    pull_terms = log1p_sum_exp(-bank.alpha * sub(by_proxy, bank.margin), pos_mask.T, axis=1)
    push_terms = log1p_sum_exp(bank.alpha * (by_proxy + bank.margin), ~pos_mask.T, axis=1)
    present = np.unique(cols)
    pull = pull_terms[present].sum() * (1.0 / present.size)
    return pull + tmean(push_terms)


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
    e_flat = reshape(e, (b * b, dim))
    q = reshape(block.wq(e_flat), (b, b, dim))
    k, val = block.wk(v), block.wv(v)
    k_diff = sub(reshape(k, (b, 1, dim)), reshape(k, (1, b, dim)))  # K_i - K_j
    s_diff = reshape(q * k_diff, (b, b, heads, hd)).sum(axis=-1)
    p_i = ad.sigmoid(s_diff * (1.0 / np.sqrt(hd)))
    v_i = reshape(val, (b, 1, heads, hd))
    v_j = reshape(val, (1, b, heads, hd))
    ctx = v_j + reshape(p_i, (b, b, heads, 1)) * sub(v_i, v_j)
    ca = block.wo(reshape(ctx, (b * b, dim)))
    return reshape(block._tail(e_flat + ca), (b, b, dim))


def dense_propagate(net: gcl.GraphNet, z, labels, node_propagation=True,
                    include_edge_sum=True, final_edge_step=True):
    """(v, e) of ``GraphNet.propagate`` from embeddings ``z``, with
    E_ij = z_i * z_j kept for every ordered pair: (B, D) and (B, B, D). The
    edges are those of the K-th edge step (``final_edges``), or with
    ``final_edge_step`` off those ``propagate`` returns."""
    z = ad.as_tensor(z)
    b, d = z.shape
    v, e = z, reshape(z, (b, 1, d)) * reshape(z, (1, b, d))
    for k in range(net.k_steps):
        if node_propagation:
            v, _ = dense_node_step(gcl.block_at(net.node_blocks, k), v, e, labels,
                                   include_edge_sum)
        if k < net.k_steps - 1 or final_edge_step:
            e = dense_edge_step(gcl.block_at(net.edge_blocks, k), e, v)
    return v, e


def dense_graph(model: trainer.HngModel, zb):
    """(v, e, lambda) of ``model``'s arm on ``zb`` through the dense graph;
    ``e`` as ``dense_propagate`` gives it for the arm."""
    v, e = dense_propagate(
        model.graph, zb.z, zb.labels,
        node_propagation=model.cfg.ablation != "no_global",
        include_edge_sum=model.cfg.ablation != "no_hadamard",
        final_edge_step=model.cfg.reads_lambda,
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
        if node_propagation:
            node_block = gcl.block_at(net.node_blocks, k)
            _, probs = node_block.attention(graph.v, graph.labels)
            maps.append(probs.data.copy())
            v = node_block(graph.v, graph.e, graph.labels, include_edge_sum)
            graph = gcl.CorrelationGraph(v=v, e=graph.e, labels=graph.labels)
        if k < net.k_steps - 1:
            e = gcl.block_at(net.edge_blocks, k)(graph.e, graph.v)
            graph = gcl.CorrelationGraph(v=graph.v, e=e, labels=graph.labels)
    return maps


class TwoStepStage1Trainer(trainer.Trainer):
    """The trainer with stage 1 as two updates: a backward and an optimizer
    step on the generator objective (skipped when it carries no gradient),
    then a backward and a step on the real-sample head's loss."""

    def _stage1(self, zb_sg, positive_idx, eta):
        cfg, model = self.cfg, self.model
        graph = model.propagate_graph(zb_sg)
        lam, lane = model.lambda_for(zb_sg, graph)
        synth = model.synthesize(zb_sg, lam, lane, eta, self.synth_rng, positive_idx)
        gen_loss, parts = losses.j_gen(
            zb_sg.z, synth, lam, lane, model.head_cz, self.codec,
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


class AllRowsTrainer(trainer.Trainer):
    """The trainer with each stage's last edge step, and the λ head after
    it, on every packed pair row, as ``hngen inspect`` runs them, rather
    than on only the rows that some loss reads."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        lambda_for = self.model.lambda_for
        self.model.lambda_for = lambda zb, graph: lambda_for(zb, graph, every_row=True)


class ComposedSynthesisTrainer(trainer.Trainer):
    """The trainer with the synthesis as the ops ``cacai.synthesize`` fuses
    (``composed_synthesize``), and with λ expanded to its (B, B, D) lanes
    once, as one tape node that both the synthesis and ``j_gen`` read: the
    layout in which a shared expansion adds their λ gradients lane by lane
    before folding them to the packed rows."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        model, lambda_for = self.model, self.model.lambda_for

        def expanded(zb, graph):
            b, d = zb.z.shape
            lanes = composed_lambda_lanes(*lambda_for(zb, graph))
            return reshape(lanes, (b * b, d)), np.arange(b * b).reshape(b, b)

        model.lambda_for = expanded
        model.synthesize = lambda zb, lam, lane, eta, rng, pos: composed_synthesize(
            zb, lam, lane, eta, rng, pos, pick_single=model.cfg.ablation == "no_rw")


# -- scalar forms of the vectorized interpolation, fusion and losses -------------


def dict_columns(ids: np.ndarray, labels) -> np.ndarray:
    """``ClassCodec.columns`` as one dict lookup per label."""
    col = {int(c): i for i, c in enumerate(ids)}
    try:
        return np.array([col[int(lab)] for lab in np.ravel(labels)],
                        dtype=np.int64).reshape(np.shape(labels))
    except KeyError as exc:
        raise ConfigurationError(f"label {exc} has no head column/proxy") from exc


def loop_sample_balanced(features, labels, n_classes: int, n_instances: int,
                         rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``datakit.sample_balanced`` from the labels alone: classes by
    ``np.unique``, each class's rows by ``np.flatnonzero``, the batch order
    filled slot by slot. Returns the batch's (features, labels)."""
    chosen = rng.choice(np.unique(labels), size=n_classes, replace=False)
    chosen = chosen[rng.permutation(n_classes)]
    draws = [rng.choice(np.flatnonzero(labels == c), size=n_instances, replace=False)
             for c in chosen]
    order = np.empty(n_classes * n_instances, dtype=np.int64)
    for g in range(n_instances):
        for s in range(n_classes):
            order[g * n_classes + s] = draws[s][g]
    return features[order], labels[order]


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
    bracket = d_plus_i + lam * eta * sub(d_minus_ij, d_plus_i)
    return z_i + bracket * div(sub(z_j, z_i), d_minus_ij)


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
    out = div(dot, sqrt(na) * sqrt(nb))
    return reshape(out, out.shape[:-1])


def j_ce(z_hat_in: ad.Tensor, class_n: int, head: losses.ClassifierHead,
         codec: losses.ClassCodec, frozen_head: bool = True) -> ad.Tensor:
    """Classification loss of one synthetic negative against its class."""
    logits = head_logits(reshape(z_hat_in, (1, z_hat_in.shape[-1])), head, frozen_head)
    return tmean(cross_entropy(logits, codec.columns(np.array([class_n]))))


def j_sim(z_i: ad.Tensor, z_hat_in: ad.Tensor) -> ad.Tensor:
    """1 - cosine(anchor, synthetic); in [0, 2]."""
    return sub(1.0, _cosine(reshape(z_i, (1, -1)), reshape(z_hat_in, (1, -1))).sum())


def j_div(lambda_entries: ad.Tensor) -> ad.Tensor:
    """1 - population std over all channels of an anchor's lambda vectors."""
    flat = reshape(lambda_entries, -1)
    if flat.shape[0] < 2:
        raise ShapeError("diversity loss needs at least two lambda entries")
    mu = tmean(flat)
    var = tmean(pow_scalar(sub(flat, mu), 2))
    return sub(1.0, sqrt_or_zero(var))


def original_np_loss(z: ad.Tensor, labels: np.ndarray, n_classes: int) -> ad.Tensor:
    """Classic N-pair loss on an anchor group plus one positive group."""
    n = n_classes
    if z.shape[0] != 2 * n:
        raise ShapeError("original N-pair loss expects exactly two groups")
    anchors = z[np.arange(n)]
    positives = z[np.arange(n, 2 * n)]
    sims = matmul(anchors, swapaxes(positives, 0, 1))
    diag = sims[np.arange(n), np.arange(n)]
    u = sub(sims, reshape(diag, (n, 1)))
    terms = log1p_sum_exp(u, ~np.eye(n, dtype=bool), axis=1)
    return tmean(terms)


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
