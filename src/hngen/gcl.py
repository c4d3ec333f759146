"""Correlation graph over a batch and its message-propagation network.

The graph is complete: node i starts as embedding z_i and the edge (i, j)
as the elementwise product z_i * z_j. An edge holds the correlation of its
two samples, so it is undirected, and the graph stores one row per pair
i <= j (self-edges included): B(B+1)/2 rows in ``np.triu_indices(B)`` order.
``kernels.pair_index`` maps them to the ordered (B, B, D) layout where a
caller needs it. One propagation step advances nodes first, then edges:

* nodes add masked multi-head self-attention (each row attends only to
  other-class columns; self and same-class weights are exactly zero) plus
  the unnormalized sum of incident edges, through post-norm residual
  transformer sublayers;
* edges attend from a single query (the edge state) over exactly its two
  endpoint nodes, through the same sublayer pattern. The attention weights
  of (j, i) are those of (i, j) swapped, so both orders get the same
  context and the same update: one row per pair loses nothing.

A block's attention and its FFN tail are one tape node each:
``ad.masked_attention`` for the nodes, ``ad.endpoint_attention`` for the
edges and ``ad.residual_ffn_tail`` for both tails. The Q/K/V/O projections
around the attention stay ``Linear`` modules.

``GraphNet.propagate`` runs the K node steps and the K-1 edge steps between
them, on every packed pair row: each of those edge steps feeds the next node
step's incident-edge sum, which reads every row. One node block and one edge
block serve all of them, unless per-step weights are asked for (an ablation).
The graph it returns keeps each node step's attention weights, which ``hngen
inspect`` writes out; the edge weights are not kept. The K-th edge step feeds
only the λ head, so it is the λ path's own call, ``GraphNet.final_edges``, on
the rows that path names (``trainer.HngModel.lambda_for``): the rows some
loss reads in training, every row in ``hngen inspect``.
The settings themselves (K, heads, FFN width, weight sharing) have their
defaults and range checks on ``trainer.TrainConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import kernels
from .backbone import EmbeddingBatch
from .errors import ConfigurationError


@dataclass
class CorrelationGraph:
    v: ad.Tensor          # (B, D) node states
    e: ad.Tensor          # (B(B+1)/2, D) edge states, one row per pair i <= j
    labels: np.ndarray    # (B,) class ids
    attention: tuple[np.ndarray, ...] = ()  # (H, B, B) node weights per node step


def init_graph(zb: EmbeddingBatch) -> CorrelationGraph:
    """Step-0 graph: V = z, E_ij = z_i * z_j for every pair i <= j."""
    return CorrelationGraph(v=zb.z, e=ad.hadamard_pairs(zb.z), labels=zb.labels)


def attention_block_mask(labels: np.ndarray) -> np.ndarray:
    """True where node attention is blocked: self and same-class columns."""
    labels = np.asarray(labels)
    return labels[:, None] == labels[None, :]


def pair_rows_of(e: ad.Tensor, b: int) -> ad.Tensor:
    """Edge states as packed pair rows. A dense (B, B, D) input, which
    perfbench's block probes pass, is read at its upper triangle i <= j."""
    if e.ndim == 3:
        return e[kernels.pair_rows(b)]
    return e


class _Block(ad.Module):
    """The sublayer pattern both steps share: Q/K/V/O projections for the
    attention, then a post-norm residual FFN tail."""

    def __init__(self, dim: int, heads: int, ffn_expansion: int, rng: np.random.Generator):
        self.dim = dim
        self.heads = heads
        self.wq = ad.Linear(dim, dim, rng)
        self.wk = ad.Linear(dim, dim, rng)
        self.wv = ad.Linear(dim, dim, rng)
        self.wo = ad.Linear(dim, dim, rng)
        self.ln1 = ad.LayerNorm(dim)
        self.ln2 = ad.LayerNorm(dim)
        self.ffn = ad.FeedForward(dim, ffn_expansion, rng)

    def _tail(self, pre: ad.Tensor) -> ad.Tensor:
        """LN2(FFN(x) + x) with x = LN1(pre)."""
        return ad.residual_ffn_tail(pre, self.ln1, self.ffn.fc1, self.ffn.fc2, self.ln2)


class NodeBlock(_Block):
    """One node-propagation step: masked self-attention + edge sum + FFN."""

    def attention(self, v: ad.Tensor, labels: np.ndarray) -> tuple[ad.Tensor, ad.Tensor]:
        """Multi-head attention output (B, D) and its weights (H, B, B)."""
        ctx, probs = ad.masked_attention(self.wq(v), self.wk(v), self.wv(v),
                                         attention_block_mask(labels), self.heads)
        return self.wo(ctx), probs

    def step(
        self, v: ad.Tensor, e: ad.Tensor, labels: np.ndarray, include_edge_sum: bool = True
    ) -> tuple[ad.Tensor, ad.Tensor]:
        """Updated node states (B, D) and the attention weights (H, B, B)."""
        b = v.shape[0]
        attn, probs = self.attention(v, labels)
        pre = v + attn
        if include_edge_sum:
            pre = pre + pair_rows_of(e, b)[kernels.pair_index(b)].sum(axis=1)
        return self._tail(pre), probs

    def __call__(
        self, v: ad.Tensor, e: ad.Tensor, labels: np.ndarray, include_edge_sum: bool = True
    ) -> ad.Tensor:
        return self.step(v, e, labels, include_edge_sum)[0]


class EdgeBlock(_Block):
    """One edge-propagation step: cross-attention over the two endpoints."""

    def cross_attention(
        self, e: ad.Tensor, v: ad.Tensor, rows: np.ndarray | None = None
    ) -> ad.Tensor:
        """Attend each edge query over its endpoint tokens {V_i, V_j}; ``e``
        and the output hold the packed pair rows ``rows`` (all B(B+1)/2 of
        them when None), in that order.

        K and V are projected once per node and gathered at the endpoints;
        with two tokens the softmax is sigmoid(s_i - s_j) on V_i and its
        complement on V_j.
        """
        i, j = kernels.pair_rows(v.shape[0])
        if rows is not None:
            i, j = i[rows], j[rows]
        ctx = ad.endpoint_attention(self.wq(e), self.wk(v), self.wv(v), i, j, self.heads)
        return self.wo(ctx)

    def __call__(self, e: ad.Tensor, v: ad.Tensor, rows: np.ndarray | None = None) -> ad.Tensor:
        """Updated states of the packed pair rows ``rows`` (all when None),
        from ``e``, the states of every row."""
        e = pair_rows_of(e, v.shape[0])
        if rows is not None:
            e = e[rows]
        return self._tail(e + self.cross_attention(e, v, rows))


class GraphNet(ad.Module):
    """K iterations of node-then-edge propagation over the batch graph."""

    def __init__(
        self,
        dim: int,
        rng: np.random.Generator,
        *,
        k_steps: int,
        heads: int,
        ffn_expansion: int,
        share_weights_across_steps: bool,
    ):
        if dim % heads != 0:
            raise ConfigurationError(f"embed dim {dim} not divisible by {heads} heads")
        self.k_steps = k_steps
        n_blocks = 1 if share_weights_across_steps else k_steps
        self.node_blocks = [NodeBlock(dim, heads, ffn_expansion, rng) for _ in range(n_blocks)]
        self.edge_blocks = [EdgeBlock(dim, heads, ffn_expansion, rng) for _ in range(n_blocks)]

    def _blocks(self, k: int) -> tuple[NodeBlock, EdgeBlock]:
        i = k if len(self.node_blocks) > 1 else 0  # one shared pair, or one per step
        return self.node_blocks[i], self.edge_blocks[i]

    def propagate(
        self,
        graph: CorrelationGraph,
        node_propagation: bool = True,
        include_edge_sum: bool = True,
    ) -> CorrelationGraph:
        """Run the K node steps and the K-1 edge steps between them from
        ``graph``'s states; flags implement the ablation arms (skip node
        propagation entirely, or drop the incident-edge sum). The returned
        graph's ``attention`` holds each node step's attention weights; the
        K-th edge step is ``final_edges``."""
        v, e, attention = graph.v, graph.e, []
        for k in range(self.k_steps):
            node_block, edge_block = self._blocks(k)
            if node_propagation:
                v, probs = node_block.step(v, e, graph.labels, include_edge_sum)
                attention.append(probs.data)
            if k < self.k_steps - 1:
                e = edge_block(e, v)
        return CorrelationGraph(v, e, graph.labels, tuple(attention))

    def final_edges(self, graph: CorrelationGraph, rows: np.ndarray | None = None) -> ad.Tensor:
        """The K-th edge step on ``propagate``'s graph: the updated states of
        the packed pair rows ``rows`` (ascending; every row when None)."""
        return self._blocks(self.k_steps - 1)[1](graph.e, graph.v, rows)
