import tracemalloc

import numpy as np
import pytest

from hngen import autodiff as ad
from hngen import cacai, gcl, kernels, losses, trainer
from hngen.backbone import BackboneConfig, EmbeddingBatch
from hngen.errors import ConfigurationError, ShapeError

from gradcheck import check_gradients
from oracles import (composed_cross_attention, composed_endpoint_attention, composed_lambda_lanes,
                     composed_masked_attention, composed_node_attention, composed_tail,
                     dense_edge_step, dense_graph, layer_norm, recompute_node_attention,
                     stacked_token_cross_attention, tmean)


def graph_net(dim, rng, node_propagation=True, include_edge_sum=True, final_edge_step=True,
              **settings):
    """GraphNet with the TrainConfig defaults, overridden by ``settings``,
    and the given propagation facts: every block of the ``full`` arm."""
    cfg = trainer.TrainConfig(**settings)
    return gcl.GraphNet(dim, rng, k_steps=cfg.k_steps, heads=cfg.heads,
                        ffn_expansion=cfg.ffn_expansion,
                        share_weights_across_steps=cfg.share_weights_across_steps,
                        node_propagation=node_propagation, include_edge_sum=include_edge_sum,
                        final_edge_step=final_edge_step)


def unit_rows(rng, b, d):
    z = rng.standard_normal((b, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def n_pairs(b):
    return b * (b + 1) // 2


def mirrored(e, b):
    return e.data[kernels.pair_index(b)]


def embed_batch(z, labels, n_classes=None, n_instances=None):
    labels = np.asarray(labels)
    n_classes = n_classes or len(set(labels.tolist()))
    n_instances = n_instances or len(labels) // n_classes
    return EmbeddingBatch(ad.Tensor(np.asarray(z, float)), labels, n_classes, n_instances)


class TestInitGraph:
    def test_orthogonal_pair_zero_edge(self):
        g = gcl.init_graph(embed_batch([[1.0, 0.0], [0.0, 1.0]], [1, 2]))
        assert np.array_equal(mirrored(g.e, 2)[0, 1], [0.0, 0.0])

    def test_self_edge_elementwise_square(self):
        g = gcl.init_graph(embed_batch([[1.0, 0.0], [0.0, 1.0]], [1, 2]))
        assert np.array_equal(mirrored(g.e, 2)[0, 0], [1.0, 0.0])

    def test_packed_rows_hold_every_ordered_product(self):
        rng = np.random.default_rng(0)
        z = unit_rows(rng, 6, 4)
        g = gcl.init_graph(embed_batch(z, [1, 2, 3, 1, 2, 3]))
        assert g.e.shape == (n_pairs(6), 4)
        assert np.array_equal(mirrored(g.e, 6), z[:, None, :] * z[None, :, :])
        assert g.attention == ()
        assert np.array_equal(g.v.data, z)

    def test_dense_input_is_read_at_its_upper_triangle(self):
        rng = np.random.default_rng(26)
        e = ad.Tensor(rng.standard_normal((5, 5, 3)), requires_grad=True)
        rows = gcl.pair_rows_of(e, 5)
        i, j = kernels.pair_rows(5)
        assert np.array_equal(rows.data, e.data[i, j])
        packed = ad.Tensor(rows.data)
        assert gcl.pair_rows_of(packed, 5) is packed


class TestNodePropagation:
    def test_mask_blocks_self_and_positives(self):
        rng = np.random.default_rng(1)
        z = unit_rows(rng, 4, 4)
        net = graph_net(4, rng, k_steps=1, heads=2)
        graph = gcl.init_graph(embed_batch(z, [1, 1, 2, 2], 2, 2))
        _, probs = net.node_blocks[0].attention(graph.v, graph.labels)
        p = probs.data  # (H, B, B)
        assert np.all(p[:, 0, 0] == 0.0) and np.all(p[:, 0, 1] == 0.0)
        assert np.allclose(p.sum(-1), 1.0, atol=1e-12)

    def test_single_class_batch_raises(self):
        rng = np.random.default_rng(2)
        z = unit_rows(rng, 3, 4)
        net = graph_net(4, rng, heads=2)
        graph = gcl.CorrelationGraph(ad.Tensor(z), ad.hadamard_pairs(ad.Tensor(z)),
                                     np.array([5, 5, 5]))
        assert graph.e.shape == (n_pairs(3), 4)
        with pytest.raises(ShapeError, match="no unmasked keys"):
            net.propagate(graph)

    def test_zero_edges_and_zero_ffn_reduce_to_normalized_residual_attention(self):
        rng = np.random.default_rng(3)
        z = unit_rows(rng, 4, 4)
        net = graph_net(4, rng, heads=2)
        block = net.node_blocks[0]
        block.ffn.fc2.weight.data[...] = 0.0  # the FFN adds exactly zero
        labels = np.array([1, 2, 1, 2])
        v = ad.Tensor(z)
        e_zero = ad.Tensor(np.zeros((n_pairs(4), 4)))
        attn, _ = block.attention(v, labels)
        out = block(v, e_zero, labels)
        ln1, ln2 = block.ln1, block.ln2
        bar = layer_norm(v + attn, ln1.gain, ln1.bias, ln1.eps)
        expect = layer_norm(bar, ln2.gain, ln2.bias, ln2.eps)
        assert np.allclose(out.data, expect.data, atol=1e-14)

    def test_matches_hand_evaluated_attention(self):
        # independent dense-algebra oracle at D=2, H=1, B=3, one class each
        rng = np.random.default_rng(4)
        z = unit_rows(rng, 3, 2)
        labels = np.array([1, 2, 3])
        net = graph_net(2, rng, heads=1)
        block = net.node_blocks[0]
        wq = np.array([[0.3, -0.2], [0.5, 0.1]])
        wk = np.array([[-0.4, 0.6], [0.2, 0.2]])
        wv = np.array([[1.0, 0.5], [-0.3, 0.8]])
        wo = np.array([[0.7, 0.0], [0.1, -0.9]])
        for lin, w in ((block.wq, wq), (block.wk, wk), (block.wv, wv), (block.wo, wo)):
            lin.weight.data = w.copy()
            lin.bias.data = np.zeros(2)
        attn, probs = block.attention(ad.Tensor(z), labels)

        q, k, v = z @ wq.T, z @ wk.T, z @ wv.T
        scores = q @ k.T / np.sqrt(2.0)
        expect = np.zeros((3, 2))
        weights = np.zeros((3, 3))
        for i in range(3):
            cols = [j for j in range(3) if j != i]
            s = np.exp(scores[i, cols] - scores[i, cols].max())
            p = s / s.sum()
            weights[i, cols] = p
            expect[i] = (p[:, None] * v[cols]).sum(0) @ wo.T
        assert np.allclose(attn.data, expect, atol=1e-12)
        assert np.allclose(probs.data[0], weights, atol=1e-12)


class TestEdgePropagation:
    def test_two_weights_sum_to_one(self):
        # the block keeps no weights: derive them from its projections and
        # check that the block's output is the one those weights give
        rng = np.random.default_rng(5)
        z = unit_rows(rng, 4, 4)
        net = graph_net(4, rng, heads=2)
        block = net.edge_blocks[0]
        graph = gcl.init_graph(embed_batch(z, [1, 2, 1, 2], 2, 2))
        expect, p = stacked_token_cross_attention(block, graph.e.data, z, *kernels.pair_rows(4))
        assert p.shape == (10, 2, 1, 2)  # (B(B+1)/2, H, 1, 2)
        assert np.all(p >= 0)
        assert np.allclose(p.sum(-1), 1.0, atol=1e-12)
        ca = block.cross_attention(graph.e, graph.v)
        np.testing.assert_allclose(ca.data, expect, rtol=0, atol=1e-12)

    def test_reversed_pair_gets_the_same_update(self):
        # why one row per pair suffices: on symmetric edges the dense step
        # gives (j, i) the update of (i, j)
        rng = np.random.default_rng(6)
        b, d = 5, 4
        v = ad.Tensor(unit_rows(rng, b, d))
        e_rows = rng.standard_normal((n_pairs(b), d))
        block = gcl.EdgeBlock(d, 2, 4, rng)
        for lin in (block.wq, block.wk, block.wv, block.wo):
            lin.bias.data = rng.standard_normal(d)
        dense = dense_edge_step(block, ad.Tensor(e_rows[kernels.pair_index(b)]), v).data
        np.testing.assert_allclose(dense, np.swapaxes(dense, 0, 1), rtol=0, atol=1e-12)
        packed = block(ad.Tensor(e_rows), v)
        np.testing.assert_allclose(mirrored(packed, b), dense, rtol=0, atol=1e-12)

    def test_matches_hand_evaluated_cross_attention(self):
        rng = np.random.default_rng(7)
        net = graph_net(2, rng, heads=1)
        block = net.edge_blocks[0]
        wq = np.array([[0.2, 0.4], [-0.6, 0.1]])
        wk = np.array([[0.9, -0.5], [0.3, 0.7]])
        wv = np.array([[0.1, 0.8], [0.5, -0.2]])
        wo = np.array([[1.1, -0.3], [0.0, 0.6]])
        for lin, w in ((block.wq, wq), (block.wk, wk), (block.wv, wv), (block.wo, wo)):
            lin.weight.data = w.copy()
            lin.bias.data = np.zeros(2)
        v = np.array([[0.6, 0.8], [1.0, 0.0]])
        e01 = np.array([0.25, -0.4])
        e_rows = np.vstack([np.zeros((1, 2)), e01, np.zeros((1, 2))])  # (0,0), (0,1), (1,1)
        ca = block.cross_attention(ad.Tensor(e_rows), ad.Tensor(v))

        tokens = np.vstack([v[0], v[1]])  # endpoints of edge (0, 1)
        q = e01 @ wq.T
        k = tokens @ wk.T
        vv = tokens @ wv.T
        s = q @ k.T / np.sqrt(2.0)
        p = np.exp(s - s.max())
        p = p / p.sum()
        expect = (p[:, None] * vv).sum(0) @ wo.T
        assert np.allclose(ca.data[1], expect, atol=1e-12)

    def test_matches_stacked_token_oracle_on_every_edge(self):
        rng = np.random.default_rng(8)
        b, d = 6, 8
        block = gcl.EdgeBlock(d, 2, 4, rng)
        for lin in (block.wq, block.wk, block.wv, block.wo):
            lin.bias.data = rng.standard_normal(d)
        v = rng.standard_normal((b, d))
        e_rows = rng.standard_normal((n_pairs(b), d))
        ca = block.cross_attention(ad.Tensor(e_rows), ad.Tensor(v))
        expect, _ = stacked_token_cross_attention(block, e_rows, v, *kernels.pair_rows(b))
        np.testing.assert_allclose(ca.data, expect, rtol=0, atol=1e-12)

    def test_forward_backward_peak_memory_below_one_edge_weight_gradient(self):
        # the old stacked-token path formed a (B^2, D, D) float64 temporary
        # in the K/V weight gradients; the per-node path must stay below it
        rng = np.random.default_rng(9)
        b, d = 32, 128
        block = gcl.EdgeBlock(d, 2, 4, rng)
        v = ad.Tensor(unit_rows(rng, b, d), requires_grad=True)
        e = ad.Tensor(rng.standard_normal((n_pairs(b), d)), requires_grad=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            block(e, v).sum().backward()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < b * b * d * d * 8, f"peak {peak / 2**20:.1f} MiB"

    def test_fused_sublayers_keep_forward_backward_peak_below_20_mib(self):
        # the composed attention and FFN-tail ops in ``oracles`` peak at
        # 29 MiB here; the fused ones keep only what their backward passes
        # read (about 15 MiB)
        rng = np.random.default_rng(10)
        b, d = 32, 128
        block = gcl.EdgeBlock(d, 2, 4, rng)
        v = ad.Tensor(unit_rows(rng, b, d), requires_grad=True)
        e = ad.Tensor(rng.standard_normal((n_pairs(b), d)), requires_grad=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            block(e, v).sum().backward()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestPropagate:
    def test_k0_rejected(self):
        with pytest.raises(ConfigurationError):
            trainer.TrainConfig(k_steps=0)

    def test_dim_head_divisibility(self):
        with pytest.raises(ConfigurationError):
            graph_net(4, np.random.default_rng(0), heads=3)

    def test_k1_is_node_then_edge(self):
        rng = np.random.default_rng(8)
        z = unit_rows(rng, 4, 4)
        net = graph_net(4, rng, k_steps=1, heads=2)
        graph = gcl.init_graph(embed_batch(z, [1, 2, 1, 2], 2, 2))
        out = net.propagate(graph)
        v = net.node_blocks[0](graph.v, graph.e, graph.labels)
        e = net.edge_blocks[0](graph.e, v)
        assert np.array_equal(out.v.data, v.data)
        assert out.e is graph.e  # the one edge step is the last, final_edges's
        assert np.array_equal(net.final_edges(out).data, e.data)
        assert len(out.attention) == 1

    def test_k2_shared_weights_composes_k1(self):
        z = unit_rows(np.random.default_rng(9), 4, 4)
        labels = np.array([1, 2, 1, 2])
        net1 = graph_net(4, np.random.default_rng(42), k_steps=1, heads=2)
        net2 = graph_net(4, np.random.default_rng(42), k_steps=2, heads=2)
        graph = gcl.init_graph(embed_batch(z, labels, 2, 2))
        out2 = net2.propagate(graph)
        mid = net1.propagate(graph)
        mid = gcl.CorrelationGraph(mid.v, net1.final_edges(mid), labels)
        out_manual = net1.propagate(mid)
        assert np.allclose(out2.v.data, out_manual.v.data, atol=1e-12)
        assert np.allclose(out2.e.data, out_manual.e.data, atol=1e-12)
        assert np.allclose(net2.final_edges(out2).data, net1.final_edges(out_manual).data,
                           atol=1e-12)

    @pytest.mark.parametrize("k_steps", [1, 2, 3])
    def test_final_edges_of_some_rows_are_those_rows_of_every_row(self, k_steps):
        rng = np.random.default_rng(30 + k_steps)
        labels = np.tile([1, 2, 3], 3)
        net = graph_net(8, rng, k_steps=k_steps, heads=2)
        graph = net.propagate(gcl.init_graph(embed_batch(unit_rows(rng, 9, 8), labels, 3, 3)))
        full = net.final_edges(graph)
        assert full.shape == (n_pairs(9), 8)
        rows = np.sort(rng.choice(n_pairs(9), size=20, replace=False))
        assert net.final_edges(graph, rows).data.tobytes() == full.data[rows].tobytes()

    def test_unshared_weights_use_per_step_blocks(self):
        rng = np.random.default_rng(21)
        z = unit_rows(rng, 4, 4)
        labels = np.array([1, 2, 1, 2])
        net = graph_net(4, rng, k_steps=2, heads=2, share_weights_across_steps=False)
        assert len(net.node_blocks) == 2 and len(net.edge_blocks) == 2
        assert not np.array_equal(
            net.node_blocks[0].wq.weight.data, net.node_blocks[1].wq.weight.data
        )
        out = net.propagate(gcl.init_graph(embed_batch(z, labels, 2, 2)))
        assert len(out.attention) == 2

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        z = unit_rows(rng, 6, 4)
        labels = np.array([1, 2, 3, 1, 2, 3])
        net = graph_net(4, rng, k_steps=2, heads=2)
        out = net.propagate(gcl.init_graph(embed_batch(z, labels, 3, 2)))
        perm = rng.permutation(6)
        zp = z[perm]
        out_p = net.propagate(gcl.init_graph(
            EmbeddingBatch(ad.Tensor(zp), labels[perm], 3, 2)))
        assert np.allclose(out_p.v.data, out.v.data[perm], atol=1e-9)
        for e_p, e in ((out_p.e, out.e), (net.final_edges(out_p), net.final_edges(out))):
            assert np.allclose(mirrored(e_p, 6), mirrored(e, 6)[perm][:, perm], atol=1e-9)

    def test_no_global_keeps_nodes_fixed(self):
        rng = np.random.default_rng(11)
        z = unit_rows(rng, 4, 4)
        net = graph_net(4, rng, k_steps=2, heads=2, node_propagation=False)
        graph = gcl.init_graph(embed_batch(z, [1, 2, 1, 2], 2, 2))
        out = net.propagate(graph)
        assert np.array_equal(out.v.data, z)
        assert out.attention == ()

    def test_no_hadamard_drops_edge_sum(self):
        rng = np.random.default_rng(12)
        z = unit_rows(rng, 4, 4)
        labels = np.array([1, 2, 1, 2])
        state = rng.bit_generator.state
        net = graph_net(4, rng, heads=2)
        rng.bit_generator.state = state  # the same blocks, without the edge sum
        net_without = graph_net(4, rng, heads=2, include_edge_sum=False)
        graph = gcl.init_graph(embed_batch(z, labels, 2, 2))
        with_sum = net.propagate(graph).v.data  # K=1: v after the one node step
        without = net_without.propagate(graph).v.data
        assert not np.allclose(with_sum, without)
        block = net.node_blocks[0]
        attn, _ = block.attention(graph.v, labels)
        expect = composed_tail(block, graph.v + attn)
        assert np.array_equal(without, expect.data)


class TestRecordedAttention:
    @pytest.mark.parametrize("share", [True, False])
    @pytest.mark.parametrize("include_edge_sum", [True, False])
    def test_matches_second_pass_oracle_bitwise(self, share, include_edge_sum):
        rng = np.random.default_rng(23)
        z = unit_rows(rng, 6, 4)
        labels = np.array([1, 2, 3, 1, 2, 3])
        net = graph_net(4, rng, k_steps=2, heads=2, share_weights_across_steps=share,
                        include_edge_sum=include_edge_sum)
        graph = gcl.init_graph(embed_batch(z, labels, 3, 2))
        out = net.propagate(graph)
        expect = recompute_node_attention(net, graph, include_edge_sum=include_edge_sum)
        assert len(out.attention) == len(expect) == 2
        for got, want in zip(out.attention, expect):
            assert got.shape == (2, 6, 6)
            assert np.array_equal(got, want)
        assert not np.array_equal(out.attention[0], out.attention[1])
        assert graph.attention == ()

    def test_no_global_records_nothing(self):
        rng = np.random.default_rng(24)
        z = unit_rows(rng, 4, 4)
        net = graph_net(4, rng, k_steps=2, heads=2, node_propagation=False)
        graph = gcl.init_graph(embed_batch(z, [1, 2, 1, 2], 2, 2))
        out = net.propagate(graph)
        assert out.attention == ()
        assert recompute_node_attention(net, graph, node_propagation=False) == []

    def test_node_block_call_returns_the_step_states(self):
        rng = np.random.default_rng(25)
        v = ad.Tensor(unit_rows(rng, 4, 4))
        e = ad.Tensor(rng.standard_normal((n_pairs(4), 4)))
        labels = np.array([1, 2, 1, 2])
        block = gcl.NodeBlock(4, 2, 4, rng)
        out = block(v, e, labels)
        assert isinstance(out, ad.Tensor)
        states, probs = block.step(v, e, labels)
        assert np.array_equal(out.data, states.data)
        assert np.array_equal(probs.data, block.attention(v, labels)[1].data)


class TestGradients:
    def test_block_parameters_match_finite_differences(self):
        rng = np.random.default_rng(13)
        b, d = 6, 8
        z = unit_rows(rng, b, d)
        labels = np.array([1, 2, 3, 1, 2, 3])
        net = graph_net(d, rng, k_steps=1, heads=2)
        wv = rng.standard_normal((b, d))
        we = rng.standard_normal((n_pairs(b), d))

        def loss():
            graph = gcl.init_graph(embed_batch(z, labels, 3, 2))
            out = net.propagate(graph)
            return (out.v * wv).sum() + (net.final_edges(out) * we).sum()

        check_gradients(loss, net.parameters(), tol=1e-4)

    def test_gradient_flows_to_embeddings(self):
        rng = np.random.default_rng(14)
        b, d = 6, 8
        z = ad.parameter(unit_rows(rng, b, d))
        labels = np.array([1, 2, 3, 1, 2, 3])
        net = graph_net(d, rng, k_steps=1, heads=2)
        wv = rng.standard_normal((b, d))

        def loss():
            zb = EmbeddingBatch(ad.l2_normalize(z), labels, 3, 2)
            out = net.propagate(gcl.init_graph(zb))
            return (out.v * wv).sum() + tmean(net.final_edges(out))

        check_gradients(loss, [z], tol=1e-4)

    def test_packed_blocks_match_finite_differences_in_their_inputs(self):
        # the FD oracle perturbs each packed row, i.e. both orders of a pair
        rng = np.random.default_rng(15)
        b, d = 4, 4
        labels = np.array([1, 2, 1, 2])
        v = ad.parameter(unit_rows(rng, b, d))
        e = ad.parameter(rng.standard_normal((n_pairs(b), d)))
        node = gcl.NodeBlock(d, 2, 2, rng)
        edge = gcl.EdgeBlock(d, 2, 2, rng)
        wv = rng.standard_normal((b, d))
        we = rng.standard_normal((n_pairs(b), d))
        check_gradients(lambda: (node(v, e, labels) * wv).sum(), [v, e], tol=1e-4)
        check_gradients(lambda: (edge(e, v) * we).sum(), [v, e], tol=1e-4)


def graph_model(ablation, k_steps, share, d=8, seed=0):
    cfg = trainer.TrainConfig(ablation=ablation, k_steps=k_steps, heads=2,
                              share_weights_across_steps=share)
    codec = losses.ClassCodec(np.array([1, 2, 3]))
    rng = np.random.default_rng(seed)
    model = trainer.HngModel(cfg, BackboneConfig(hidden_dims=[6], embed_dim=d), 5, codec, rng)
    for p in model.parameters():  # nonzero biases and gains reach every term
        p.data[...] += 0.1 * rng.standard_normal(p.shape)
    return model


GRAPH_ARMS = [arm for arm in trainer.ABLATION_ARMS if trainer.TrainConfig(ablation=arm).uses_graph]


class TestPackedMatchesDense:
    """The packed graph against all B^2 ordered edges (``oracles.dense_graph``)."""

    @pytest.mark.parametrize("arm", GRAPH_ARMS)
    @pytest.mark.parametrize("share", [True, False])
    @pytest.mark.parametrize("k_steps", [1, 2, 3])
    def test_every_ordered_edge_and_node(self, arm, share, k_steps):
        model = graph_model(arm, k_steps, share)
        rng = np.random.default_rng(k_steps)
        b, d = 9, 8
        zb = embed_batch(unit_rows(rng, b, d), np.tile([1, 2, 3], 3), 3, 3)
        graph = model.propagate_graph(zb)
        # an arm whose λ head reads nothing has no K-th edge step
        final = model.graph.final_edges(graph) if model.cfg.reads_lambda else graph.e
        v, e, lam = dense_graph(model, zb)
        assert final.shape == (n_pairs(b), d)
        np.testing.assert_allclose(graph.v.data, v.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mirrored(final, b), e.data, rtol=0, atol=1e-12)
        if model.cfg.uses_synthetics:
            rows, lane = model.lambda_for(zb, graph, every_row=True)
            np.testing.assert_allclose(cacai.lambda_lanes(rows.data, lane), lam.data,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("share", [True, False])
    def test_parameter_and_embedding_gradients(self, share):
        model = graph_model("full", 2, share, seed=3)
        rng = np.random.default_rng(4)
        b, d = 6, 8
        labels = np.tile([1, 2, 3], 2)
        z = ad.parameter(unit_rows(rng, b, d))
        wv, we = rng.standard_normal((b, d)), rng.standard_normal((b, b, d))
        params = model.generator_params() + [z]

        def grads(loss):
            for p in params:
                p.grad = None
            loss.backward()
            return [p.grad.copy() for p in params]

        zb = EmbeddingBatch(z, labels, 3, 2)
        graph = model.propagate_graph(zb)
        lanes = composed_lambda_lanes(*model.lambda_for(zb, graph, every_row=True))
        packed = grads((graph.v * wv).sum() + (lanes * we).sum())
        v, _, lam = dense_graph(model, zb)
        dense = grads((v * wv).sum() + (lam * we).sum())
        for got, want in zip(packed, dense):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def bytes_of(arrays):
    return [None if a is None else np.ascontiguousarray(a).tobytes() for a in arrays]


def propagate_and_backprop(model, z, labels, detach):
    """Final node and edge states, node attention and every generator (and,
    unless ``detach``, embedding) gradient of a weighted sum of the states."""
    rng = np.random.default_rng(7)
    b, d = z.shape
    zb = EmbeddingBatch(z.detach() if detach else z, labels, 3, b // 3)
    params = model.generator_params() + [z]
    for p in params:
        p.grad = None
    graph = model.propagate_graph(zb)
    e = model.graph.final_edges(graph) if model.cfg.reads_lambda else graph.e
    loss = (graph.v * rng.standard_normal((b, d))).sum() \
        + (e * rng.standard_normal(e.shape)).sum()
    loss.backward()
    return bytes_of([graph.v.data, e.data, *graph.attention]) \
        + bytes_of([p.grad for p in params])


class TestFusedGraphOpsMatchComposed:
    """The fused attention and FFN-tail ops against the composed ops in
    ``oracles``, bit for bit: values and every parent's gradient."""

    @pytest.mark.parametrize("arm", GRAPH_ARMS)
    @pytest.mark.parametrize("share", [True, False])
    @pytest.mark.parametrize("k_steps", [1, 2, 3])
    @pytest.mark.parametrize("detach", [True, False], ids=["stage1", "stage2"])
    def test_propagation_bitwise(self, monkeypatch, arm, share, k_steps, detach):
        model = graph_model(arm, k_steps, share, seed=k_steps)
        z = ad.parameter(unit_rows(np.random.default_rng(5), 9, 8))
        labels = np.tile([1, 2, 3], 3)
        fused = propagate_and_backprop(model, z, labels, detach)
        monkeypatch.setattr(gcl.NodeBlock, "attention", composed_node_attention)
        monkeypatch.setattr(gcl.EdgeBlock, "cross_attention", composed_cross_attention)
        monkeypatch.setattr(gcl._Block, "_tail", composed_tail)
        composed = propagate_and_backprop(model, z, labels, detach)
        assert len(fused) == len(composed)
        for got, want in zip(fused, composed):
            assert got == want

    @pytest.mark.parametrize("needs", ["qkv", "q", "k", "v", "qk", "kv"])
    def test_attention_ops_bitwise_for_each_parent_set(self, needs):
        rng = np.random.default_rng(8)
        b, d, heads = 6, 8, 2
        labels = np.array([1, 2, 3, 1, 2, 3])
        blocked = gcl.attention_block_mask(labels)
        i, j = kernels.pair_rows(b)
        rows = {"q": rng.standard_normal((b, d)), "q_pairs": rng.standard_normal((len(i), d)),
                "k": rng.standard_normal((b, d)), "v": rng.standard_normal((b, d))}
        cases = [
            ("q", ad.masked_attention, composed_masked_attention, (blocked, heads)),
            ("q_pairs", ad.endpoint_attention, composed_endpoint_attention, (i, j, heads)),
        ]
        for q_name, fused_op, composed_op, rest in cases:
            results = []
            for op in (fused_op, composed_op):
                q, k, v = (ad.Tensor(rows[name].copy(), requires_grad=name[0] in needs)
                           for name in (q_name, "k", "v"))
                out = op(q, k, v, *rest)
                out, probs = out if isinstance(out, tuple) else (out, None)
                (out * np.cos(np.arange(out.data.size)).reshape(out.shape)).sum().backward()
                results.append(bytes_of([out.data, None if probs is None else probs.data,
                                         q.grad, k.grad, v.grad]))
            assert results[0] == results[1]
