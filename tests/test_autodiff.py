import numpy as np
import pytest

from hngen import autodiff as ad
from hngen import kernels
from hngen.errors import ShapeError

from gradcheck import check_gradients
from oracles import (LoopAdamW, composed_l2_normalize, composed_masked_attention,
                     composed_residual_ffn_tail, concatenate, div, layer_norm, log1p_sum_exp,
                     logsumexp, masked_softmax, matmul, mirror_pairs, pairwise_sqdist,
                     pow_scalar, reshape, sqrt, sqrt_or_zero, sub, swapaxes, tmean)


def _param(rng, *shape):
    return ad.parameter(rng.standard_normal(shape))


class TestElementwise:
    def test_add_mul_broadcast(self):
        rng = np.random.default_rng(0)
        a = _param(rng, 3, 4)
        b = _param(rng, 4)
        check_gradients(lambda: ((a * b + a) * (a + 2.0)).sum(), [a, b])

    def test_div_pow(self):
        rng = np.random.default_rng(1)
        a = ad.parameter(rng.uniform(0.5, 2.0, (3, 3)))
        b = ad.parameter(rng.uniform(0.5, 2.0, (3, 3)))
        check_gradients(lambda: (div(a, b) + pow_scalar(a, 3)).sum(), [a, b])

    def test_sqrt_sigmoid_relu(self):
        rng = np.random.default_rng(2)
        a = ad.parameter(rng.uniform(0.1, 1.5, (4, 5)))
        check_gradients(
            lambda: (sqrt(a) + ad.sigmoid(a) + ad.relu(sub(a, 0.7))).sum(),
            [a],
        )

    def test_sqrt_or_zero_matches_sqrt_on_positive(self):
        x = ad.Tensor(np.array([4.0, 0.0, 9.0]))
        out = sqrt_or_zero(x)
        assert np.array_equal(out.data, [2.0, 0.0, 3.0])

    def test_sqrt_or_zero_gradient_finite_at_zero(self):
        a = ad.parameter(np.array([4.0, 0.0]))
        out = sqrt_or_zero(a).sum()
        out.backward()
        assert np.allclose(a.grad, [0.25, 0.0])


class TestMatmulAndShapes:
    def test_matmul_2d(self):
        rng = np.random.default_rng(3)
        a = _param(rng, 3, 4)
        b = _param(rng, 4, 2)
        check_gradients(lambda: matmul(a, b).sum(), [a, b])

    def test_matmul_batched(self):
        rng = np.random.default_rng(4)
        a = _param(rng, 2, 3, 3, 4)
        b = _param(rng, 2, 3, 4, 5)
        check_gradients(lambda: pow_scalar(matmul(a, b), 2).sum(), [a, b])

    def test_matmul_broadcast_rhs(self):
        rng = np.random.default_rng(5)
        a = _param(rng, 2, 3, 4)
        b = _param(rng, 4, 5)
        check_gradients(lambda: matmul(a, b).sum(), [a, b])

    def test_linear_3d_input_gradient(self):
        rng = np.random.default_rng(17)
        lin = ad.Linear(4, 3, rng)
        lin.bias.data = rng.standard_normal(3)
        x = _param(rng, 2, 5, 4)
        w = rng.standard_normal((2, 5, 3))
        check_gradients(lambda: (lin(x) * w).sum(), [x, lin.weight, lin.bias])

    def test_linear_matches_matmul_and_skips_constant_parents(self):
        rng = np.random.default_rng(18)
        lin = ad.Linear(4, 3, rng)
        x = ad.Tensor(rng.standard_normal((6, 4)))
        out = ad.linear(x, lin.weight.detach(), lin.bias.detach())
        assert np.array_equal(out.data, x.data @ lin.weight.data.T + lin.bias.data)
        assert not out.requires_grad
        lin(x).sum().backward()
        assert x.grad is None and lin.weight.grad is not None
        with pytest.raises(ShapeError):
            lin(ad.Tensor(np.zeros((4, 6))))

    def test_reshape_swapaxes_getitem(self):
        rng = np.random.default_rng(6)
        a = _param(rng, 4, 6)
        idx = np.array([2, 0, 2])

        def loss():
            x = swapaxes(reshape(a, (4, 2, 3)), 0, 1)
            return pow_scalar(x[:, idx], 2).sum()

        check_gradients(loss, [a])

    @pytest.mark.parametrize("shape, key", [
        ((7, 3), np.array([4, 0, 4, 6, 4, 0, 2, 4])),
        ((5, 4), (slice(None), np.array([3, 1, 3, 3, 0]))),
        ((6, 5, 2), (np.array([0, 5, 0, 2, 0]), np.array([1, 1, 1, 4, 1]))),
        ((6, 4), np.array([True, False, True, True, False, True])),
        ((3, 4, 2), np.arange(24).reshape(3, 4, 2) % 3 == 0),
    ])
    def test_take_backward_matches_add_at_bitwise(self, shape, key):
        rng = np.random.default_rng(19)
        a = _param(rng, *shape)
        out = a[key]
        g = rng.standard_normal(out.shape) * 10.0 ** rng.integers(-8, 8, out.shape)
        out.backward(g)
        expect = np.zeros(shape)
        np.add.at(expect, key, g)
        assert np.array_equal(a.grad, expect)

    def test_arithmetic_skips_constant_parents(self):
        rng = np.random.default_rng(20)
        x = _param(rng, 3, 4)
        c = ad.Tensor(rng.standard_normal((3, 4)))
        w = ad.Tensor(rng.standard_normal((4, 2)))
        matmul(div((x + c) * c, c * c + 1.0), w).sum().backward()
        assert x.grad is not None
        assert c.grad is None and w.grad is None

    def test_concat_stack(self):
        rng = np.random.default_rng(7)
        a = _param(rng, 2, 3)
        b = _param(rng, 2, 3)
        check_gradients(
            lambda: (concatenate([a, b], axis=1) * reshape(concatenate([b, a], axis=0), (2, 6))).sum(),
            [a, b],
        )


class TestReductionsAndComposites:
    def test_sum_mean_axes(self):
        rng = np.random.default_rng(8)
        a = _param(rng, 3, 4, 2)
        check_gradients(lambda: (a.sum(axis=1) * tmean(a, axis=(0, 2), keepdims=False).sum()).sum(), [a])

    def test_logsumexp_matches_numpy(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5, 7)) * 3
        out = logsumexp(ad.Tensor(x), axis=1)
        ref = np.log(np.exp(x - x.max(1, keepdims=True)).sum(1)) + x.max(1)
        assert np.allclose(out.data, ref, atol=1e-12)

    def test_logsumexp_gradient(self):
        rng = np.random.default_rng(10)
        a = _param(rng, 4, 5)
        check_gradients(lambda: logsumexp(a, axis=-1).sum(), [a])

    def test_log1p_sum_exp_masks_exactly(self):
        u = ad.parameter(np.array([[1.0, 50.0], [2.0, 3.0]]))
        valid = np.array([[True, False], [True, True]])
        out = log1p_sum_exp(u, valid, axis=1)
        expect0 = np.log(1 + np.exp(1.0))
        expect1 = np.log(1 + np.exp(2.0) + np.exp(3.0))
        assert np.allclose(out.data, [expect0, expect1])
        out.sum().backward()
        assert u.grad[0, 1] == 0.0

    def test_layer_norm_gradient(self):
        rng = np.random.default_rng(11)
        a = _param(rng, 3, 6)
        g = ad.parameter(rng.standard_normal(6))
        b = ad.parameter(rng.standard_normal(6))
        check_gradients(lambda: pow_scalar(layer_norm(a, g, b), 2).sum(), [a, g, b])

    def test_layer_norm_gradient_3d(self):
        rng = np.random.default_rng(15)
        a = _param(rng, 2, 3, 6)
        g = ad.parameter(rng.standard_normal(6))
        b = ad.parameter(rng.standard_normal(6))
        w = rng.standard_normal((2, 3, 6))
        check_gradients(lambda: (layer_norm(a, g, b) * w).sum(), [a, g, b])

    def test_layer_norm_matches_composed_ops_bitwise(self):
        rng = np.random.default_rng(16)
        x = ad.Tensor(rng.standard_normal((5, 7)) * 3 + 1)
        g, b = ad.Tensor(rng.standard_normal(7)), ad.Tensor(rng.standard_normal(7))
        mu = tmean(x, axis=-1, keepdims=True)
        centered = sub(x, mu)
        var = tmean(centered * centered, axis=-1, keepdims=True)
        composed = div(centered, sqrt(var + 1e-5)) * g + b
        assert np.array_equal(layer_norm(x, g, b).data, composed.data)

    def test_l2_normalize_rows_and_zero_row_rule(self):
        rng = np.random.default_rng(12)
        a = _param(rng, 5, 3)
        out = ad.l2_normalize(a)
        assert np.allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)
        check_gradients(lambda: (ad.l2_normalize(a) * a).sum(), [a])
        # a zero row maps to 1/sqrt(D) in every channel and passes no
        # gradient back; the other rows are what they are without it
        x = ad.parameter(rng.standard_normal((3, 4)))
        x.data[1] = 0.0
        out = ad.l2_normalize(x)
        assert np.array_equal(out.data[1], np.full(4, 0.5))
        rest = ad.l2_normalize(ad.Tensor(x.data[[0, 2]])).data
        assert out.data[[0, 2]].tobytes() == rest.tobytes()
        (out * rng.standard_normal((3, 4))).sum().backward()
        assert np.array_equal(x.grad[1], np.zeros(4)) and np.all(x.grad[[0, 2]] != 0.0)
        # the composed ops are the reference for nonzero rows only
        with pytest.raises(ShapeError, match="zero-norm row"):
            composed_l2_normalize(ad.Tensor(x.data))

    @pytest.mark.parametrize("shape", [(1, 2), (5, 3), (12, 64), (2, 4, 6)])
    @pytest.mark.parametrize("reuse", [False, True], ids=["once", "reused"])
    def test_l2_normalize_matches_composed_ops_bitwise(self, shape, reuse):
        # rows of very different scales; with ``reuse`` the input also feeds
        # the loss directly, so it holds a gradient before the norm's shares
        rng = np.random.default_rng(36)
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 4, shape[:-1] + (1,))
        w = rng.standard_normal(shape)
        results = []
        for op in (ad.l2_normalize, composed_l2_normalize):
            a = ad.Tensor(x.copy(), requires_grad=True)
            out = op(a)
            ((out * w + a) if reuse else out * w).sum().backward()
            results.append((out.data.tobytes(), a.grad.tobytes()))
        assert results[0] == results[1]


class TestFusedSublayerOps:
    """Finite-difference gradients of the fused graph ops; ``test_gcl``
    holds them to the composed ops bit for bit."""

    def test_masked_attention_gradient(self):
        rng = np.random.default_rng(30)
        q, k, v = (_param(rng, 6, 4) for _ in range(3))
        blocked = np.eye(6, dtype=bool)
        blocked[0, 3] = blocked[4, 1] = True
        w = rng.standard_normal((6, 4))
        check_gradients(lambda: (ad.masked_attention(q, k, v, blocked, 2)[0] * w).sum(),
                        [q, k, v], tol=1e-6)

    def test_masked_attention_weights_are_off_the_tape(self):
        rng = np.random.default_rng(31)
        q, k, v = (_param(rng, 3, 4) for _ in range(3))
        blocked = np.eye(3, dtype=bool)
        _, probs = ad.masked_attention(q, k, v, blocked, 2)
        assert probs.shape == (2, 3, 3) and not probs.requires_grad
        assert np.all(probs.data[:, blocked] == 0.0)
        blocked[2, 0] = True  # query 2 keeps key 1 only
        _, probs = ad.masked_attention(q, k, v, blocked, 2)
        _, ref = composed_masked_attention(q, k, v, blocked, 2)
        assert probs.data.tobytes() == ref.data.tobytes()
        assert np.all(probs.data[:, 2, 1] == 1.0) and np.all(probs.data[:, 2, [0, 2]] == 0.0)
        assert np.all(probs.data[:, blocked] == 0.0)
        blocked[1] = True
        with pytest.raises(ShapeError):
            ad.masked_attention(q, k, v, blocked, 2)

    def test_endpoint_attention_gradient(self):
        rng = np.random.default_rng(32)
        i, j = np.triu_indices(4)
        q = _param(rng, len(i), 6)
        k, v = _param(rng, 4, 6), _param(rng, 4, 6)
        w = rng.standard_normal((len(i), 6))
        check_gradients(lambda: (ad.endpoint_attention(q, k, v, i, j, 3) * w).sum(),
                        [q, k, v], tol=1e-6)

    def test_residual_ffn_tail_gradient(self):
        rng = np.random.default_rng(33)
        ln1, ln2 = ad.LayerNorm(4), ad.LayerNorm(4)
        ffn = ad.FeedForward(4, 2, rng)
        params = ln1.parameters() + ffn.parameters() + ln2.parameters()
        for p in params:
            p.data[...] += 0.1 * rng.standard_normal(p.shape)
        pre = _param(rng, 5, 4)
        w = rng.standard_normal((5, 4))
        check_gradients(
            lambda: (ad.residual_ffn_tail(pre, ln1, ffn.fc1, ffn.fc2, ln2) * w).sum(),
            [pre] + params, tol=1e-6,
        )

    @pytest.mark.parametrize("pre_needs_grad", [True, False])
    def test_residual_ffn_tail_matches_composed_ops_bitwise(self, pre_needs_grad):
        rng = np.random.default_rng(34)
        ln1, ln2 = ad.LayerNorm(8), ad.LayerNorm(8)
        ffn = ad.FeedForward(8, 4, rng)
        params = ln1.parameters() + ffn.parameters() + ln2.parameters()
        for p in params:
            p.data[...] += 0.1 * rng.standard_normal(p.shape)
        x = rng.standard_normal((7, 8))
        w = rng.standard_normal((7, 8))
        results = []
        for op in (ad.residual_ffn_tail, composed_residual_ffn_tail):
            pre = ad.Tensor(x.copy(), requires_grad=pre_needs_grad)
            for p in params:
                p.grad = None
            out = op(pre, ln1, ffn.fc1, ffn.fc2, ln2)
            (out * w).sum().backward()
            grads = [pre.grad] + [p.grad for p in params]
            results.append([out.data.tobytes()] + [None if g is None else g.tobytes()
                                                   for g in grads])
        assert results[0] == results[1]
        assert (results[0][1] is None) != pre_needs_grad


class TestMaskedSoftmax:
    """The composed softmax that ``masked_attention`` is checked against."""

    def test_blocked_positions_exactly_zero(self):
        rng = np.random.default_rng(13)
        scores = ad.Tensor(rng.standard_normal((2, 4, 4)))
        blocked = np.zeros((2, 4, 4), dtype=bool)
        blocked[:, :, 0] = True
        p = masked_softmax(scores, blocked)
        assert np.all(p.data[:, :, 0] == 0.0)
        assert np.allclose(p.data.sum(-1), 1.0, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(14)
        a = _param(rng, 3, 5)
        blocked = np.zeros((3, 5), dtype=bool)
        blocked[:, 2] = True
        w = rng.standard_normal((3, 5))
        check_gradients(lambda: (masked_softmax(a, blocked) * w).sum(), [a])

    def test_fully_blocked_row_raises(self):
        with pytest.raises(ShapeError):
            masked_softmax(ad.Tensor(np.zeros((2, 3))), np.ones((2, 3), dtype=bool))


class TestKernelBackedOps:
    def test_hadamard_pairs_values_and_grad(self):
        rng = np.random.default_rng(15)
        z = _param(rng, 4, 3)
        out = ad.hadamard_pairs(z)
        i, j = np.triu_indices(4)
        assert np.array_equal(out.data, z.data[i] * z.data[j])
        w = rng.standard_normal((10, 3))
        check_gradients(lambda: (ad.hadamard_pairs(z) * w).sum(), [z])

    def test_pair_index_take_values_and_grad(self):
        rng = np.random.default_rng(21)
        e = _param(rng, 10, 3)
        idx = kernels.pair_index(4)
        assert idx.shape == (4, 4) and idx.dtype == np.int64 and not idx.flags.writeable
        out = e[idx]
        assert out.shape == (4, 4, 3)
        for p, (i, j) in enumerate(zip(*np.triu_indices(4))):
            assert idx[i, j] == idx[j, i] == p
            assert np.array_equal(out.data[i, j], e.data[p])
            assert np.array_equal(out.data[j, i], e.data[p])
        w = rng.standard_normal((4, 4, 3))  # not symmetric: both orders count
        check_gradients(lambda: (e[kernels.pair_index(4)] * w).sum(), [e])

    @pytest.mark.parametrize("b", [1, 2, 5, 12])
    def test_pair_index_take_matches_mirror_pairs_bitwise(self, b):
        rng = np.random.default_rng(22 + b)
        rows = rng.standard_normal((b * (b + 1) // 2, 6))
        w = rng.standard_normal((b, b, 6))
        results = []
        for expand in (lambda e: e[kernels.pair_index(b)], lambda e: mirror_pairs(e, b)):
            e = ad.Tensor(rows.copy(), requires_grad=True)
            out = expand(e)
            (out * w).sum().backward()
            results.append((out.data.tobytes(), e.grad.tobytes()))
        assert results[0] == results[1]

    def test_pairwise_sqdist_values_and_grad(self):
        rng = np.random.default_rng(16)
        z = _param(rng, 5, 4)
        out = pairwise_sqdist(z)
        ref = ((z.data[None] - z.data[:, None]) ** 2).sum(-1)
        assert np.allclose(out.data, ref)
        w = rng.standard_normal((5, 5))
        np.fill_diagonal(w, 0.0)  # distance at i==j is a kink, not differentiable
        check_gradients(lambda: (sqrt_or_zero(pairwise_sqdist(z)) * w).sum(), [z])


class TestDetachAndAccumulation:
    def test_detach_blocks_gradient(self):
        a = ad.parameter(np.array([2.0, 3.0]))
        out = (a.detach() * a).sum()
        out.backward()
        assert np.allclose(a.grad, a.data)  # only the tracked factor

    def test_grad_accumulates_over_reuse(self):
        a = ad.parameter(np.array([1.5]))
        out = (a * a + a).sum()
        out.backward()
        assert np.allclose(a.grad, 2 * a.data + 1)

    def test_backward_on_constant_raises(self):
        with pytest.raises(RuntimeError):
            ad.Tensor(np.ones(3)).backward()


class TestOptimizer:
    def test_adamw_decoupled_decay(self):
        p = ad.parameter(np.array([1.0]))
        opt = ad.AdamW({"all": ([p], 0.1)}, weight_decay=0.5)
        p.grad = np.array([0.0])
        opt.step()
        # zero gradient: update is pure decay, theta -= lr * wd * theta
        assert np.allclose(p.data, 1.0 - 0.1 * 0.5 * 1.0)

    def test_adamw_descends_quadratic(self):
        p = ad.parameter(np.array([5.0]))
        opt = ad.AdamW({"all": ([p], 0.2)})
        for _ in range(200):
            opt.zero_grad()
            loss = (p * p).sum()
            loss.backward()
            opt.step()
        assert abs(p.data[0]) < 0.1

    def test_adamw_skips_a_parameter_without_gradient(self):
        rng = np.random.default_rng(0)
        params = [_param(rng, 3), _param(rng, 2, 2), _param(rng, 4)]
        opt = ad.AdamW({"all": (params, 0.1)}, weight_decay=0.5)
        for p in params:
            p.grad = rng.standard_normal(p.shape)
        opt.step()
        mid, seg = params[1], opt.segments[1]
        kept = (mid.data.copy(), opt.m[seg].copy(), opt.v[seg].copy())
        outer = [params[0].data.copy(), params[2].data.copy()]
        mid.grad = None
        opt.step()
        assert opt.steps == [2, 1, 2]
        for before, after in zip(kept, (mid.data, opt.m[seg], opt.v[seg])):
            assert np.array_equal(before, after)
        assert not np.array_equal(outer[0], params[0].data)
        assert not np.array_equal(outer[1], params[2].data)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_adamw_flat_update_matches_per_parameter_loop(self, weight_decay):
        rng = np.random.default_rng(3)
        shapes = [(4, 3), (3,), (2, 2, 2), (5,), (1,), (3, 2)]
        params = [_param(rng, *s) for s in shapes]
        # two groups at different rates: a run that spanned the boundary
        # would update one group at the other's rate
        loop = LoopAdamW([p.data for p in params], lr=[0.01] * 3 + [0.003] * 3,
                         weight_decay=weight_decay)
        opt = ad.AdamW({"a": (params[:3], 0.01), "b": (params[3:], 0.003)},
                       weight_decay=weight_decay)
        assert opt.group_of == ["a"] * 3 + ["b"] * 3
        for n in range(12):
            if n == 6:  # a schedule changes one group's rate part-way
                opt.lr["b"] = 0.02
                loop.lr[3:] = [0.02] * 3
            # every parameter steps first, so both groups start at count 1
            grads = [rng.standard_normal(s) if n == 0 or rng.random() < 0.6 else None
                     for s in shapes]
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            loop.step(grads)
        assert opt.steps == loop.steps
        assert len(set(opt.steps)) > 2  # mixed runs and unequal counts were exercised
        for i, p in enumerate(params):
            seg = opt.segments[i]
            assert np.array_equal(p.data, loop.data[i])
            assert np.array_equal(opt.m[seg].reshape(p.shape), loop.m[i])
            assert np.array_equal(opt.v[seg].reshape(p.shape), loop.v[i])

    def test_adamw_rejects_a_parameter_no_longer_in_its_buffer(self):
        p = ad.parameter(np.ones(3))
        opt = ad.AdamW({"all": ([p], 0.1)})
        p.data[...] = 2.0  # in place: still the buffer view
        p.grad = np.ones(3)
        opt.step()
        p.data = p.data.copy()
        with pytest.raises(RuntimeError, match="in place"):
            opt.step()
