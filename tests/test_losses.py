import numpy as np
import pytest

from hngen import autodiff as ad
from hngen import cli, datakit, kernels, losses, trainer
from hngen.cacai import SyntheticNegatives, lambda_lanes
from hngen.errors import ConfigurationError, ShapeError

from gradcheck import check_gradients
from oracles import (composed_cross_entropy, composed_j_gen, composed_j_syn, composed_np_loss,
                     composed_pa_loss, cross_entropy, dict_columns, j_ce, j_div, j_m, j_sim,
                     original_np_loss, tmean)
from test_tooling import TINY


def unit_rows(rng, b, d):
    z = rng.standard_normal((b, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def make_synth(z_hat, slot_labels, anchor_labels):
    z_hat = np.asarray(z_hat, float)
    slot_labels = np.asarray(slot_labels)
    anchor_labels = np.asarray(anchor_labels)
    return SyntheticNegatives(
        z_hat=ad.Tensor(z_hat),
        slot_labels=slot_labels,
        valid=slot_labels[None, :] != anchor_labels[:, None],
    )


def balanced_setup(rng, n=3, m=2, d=6, c_total=5):
    z = unit_rows(rng, n * m, d)
    slot_labels = rng.choice(np.arange(1, c_total + 1), size=n, replace=False)
    labels = np.tile(slot_labels, m)
    codec = losses.ClassCodec(np.arange(1, c_total + 1))
    z_hat = rng.standard_normal((n * m, n, d)) * 0.5 + z[:, None, :]
    synth = make_synth(z_hat, slot_labels, labels)
    return ad.Tensor(z), labels, slot_labels, codec, synth


def packed_lambda(rng, b, d, low=0.1, high=0.9, requires_grad=False):
    """Uniform λ rows for all B(B+1)/2 pairs and the map of every lane to its row."""
    rows = ad.Tensor(rng.uniform(low, high, (b * (b + 1) // 2, d)), requires_grad)
    return rows, kernels.pair_index(b)


def softmax_ce_scalar(logits, col):
    m = logits.max()
    return float(np.log(np.exp(logits - m).sum()) + m - logits[col])


class TestCrossEntropyAndJce:
    def test_uniform_logits_ln_c(self):
        logits = ad.Tensor(np.zeros((4, 7)))
        out = cross_entropy(logits, np.zeros(4, int))
        assert out.shape == (4,)  # per sample; the callers take the mean
        assert np.allclose(out.data, np.log(7.0), rtol=0, atol=1e-12)

    def test_confident_logit_near_zero(self):
        row = np.zeros((1, 4))
        row[0, 2] = 60.0
        out = cross_entropy(ad.Tensor(row), np.array([2]))
        assert out.data[0] < 1e-15

    def test_reference_value(self):
        codec = losses.ClassCodec(np.array([1, 2, 3]))
        head = losses.ClassifierHead(3, 3, np.random.default_rng(0))
        head.linear.weight.data = np.eye(3)
        head.linear.bias.data = np.zeros(3)
        out = j_ce(ad.Tensor(np.array([1.0, 2.0, 3.0])), 3, head, codec)
        assert out.data == pytest.approx(0.40761, abs=1e-4)

    def test_invalid_class_rejected(self):
        codec = losses.ClassCodec(np.array([1, 2, 3]))
        head = losses.ClassifierHead(3, 3, np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            j_ce(ad.Tensor(np.ones(3)), 9, head, codec)

    def test_gradient(self):
        rng = np.random.default_rng(1)
        logits = ad.parameter(rng.standard_normal((5, 4)))
        cols = rng.integers(0, 4, size=5)
        check_gradients(lambda: tmean(cross_entropy(logits, cols)), [logits])


class TestJsim:
    def test_identical_orthogonal_antipodal(self):
        v = ad.Tensor(np.array([1.0, 0.0]))
        assert j_sim(v, ad.Tensor(np.array([2.0, 0.0]))).data == pytest.approx(0.0)
        assert j_sim(v, ad.Tensor(np.array([0.0, 3.0]))).data == pytest.approx(1.0)
        assert j_sim(v, ad.Tensor(np.array([-1.0, 0.0]))).data == pytest.approx(2.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ShapeError):
            j_sim(ad.Tensor(np.zeros(3)), ad.Tensor(np.ones(3)))

    def test_gradient(self):
        rng = np.random.default_rng(2)
        a = ad.parameter(rng.standard_normal(6))
        b = ad.parameter(rng.standard_normal(6))
        check_gradients(lambda: j_sim(a, b), [a, b])


class TestJdiv:
    def test_constant_entries_give_one(self):
        out = j_div(ad.Tensor(np.full((4, 3), 0.37)))
        assert out.data == pytest.approx(1.0)

    def test_balanced_binary_gives_half(self):
        out = j_div(ad.Tensor(np.array([0.0, 1.0, 0.0, 1.0])))
        assert out.data == pytest.approx(0.5, abs=1e-12)

    def test_range_on_unit_interval_data(self):
        rng = np.random.default_rng(3)
        out = j_div(ad.Tensor(rng.uniform(0, 1, size=(5, 4))))
        assert 0.0 < out.data <= 1.0

    def test_too_few_entries(self):
        with pytest.raises(ShapeError):
            j_div(ad.Tensor(np.array([0.5])))

    def test_gradient(self):
        rng = np.random.default_rng(4)
        lam = ad.parameter(rng.uniform(0.2, 0.8, size=(3, 4)))
        check_gradients(lambda: j_div(lam), [lam])


class TestJgen:
    def test_zero_weights_reduce_to_mean_ce(self):
        rng = np.random.default_rng(5)
        z, labels, slots, codec, synth = balanced_setup(rng)
        head = losses.ClassifierHead(codec.num_classes, 6, rng)
        lam, lane = packed_lambda(rng, 6, 6)
        out, parts = losses.j_gen(z, synth, lam, lane, head, codec, gamma_s=0.0, gamma_d=0.0)
        # literal 1/(B*N) normalization over the B*(N-1) valid lanes
        assert out.data == pytest.approx(parts["j_ce"] * synth.valid.sum() / (6 * 3))

    def test_gamma_s_scales_similarity_linearly(self):
        rng = np.random.default_rng(6)
        z, labels, slots, codec, synth = balanced_setup(rng)
        head = losses.ClassifierHead(codec.num_classes, 6, rng)
        lam, lane = packed_lambda(rng, 6, 6)
        base = losses.j_gen(z, synth, lam, lane, head, codec,
                            gamma_s=0.0, gamma_d=0.0)[0].data
        one = losses.j_gen(z, synth, lam, lane, head, codec,
                           gamma_s=1.0, gamma_d=0.0)[0].data
        two = losses.j_gen(z, synth, lam, lane, head, codec,
                           gamma_s=2.0, gamma_d=0.0)[0].data
        assert two - base == pytest.approx(2 * (one - base), rel=1e-10)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        z, labels, slots, codec, synth = balanced_setup(rng)
        head = losses.ClassifierHead(codec.num_classes, 6, rng)
        lam, lane = packed_lambda(rng, 6, 6)
        lam_np = lambda_lanes(lam.data, lane)
        gamma_s, gamma_d = 1.3, 0.7
        out, _ = losses.j_gen(z, synth, lam, lane, head, codec,
                              gamma_s=gamma_s, gamma_d=gamma_d)

        w = head.linear.weight.data
        bb = head.linear.bias.data
        total = 0.0
        for i in range(6):
            neg_entries = [lam_np[i, j, :] for j in range(6) if labels[j] != labels[i]]
            flat = np.concatenate([e.ravel() for e in neg_entries])
            div_i = 1.0 - flat.std()
            for s in range(3):
                if slots[s] == labels[i]:
                    continue
                zh = synth.z_hat.data[i, s]
                logits = w @ zh + bb
                ce = softmax_ce_scalar(logits, codec.columns(np.array([slots[s]]))[0])
                sim = 1.0 - float(z.data[i] @ zh / (np.linalg.norm(z.data[i]) * np.linalg.norm(zh)))
                total += ce + gamma_s * sim + gamma_d * div_i
        assert out.data == pytest.approx(total / (6 * 3), abs=1e-6)

    def test_head_is_frozen_in_stage1(self):
        rng = np.random.default_rng(8)
        z, labels, slots, codec, synth = balanced_setup(rng)
        head = losses.ClassifierHead(codec.num_classes, 6, rng)
        lam, lane = packed_lambda(rng, 6, 6, requires_grad=True)
        out, _ = losses.j_gen(z, synth, lam, lane, head, codec, gamma_s=1.0, gamma_d=0.01)
        out.backward()
        assert head.linear.weight.grad is None
        assert head.linear.bias.grad is None
        assert lam.grad is not None

    def test_gradient_through_synthetics(self):
        rng = np.random.default_rng(9)
        n, m, d = 3, 2, 4
        z = ad.Tensor(unit_rows(rng, n * m, d))
        slots = np.array([1, 2, 3])
        labels = np.tile(slots, m)
        codec = losses.ClassCodec(slots)
        head = losses.ClassifierHead(3, d, rng)
        z_hat = ad.parameter(rng.standard_normal((n * m, n, d)))
        lam, lane = packed_lambda(rng, n * m, d, 0.2, 0.8, requires_grad=True)

        def loss():
            synth = make_synth(z_hat.data, slots, labels)
            synth.z_hat = z_hat  # keep the tracked tensor
            return losses.j_gen(z, synth, lam, lane, head, codec,
                                gamma_s=0.8, gamma_d=0.3)[0]

        check_gradients(loss, [z_hat, lam], tol=1e-4)


class TestHeadLosses:
    def test_j_cz_uniform_and_perfect(self):
        rng = np.random.default_rng(10)
        codec = losses.ClassCodec(np.array([1, 2]))
        head = losses.ClassifierHead(2, 3, rng)
        head.linear.weight.data[:] = 0.0
        head.linear.bias.data[:] = 0.0
        z = ad.Tensor(unit_rows(rng, 4, 3))
        labels = np.array([1, 2, 1, 2])
        assert losses.j_cz(z, labels, head, codec).data == pytest.approx(np.log(2.0))
        head.linear.bias.data = np.array([100.0, -100.0])
        out = losses.j_cz(z, np.array([1, 1, 1, 1]), head, codec)
        assert out.data < 1e-15

    def test_j_cz_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        codec = losses.ClassCodec(np.array([3, 7, 9]))
        head = losses.ClassifierHead(3, 5, rng)
        z = ad.Tensor(unit_rows(rng, 6, 5))
        labels = np.array([3, 7, 9, 3, 7, 9])
        out = losses.j_cz(z, labels, head, codec)
        w, b = head.linear.weight.data, head.linear.bias.data
        expect = np.mean([
            softmax_ce_scalar(w @ z.data[i] + b, codec.columns(labels[i : i + 1])[0])
            for i in range(6)
        ])
        assert out.data == pytest.approx(expect, abs=1e-6)

    def test_j_gca_matches_loop_oracle(self):
        rng = np.random.default_rng(12)
        codec = losses.ClassCodec(np.array([1, 2, 3]))
        head = losses.ClassifierHead(3, 4, rng)
        v = ad.Tensor(rng.standard_normal((6, 4)))
        labels = np.array([1, 2, 3, 1, 2, 3])
        out = losses.j_gca(v, labels, head, codec)
        w, b = head.linear.weight.data, head.linear.bias.data
        expect = np.mean([
            softmax_ce_scalar(w @ v.data[i] + b, codec.columns(labels[i : i + 1])[0])
            for i in range(6)
        ])
        assert out.data == pytest.approx(expect, abs=1e-6)

    def test_head_gradients(self):
        rng = np.random.default_rng(13)
        codec = losses.ClassCodec(np.array([1, 2, 3]))
        head = losses.ClassifierHead(3, 4, rng)
        v = ad.parameter(rng.standard_normal((6, 4)))
        labels = np.array([1, 2, 3, 1, 2, 3])
        check_gradients(
            lambda: losses.j_gca(v, labels, head, codec),
            [v, head.linear.weight, head.linear.bias],
        )


class TestJsyn:
    def test_equal_products_give_ln_n(self):
        # z_i . zhat_in == z_i . z+_i for every lane -> log(1 + (N-1)) = ln N
        rng = np.random.default_rng(14)
        n, m, d = 4, 2, 8
        z = unit_rows(rng, n * m, d)
        slots = np.arange(1, n + 1)
        labels = np.tile(slots, m)
        pos = (np.arange(n * m) + n) % (n * m)
        zt = ad.Tensor(z)
        pos_dot = (z * z[pos]).sum(1)
        z_hat = np.zeros((n * m, n, d))
        for i in range(n * m):
            for s in range(n):
                z_hat[i, s] = z[i] * pos_dot[i]  # z_i . zhat = pos_dot (unit z_i)
        synth = make_synth(z_hat, slots, labels)
        out = losses.j_syn(zt, pos, synth)
        assert out.data == pytest.approx(np.log(n), abs=1e-9)

    def test_very_negative_products_vanish(self):
        rng = np.random.default_rng(15)
        n, m, d = 3, 2, 4
        z = unit_rows(rng, n * m, d)
        slots = np.arange(1, n + 1)
        labels = np.tile(slots, m)
        pos = (np.arange(n * m) + n) % (n * m)
        z_hat = np.repeat(-50.0 * z[:, None, :], n, axis=1)
        synth = make_synth(z_hat, slots, labels)
        out = losses.j_syn(ad.Tensor(z), pos, synth)
        assert 0.0 <= out.data < 1e-12

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(16)
        n, m, d = 2, 2, 6
        z = unit_rows(rng, n * m, d)
        slots = np.array([1, 2])
        labels = np.tile(slots, m)
        pos = np.array([2, 3, 0, 1])
        z_hat = rng.standard_normal((n * m, n, d))
        synth = make_synth(z_hat, slots, labels)
        out = losses.j_syn(ad.Tensor(z), pos, synth)
        total = 0.0
        for i in range(n * m):
            acc = 0.0
            for s in range(n):
                if slots[s] == labels[i]:
                    continue
                acc += np.exp(z[i] @ z_hat[i, s] - z[i] @ z[pos[i]])
            total += np.log(1.0 + acc)
        assert out.data == pytest.approx(total / (n * m), abs=1e-9)

    def test_negative_class_order_invariance(self):
        rng = np.random.default_rng(17)
        n, m, d = 4, 2, 5
        z = unit_rows(rng, n * m, d)
        slots = np.arange(1, n + 1)
        labels = np.tile(slots, m)
        pos = (np.arange(n * m) + n) % (n * m)
        z_hat = rng.standard_normal((n * m, n, d))
        out1 = losses.j_syn(ad.Tensor(z), pos, make_synth(z_hat, slots, labels))
        perm = rng.permutation(n)
        out2 = losses.j_syn(ad.Tensor(z), pos, make_synth(z_hat[:, perm], slots[perm], labels))
        assert out1.data == pytest.approx(out2.data, abs=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(18)
        n, m, d = 3, 2, 4
        z0 = unit_rows(rng, n * m, d)
        slots = np.arange(1, n + 1)
        labels = np.tile(slots, m)
        pos = (np.arange(n * m) + n) % (n * m)
        z = ad.parameter(z0)
        z_hat = ad.parameter(rng.standard_normal((n * m, n, d)))

        def loss():
            synth = make_synth(z_hat.data, slots, labels)
            synth.z_hat = z_hat
            return losses.j_syn(z, pos, synth)

        check_gradients(loss, [z, z_hat])


class TestNpLoss:
    def _layout(self, rng, n, m, d):
        z = unit_rows(rng, n * m, d)
        labels = np.tile(np.arange(1, n + 1), m)
        return z, labels

    def test_m2_equals_original(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            z, labels = self._layout(rng, 4, 2, 6)
            zt = ad.Tensor(z)
            a = losses.np_loss(zt, 4, 2)
            b = original_np_loss(zt, labels, 4)
            assert a.data == pytest.approx(b.data, abs=1e-9)

    def test_identical_embeddings_ln_n(self):
        n, m = 5, 3
        z = np.repeat(unit_rows(np.random.default_rng(20), 1, 4), n * m, axis=0)
        out = losses.np_loss(ad.Tensor(z), n, m)
        assert out.data == pytest.approx(np.log(n), abs=1e-12)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(21)
        z, _ = self._layout(rng, 3, 2, 8)
        out = losses.np_loss(ad.Tensor(z), 3, 2)
        n, m = 3, 2
        total = 0.0
        for g in range(1, m):
            for j in range(n):
                acc = 0.0
                for q in range(n):
                    if q == j:
                        continue
                    acc += np.exp(z[j] @ z[q + g * n] - z[j] @ z[j + g * n])
                total += np.log(1.0 + acc)
        assert out.data == pytest.approx(total / ((m - 1) * n), abs=1e-9)

    def test_gradient(self):
        rng = np.random.default_rng(24)
        z0, _ = self._layout(rng, 3, 3, 5)
        z = ad.parameter(z0)
        check_gradients(lambda: losses.np_loss(z, 3, 3), [z])

    def test_class_slot_order_invariance(self):
        rng = np.random.default_rng(30)
        n, m = 4, 3
        z, _ = self._layout(rng, n, m, 6)
        base = losses.np_loss(ad.Tensor(z), n, m).data
        perm = rng.permutation(n)
        order = np.concatenate([perm + g * n for g in range(m)])
        permuted = losses.np_loss(ad.Tensor(z[order]), n, m).data
        assert base == pytest.approx(permuted, abs=1e-12)


class TestPaLoss:
    def _bank(self, rng, c, d):
        return losses.ProxyBank(c, d, rng, alpha=32.0, margin=0.1)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(25)
        c, d, b = 4, 6, 6
        codec = losses.ClassCodec(np.arange(1, c + 1))
        bank = self._bank(rng, c, d)
        z = unit_rows(rng, b, d)
        labels = np.array([1, 2, 3, 1, 2, 3])
        out = losses.pa_loss(ad.Tensor(z), labels, bank, codec)

        p = bank.proxies.data / np.linalg.norm(bank.proxies.data, axis=1, keepdims=True)
        sims = z @ p.T
        cols = labels - 1
        present = np.unique(cols)
        pull = 0.0
        for pc in present:
            members = np.flatnonzero(cols == pc)
            pull += np.log(1.0 + np.exp(-32.0 * (sims[members, pc] - 0.1)).sum())
        pull /= present.size
        push = 0.0
        for pc in range(c):
            others = np.flatnonzero(cols != pc)
            push += np.log(1.0 + np.exp(32.0 * (sims[others, pc] + 0.1)).sum())
        push /= c
        assert out.data == pytest.approx(pull + push, rel=1e-9)

    def test_margin_point_single_sample(self):
        # one sample at similarity delta to its only proxy: pull term is ln 2
        rng = np.random.default_rng(26)
        d = 4
        codec = losses.ClassCodec(np.array([1, 2]))
        bank = self._bank(rng, 2, d)
        p0 = bank.proxies.data[0] / np.linalg.norm(bank.proxies.data[0])
        ortho = rng.standard_normal(d)
        ortho -= ortho @ p0 * p0
        ortho /= np.linalg.norm(ortho)
        delta = 0.1
        z0 = delta * p0 + np.sqrt(1 - delta**2) * ortho  # cos(z0, p0) = delta
        z = ad.Tensor(z0[None, :])
        out = losses.pa_loss(z, np.array([1]), bank, codec)
        p1 = bank.proxies.data[1] / np.linalg.norm(bank.proxies.data[1])
        push = np.log(1.0 + np.exp(32.0 * (float(z0 @ p1) + 0.1)))
        assert out.data == pytest.approx(np.log(2.0) + push / 2.0, rel=1e-9)

    def test_unknown_label_rejected(self):
        rng = np.random.default_rng(27)
        codec = losses.ClassCodec(np.array([1, 2]))
        bank = self._bank(rng, 2, 4)
        z = ad.Tensor(unit_rows(rng, 2, 4))
        with pytest.raises(ConfigurationError):
            losses.pa_loss(z, np.array([1, 5]), bank, codec)

    def test_gradient(self):
        rng = np.random.default_rng(28)
        c, d = 3, 5
        codec = losses.ClassCodec(np.arange(1, c + 1))
        bank = self._bank(rng, c, d)
        z0 = unit_rows(rng, 6, d)
        labels = np.array([1, 2, 3, 1, 2, 3])
        raw = ad.parameter(z0 * 1.3)

        def loss():
            return losses.pa_loss(ad.l2_normalize(raw), labels, bank, codec)

        check_gradients(loss, [raw, bank.proxies])


class TestClassCodec:
    @pytest.mark.parametrize("ids, labels", [
        ([-7, -2, 0, 3], [[3, -7], [0, -2], [-2, -2]]),          # negative ids, 2-D labels
        ([5, 1000, 40, 17], [1000, 5, 17, 40, 17]),             # sparse ids
        ([2, 9], np.array(9)),                                  # a 0-d label
        ([2, 9], np.zeros((0, 3), dtype=np.int64)),             # no labels
    ])
    def test_matches_dict_lookup(self, ids, labels):
        codec = losses.ClassCodec(np.array(ids))
        got = codec.columns(labels)
        want = dict_columns(codec.ids, labels)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("labels", [[3, 4], [[1, 3], [-1, 1]], [1, 2], [1, 99], [0]])
    def test_unknown_label_is_named(self, labels):
        codec = losses.ClassCodec(np.array([1, 3]))
        unknown = next(lab for lab in np.ravel(labels) if lab not in (1, 3))
        with pytest.raises(ConfigurationError, match=f"label {unknown} has no head column"):
            codec.columns(labels)


# each fused loss's composed form, under the fused loss's signature
COMPOSED = {
    "j_gen": composed_j_gen,
    "j_cz": lambda z, labels, head, codec: composed_cross_entropy(z, head, codec.columns(labels)),
    "j_gca": lambda v, labels, head, codec: composed_cross_entropy(v, head, codec.columns(labels)),
    "j_syn": composed_j_syn,
    "np_loss": composed_np_loss,
    "pa_loss": composed_pa_loss,
}


def _loss_cases(rng, z_tracked: bool):
    """name -> (fused, composed, tracked inputs): zero-argument builders of
    each fused loss and its composed form on shared leaf tensors."""
    n, m, d = 3, 3, 5
    z, labels, slots, codec, synth = balanced_setup(rng, n=n, m=m, d=d)
    if z_tracked:
        z = ad.parameter(z.data)
    synth.z_hat = ad.parameter(synth.z_hat.data)
    lam, lane = packed_lambda(rng, n * m, d, requires_grad=True)
    head = losses.ClassifierHead(codec.num_classes, d, rng)
    bank = losses.ProxyBank(codec.num_classes, d, rng, alpha=32.0, margin=0.1)
    pos = (np.arange(n * m) + n) % (n * m)
    gammas = {"gamma_s": 1.3, "gamma_d": 0.7}
    head_params = [head.linear.weight, head.linear.bias]
    zs = [z] if z_tracked else []
    return {
        "j_gen": (lambda: losses.j_gen(z, synth, lam, lane, head, codec, **gammas)[0],
                  lambda: composed_j_gen(z, synth, lam, lane, head, codec, **gammas)[0],
                  [lam, synth.z_hat] + zs),  # the head is frozen
        "j_cz": (lambda: losses.j_cz(z, labels, head, codec),
                 lambda: COMPOSED["j_cz"](z, labels, head, codec), head_params + zs),
        "j_syn": (lambda: losses.j_syn(z, pos, synth),
                  lambda: composed_j_syn(z, pos, synth), [synth.z_hat] + zs),
        "np_loss": (lambda: losses.np_loss(z, n, m),
                    lambda: composed_np_loss(z, n, m), zs),
        "pa_loss": (lambda: losses.pa_loss(z, labels, bank, codec),
                    lambda: composed_pa_loss(z, labels, bank, codec), [bank.proxies] + zs),
    }


def _value_and_grads(make_loss, tracked):
    for t in tracked:
        t.grad = None
    out = make_loss()
    if out.requires_grad:
        out.backward()
    return out.data, [t.grad for t in tracked]


def _step_gradients(tmp_path, train: dict):
    """The LossReport of one training step and the gradients that each
    optimizer step of it applies, keyed by parameter name."""
    cfg = cli.resolve_config(None, {**TINY, "train": {**TINY["train"], **train}})
    tr = trainer.Trainer(cli.build_dataset(cfg), None, cli.train_config_from(cfg),
                         cli.backbone_config_from(cfg), tmp_path)
    names = {id(p): f"{group}.{name}"
             for group, params in tr.model.parameter_groups().items()
             for name, p in params.items()}
    applied, step = [], tr.opt.step

    def recording_step():
        applied.append({names[id(p)]: p.grad.copy() for p in tr.opt.params if p.grad is not None})
        step()

    tr.opt.step = recording_step
    batch = datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng)
    return tr.train_step(batch).to_dict(), applied


class TestFusedLossesMatchComposed:
    """Each fused loss node against its composed form in ``oracles``.

    Values are bitwise equal, and so is every gradient a loss hands its
    inputs. In a whole training step one case is only within 1e-12: in
    stage 2 several losses feed the embeddings z, and each fused loss adds
    its share of z's gradient as one term where the composed ops added
    theirs one by one, interleaved with the other losses'. So z's gradient,
    and through it the backbone's, sums the same terms in another order.
    Every other parameter's gradient is bitwise equal.
    """

    @pytest.mark.parametrize("z_tracked", [False, True], ids=["z-detached", "z-tracked"])
    @pytest.mark.parametrize("name", ["j_gen", "j_cz", "j_syn", "np_loss", "pa_loss"])
    def test_value_and_input_gradients_bitwise(self, name, z_tracked):
        fused, composed, tracked = _loss_cases(np.random.default_rng(40), z_tracked)[name]
        value, grads = _value_and_grads(fused, tracked)
        ref_value, ref_grads = _value_and_grads(composed, tracked)
        if name == "j_gen" and z_tracked:
            # j_gen reads z as a constant (stage 1 passes detached
            # embeddings); the composed form still differentiates it
            assert grads.pop() is None and ref_grads.pop() is not None
        assert value.tobytes() == ref_value.tobytes()
        for t, g, ref in zip(tracked, grads, ref_grads):
            assert (g is None) == (ref is None), t
            assert g is None or np.array_equal(g, ref), t

    def test_j_gen_components_bitwise(self):
        rng = np.random.default_rng(41)
        z, labels, slots, codec, synth = balanced_setup(rng, n=4, m=2, d=6)
        lam, lane = packed_lambda(rng, 8, 6)
        head = losses.ClassifierHead(codec.num_classes, 6, rng)
        args = (z, synth, lam, lane, head, codec)
        assert (losses.j_gen(*args, gamma_s=1.0, gamma_d=0.03)[1]
                == composed_j_gen(*args, gamma_s=1.0, gamma_d=0.03)[1])

    @pytest.mark.parametrize("train", [
        *({"ablation": arm} for arm in ("full", "no_rw", "single_coeff", "no_global",
                                         "no_hadamard")),
        {"metric_loss": "proxy_anchor"},
        {"metric_loss": "proxy_anchor", "ablation": "baseline_gnn"},
    ], ids=lambda t: "-".join(t.values()))
    def test_training_step_matches_composed(self, tmp_path, monkeypatch, train):
        report, applied = _step_gradients(tmp_path / "fused", train)
        with monkeypatch.context() as patch:
            for name, composed in COMPOSED.items():
                patch.setattr(losses, name, composed)
            ref_report, ref_applied = _step_gradients(tmp_path / "composed", train)
        assert report == ref_report
        assert [g.keys() for g in applied] == [g.keys() for g in ref_applied]
        *stage1, stage2 = zip(applied, ref_applied)
        for grads, ref in stage1:
            for name in grads:
                assert np.array_equal(grads[name], ref[name]), name
        grads, ref = stage2
        for name in grads:
            if name.startswith("backbone."):  # via z, see the class docstring
                scale = max(1.0, np.max(np.abs(ref[name])))
                assert np.max(np.abs(grads[name] - ref[name])) <= 1e-12 * scale, name
            else:
                assert np.array_equal(grads[name], ref[name]), name

    @pytest.mark.parametrize("name", ["j_gen", "j_cz", "j_syn", "np_loss", "pa_loss"])
    def test_gradcheck(self, name):
        # j_gen reads z as a constant, so z is left untracked there
        cases = _loss_cases(np.random.default_rng(42), z_tracked=name != "j_gen")
        fused, _, tracked = cases[name]
        check_gradients(fused, tracked)


class TestJm:
    def test_composite_weighting(self):
        jr = ad.Tensor(np.asarray(1.0))
        jg = ad.Tensor(np.asarray(2.0))
        js = ad.Tensor(np.asarray(4.0))
        out = j_m(jr, jg, js, gamma_n=np.exp(-1.0))
        assert out.data == pytest.approx(3.0 + (1 - np.exp(-1.0)) * 4.0)

    def test_losses_nonnegative(self):
        rng = np.random.default_rng(29)
        n, m, d = 3, 2, 6
        z = ad.Tensor(unit_rows(rng, n * m, d))
        labels = np.tile(np.arange(1, n + 1), m)
        codec = losses.ClassCodec(np.arange(1, 4))
        bank = losses.ProxyBank(3, d, rng, alpha=32.0, margin=0.1)
        assert losses.np_loss(z, n, m).data >= 0
        assert losses.pa_loss(z, labels, bank, codec).data >= 0

    def test_report_roundtrip_and_finiteness(self):
        rep = losses.LossReport(step=3, j_gen=0.5, j_m=1.25, eta=0.4, gamma_n=0.2)
        d = rep.to_dict()
        assert d["step"] == 3 and "j_cz" not in d
        rep.assert_finite()
        bad = losses.LossReport(step=1, j_m=float("nan"))
        with pytest.raises(ValueError):
            bad.assert_finite()
