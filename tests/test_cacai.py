import copy
import tracemalloc

import numpy as np
import pytest

from hngen import autodiff as ad
from hngen import cacai
from hngen.backbone import EmbeddingBatch
from hngen.errors import ConfigurationError, SamplingError, ShapeError

from gradcheck import check_gradients
from oracles import (composed_interpolate_all, fuse_random_weighting, interpolate_pair,
                     loop_select_positives)


def unit_rows(rng, b, d):
    z = rng.standard_normal((b, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def balanced_embeddings(rng, n, m, d):
    z = unit_rows(rng, n * m, d)
    labels = np.tile(np.arange(1, n + 1), m)
    return EmbeddingBatch(ad.Tensor(z), labels, n, m)


class TestEtaSchedule:
    def test_reference_value(self):
        assert abs(cacai.eta_from_avg_loss(5.0, 5.0) - np.exp(-1.0)) < 1e-12

    def test_limits_and_monotonicity(self):
        assert cacai.eta_from_avg_loss(5.0, None) == 1.0
        assert cacai.eta_from_avg_loss(5.0, np.inf) == 1.0
        vals = [cacai.eta_from_avg_loss(5.0, j) for j in (0.5, 1.0, 2.0, 8.0, 100.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v < 1.0 for v in vals)

    def test_nonpositive_clamped_with_warning(self):
        with pytest.warns(UserWarning):
            v = cacai.eta_from_avg_loss(5.0, 0.0)
        assert v == pytest.approx(0.0, abs=1e-300)


class TestLambdaHead:
    def test_zero_fc_gives_half(self):
        head = cacai.LambdaHead(4, np.random.default_rng(0))
        head.fc.weight.data[:] = 0.0
        head.fc.bias.data[:] = 0.0
        e = ad.Tensor(np.random.default_rng(1).standard_normal((3, 3, 4)))
        lam = head(e)
        assert np.all(lam.data == 0.5)

    def test_open_interval(self):
        head = cacai.LambdaHead(6, np.random.default_rng(2))
        e = ad.Tensor(np.random.default_rng(3).standard_normal((4, 4, 6)) * 10)
        lam = head(e)
        assert np.all(lam.data > 0.0) and np.all(lam.data < 1.0)

    def test_hand_set_identity_weights(self):
        head = cacai.LambdaHead(2, np.random.default_rng(4))
        head.fc.weight.data = np.eye(2)
        head.fc.bias.data[:] = 0.0
        e = ad.Tensor(np.array([[[0.0, np.log(3.0)]]]))
        lam = head(e)
        assert np.allclose(lam.data, [[[0.5, 0.75]]], atol=1e-12)


class TestPairDistances:
    def test_duplicate_positive_zero(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        zb = EmbeddingBatch(ad.Tensor(z), np.array([1, 1, 2, 2]), 2, 2)
        d_plus, _ = cacai.pair_distances(zb, np.array([1, 0, 3, 2]))
        assert d_plus.data[0] == 0.0

    def test_antipodal_diameter(self):
        z = np.array([[1.0, 0.0], [-1.0, 0.0]])
        zb = EmbeddingBatch(ad.Tensor(z), np.array([1, 2]), 2, 1)
        _, d_minus = cacai.pair_distances(zb, np.array([0, 1]))
        assert d_minus.data[0, 1] == 2.0

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(5)
        zb = balanced_embeddings(rng, 3, 2, 8)
        pos = cacai.select_positives(zb.labels, rng)
        d_plus, d_minus = cacai.pair_distances(zb, pos)
        z = zb.z.data
        for i in range(6):
            for j in range(6):
                expect = np.sqrt(np.sum((z[j] - z[i]) ** 2))
                assert d_minus.data[i, j] == expect
            assert d_plus.data[i] == d_minus.data[i, pos[i]]

    def test_positive_selection_requires_pair(self):
        with pytest.raises(SamplingError, match="anchor 0 "):
            cacai.select_positives(np.array([1, 2, 3]), np.random.default_rng(0))
        with pytest.raises(SamplingError, match="anchor 2 "):
            cacai.select_positives(np.array([1, 1, 2, 3, 3]), np.random.default_rng(0))

    @pytest.mark.parametrize("n_classes, n_instances", [(1, 2), (3, 2), (4, 5), (2, 101)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_positive_selection_matches_per_anchor_choice(self, n_classes, n_instances, seed):
        # same picks and same generator state after them, for balanced,
        # shuffled and unbalanced layouts (pool sizes 1 to 100)
        layouts = [np.tile(np.arange(n_classes), n_instances),
                   np.random.default_rng(seed).permutation(
                       np.repeat(np.arange(n_classes), n_instances)),
                   np.concatenate([np.zeros(n_instances + 1, dtype=np.int64),
                                   np.tile(np.arange(1, n_classes + 1), 2)])]
        for labels in layouts:
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = cacai.select_positives(labels, got_rng)
            want = loop_select_positives(labels, want_rng)
            assert np.array_equal(got, want)
            assert got_rng.integers(0, 2**62) == want_rng.integers(0, 2**62)


class TestInterpolatePair:
    def test_second_branch_returns_z_j_bitwise(self):
        z_i = ad.Tensor(np.array([0.6, 0.8]))
        z_j = ad.Tensor(np.array([0.8, 0.6]))
        out = interpolate_pair(z_i, z_j, 0.3, d_plus_i=1.5, d_minus_ij=0.2, eta=0.5)
        assert out is z_j

    def test_hand_evaluated_first_branch(self):
        z_i = np.array([1.0, 0.0])
        z_j = np.array([0.0, 1.0])
        out = interpolate_pair(
            z_i, z_j, 0.5, d_plus_i=0.2, d_minus_ij=np.sqrt(2.0), eta=0.5
        )
        assert np.allclose(out.data, [0.643934, 0.356066], atol=1e-6)

    def test_lambda_zero_lands_at_d_plus(self):
        rng = np.random.default_rng(6)
        z = unit_rows(rng, 2, 16)
        d_minus = np.linalg.norm(z[1] - z[0])
        d_plus = d_minus * 0.3
        out = interpolate_pair(z[0], z[1], 0.0, d_plus, d_minus, eta=0.7)
        assert abs(np.linalg.norm(out.data - z[0]) - d_plus) < 1e-12


class TestInterpolateAll:
    def test_matches_pairwise_calls(self):
        rng = np.random.default_rng(7)
        zb = balanced_embeddings(rng, 3, 2, 5)
        pos = cacai.select_positives(zb.labels, rng)
        d_plus, d_minus = cacai.pair_distances(zb, pos)
        lam = ad.Tensor(rng.uniform(0.1, 0.9, size=(6, 6, 5)))
        eta = 0.6
        out = cacai.interpolate_all(zb.z, lam, d_plus, d_minus, eta)
        for i in range(6):
            for j in range(6):
                ref = interpolate_pair(
                    zb.z.data[i], zb.z.data[j], lam.data[i, j],
                    d_plus.data[i], d_minus.data[i, j], eta,
                )
                assert np.allclose(out.data[i, j], ref.data, atol=1e-12)

    def test_scalar_lambda_norm_identity(self):
        # |z~ - z_i| == d+ + lambda*eta*(d- - d+) whenever the first branch runs
        rng = np.random.default_rng(8)
        zb = balanced_embeddings(rng, 4, 2, 16)
        pos = cacai.select_positives(zb.labels, rng)
        d_plus, d_minus = cacai.pair_distances(zb, pos)
        lam_val = 0.37
        lam = ad.Tensor(np.full((8, 8, 16), lam_val))
        eta = 0.55
        out = cacai.interpolate_all(zb.z, lam, d_plus, d_minus, eta)
        first = d_minus.data > d_plus.data[:, None]
        for i, j in zip(*np.nonzero(first)):
            have = np.linalg.norm(out.data[i, j] - zb.z.data[i])
            want = d_plus.data[i] + lam_val * eta * (d_minus.data[i, j] - d_plus.data[i])
            assert abs(have - want) < 1e-6

    def test_channelwise_envelope(self):
        rng = np.random.default_rng(9)
        zb = balanced_embeddings(rng, 3, 2, 6)
        pos = cacai.select_positives(zb.labels, rng)
        d_plus, d_minus = cacai.pair_distances(zb, pos)
        eta = 0.8
        lam = ad.Tensor(rng.uniform(0.05, 0.95, size=(6, 6, 6)))
        mid = cacai.interpolate_all(zb.z, lam, d_plus, d_minus, eta).data
        lo = cacai.interpolate_all(zb.z, ad.Tensor(np.zeros((6, 6, 6))), d_plus, d_minus, eta).data
        hi = cacai.interpolate_all(zb.z, ad.Tensor(np.ones((6, 6, 6))), d_plus, d_minus, eta).data
        lower = np.minimum(lo, hi)
        upper = np.maximum(lo, hi)
        assert np.all(mid >= lower - 1e-12) and np.all(mid <= upper + 1e-12)

    def test_gradients_flow_through_interpolation(self):
        rng = np.random.default_rng(10)
        n, m, d = 3, 2, 4
        z0 = unit_rows(rng, n * m, d)
        labels = np.tile(np.arange(1, n + 1), m)
        raw = ad.parameter(z0 * 1.7)
        lam = ad.parameter(rng.uniform(0.2, 0.8, size=(n * m, n * m, d)))
        pos = cacai.select_positives(labels, rng)
        w = rng.standard_normal((n * m, n * m, d))

        def loss():
            z = ad.l2_normalize(raw)
            zb = EmbeddingBatch(z, labels, n, m)
            d_plus, d_minus = cacai.pair_distances(zb, pos)
            out = cacai.interpolate_all(z, lam, d_plus, d_minus, 0.5)
            return (out * w).sum()

        check_gradients(loss, [raw, lam], tol=1e-4)


def interpolation_inputs(rng, b=9, d=6, fallback_rows=(1, 4), n_classes=3):
    """z (a parameter), lam, and a function giving d+ and d- from z; the
    anchors in ``fallback_rows`` get a d+ past every d-, so all their lanes
    fall back."""
    z = ad.parameter(unit_rows(rng, b, d))
    lam = ad.parameter(rng.uniform(0.05, 0.95, size=(b, b, d)))
    labels = np.tile(np.arange(1, n_classes + 1), b // n_classes)
    pos = cacai.select_positives(labels, rng)

    def distances():
        zb = EmbeddingBatch(z, labels, n_classes, b // n_classes)
        d_plus, d_minus = cacai.pair_distances(zb, pos)
        bump = np.zeros(b)
        bump[list(fallback_rows)] = 3.0
        return d_plus + bump, d_minus

    return z, lam, distances


class TestFusedInterpolation:
    """``cacai.interpolate_all`` (one tape node) against the composed ops."""

    @pytest.mark.parametrize("needs", ["lam", "z", "both"])
    def test_matches_composed_ops(self, needs):
        rng = np.random.default_rng(21)
        z, lam, distances = interpolation_inputs(rng)
        z.requires_grad = needs in ("z", "both")
        lam.requires_grad = needs in ("lam", "both")
        w = rng.standard_normal(lam.shape)
        results = []
        for op in (cacai.interpolate_all, composed_interpolate_all):
            z.grad = lam.grad = None
            d_plus, d_minus = distances()
            out = op(z, lam, d_plus, d_minus, 0.7)
            (out * w).sum().backward()
            results.append((out.data, z.grad, lam.grad, d_plus, d_minus))
        (out, gz, glam, dp, dm), (out_c, gz_c, glam_c, dp_c, dm_c) = results
        first = dm.data > dp.data[:, None]
        assert first.any() and (~first).any() and (~first[1]).all()
        # the values and the lambda, d+ and d- gradients repeat the composed
        # arithmetic; the two halves of z's gradient are added in another order
        assert out.tobytes() == out_c.tobytes()
        for got, want in ((glam, glam_c), (dp.grad, dp_c.grad), (dm.grad, dm_c.grad)):
            assert (got is None and want is None) or got.tobytes() == want.tobytes()
        if gz_c is None:
            assert gz is None
        else:
            np.testing.assert_allclose(gz, gz_c, rtol=1e-9, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(22)
        z, lam, distances = interpolation_inputs(rng, b=6, d=3, fallback_rows=(2,))
        w = rng.standard_normal(lam.shape)

        def loss():
            return (cacai.interpolate_all(z, lam, *distances(), 0.6) * w).sum()

        check_gradients(loss, [z, lam], tol=1e-6)

    def test_forward_backward_peak_below_14_pair_arrays(self):
        # the composed ops in ``oracles`` peak at about 19 (B, B, D) float64
        # arrays here, the fused op at about 8
        rng = np.random.default_rng(24)
        b, d = 80, 128
        z, lam, distances = interpolation_inputs(rng, b=b, d=d, fallback_rows=(0,), n_classes=16)
        d_plus, d_minus = distances()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cacai.interpolate_all(z, lam, d_plus, d_minus, 0.6).sum().backward()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        arrays = peak / (b * b * d * 8)
        assert arrays < 14, f"peak {arrays:.1f} (B, B, D) arrays"

    def test_rejects_lambda_of_another_shape(self):
        rng = np.random.default_rng(23)
        z, lam, distances = interpolation_inputs(rng, b=6, d=3)
        with pytest.raises(ShapeError):
            cacai.interpolate_all(z, lam[:, :, :1], *distances(), 0.5)


class TestFuseRandomWeighting:
    def test_empty_set_rejected(self):
        with pytest.raises(ConfigurationError):
            fuse_random_weighting([], np.random.default_rng(0))

    def test_singleton_identity(self):
        v = ad.Tensor(np.array([1.0, 2.0]))
        out, coeffs = fuse_random_weighting([v], np.random.default_rng(0))
        assert out is v and coeffs.tolist() == [1.0]

    def test_forced_midpoint(self):
        class HalfRng:
            def random(self):
                return 0.5

        a = ad.Tensor(np.array([0.0, 0.0]))
        b = ad.Tensor(np.array([1.0, 2.0]))
        out, coeffs = fuse_random_weighting([a, b], HalfRng())
        assert np.allclose(out.data, [0.5, 1.0])
        assert np.allclose(coeffs, [0.5, 0.5])

    def test_expansion_matches_direct_sum(self):
        rng = np.random.default_rng(11)
        vecs = [ad.Tensor(rng.standard_normal(5)) for _ in range(4)]
        out, coeffs = fuse_random_weighting(vecs, rng)
        assert np.all(coeffs >= 0) and abs(coeffs.sum() - 1.0) < 1e-9
        direct = sum(c * v.data for c, v in zip(coeffs, vecs))
        assert np.allclose(out.data, direct, atol=1e-12)

    def test_fusion_coefficients_convex(self):
        rng = np.random.default_rng(12)
        w = rng.random((10, 4, 7))
        c = cacai.fusion_coefficients(w)
        assert c.shape == (10, 4, 8)
        assert np.all(c >= 0)
        assert np.allclose(c.sum(-1), 1.0, atol=1e-9)


def fusion_inputs(zb, lam, eta, rng, pos, pick_single=False):
    """The (B, N, m, D) interpolants that each slot fuses, its batch members
    s, s + N, ..., in group order, and the (B, N, m) coefficients, drawn
    from ``rng`` as ``synthesize`` draws them."""
    n, m = zb.n_classes, zb.n_instances
    b = n * m
    d_plus, d_minus = cacai.pair_distances(zb, pos)
    z_tilde = cacai.interpolate_all(zb.z, lam, d_plus, d_minus, eta).data
    if pick_single:
        coeffs = np.zeros((b, n, m))
        np.put_along_axis(coeffs, rng.integers(0, m, size=(b, n))[:, :, None], 1.0, axis=2)
    else:
        coeffs = cacai.fusion_coefficients(rng.random((b, n, m - 1)))
    members = np.stack([z_tilde[:, s + n * np.arange(m)] for s in range(n)], axis=1)
    return members, coeffs


class TestSynthesize:
    def _setup(self, seed, n=3, m=2, d=6):
        rng = np.random.default_rng(seed)
        zb = balanced_embeddings(rng, n, m, d)
        lam = ad.Tensor(rng.uniform(0.1, 0.9, size=(n * m, n * m, d)))
        eta = cacai.eta_from_avg_loss(5.0, 5.0)
        pos = cacai.select_positives(zb.labels, rng)
        return rng, zb, lam, eta, pos

    def test_counts(self):
        rng, zb, lam, eta, pos = self._setup(13)
        synth = cacai.synthesize(zb, lam, eta, rng, pos)
        assert synth.z_hat.shape == (6, 3, 6)
        assert synth.slot_labels.shape == (3,)
        assert synth.valid.sum() == 6 * 2  # N-1 = 2 negatives per anchor

    def test_n2_single_negative_per_anchor(self):
        rng = np.random.default_rng(14)
        zb = balanced_embeddings(rng, 2, 3, 4)
        lam = ad.Tensor(rng.uniform(0.1, 0.9, size=(6, 6, 4)))
        pos = cacai.select_positives(zb.labels, rng)
        synth = cacai.synthesize(zb, lam, cacai.eta_from_avg_loss(5.0, 5.0), rng, pos)
        assert np.all(synth.valid.sum(axis=1) == 1)

    def test_convex_hull_per_channel(self):
        rng, zb, lam, eta, pos = self._setup(15)
        members, _ = fusion_inputs(zb, lam, eta, copy.deepcopy(rng), pos)
        synth = cacai.synthesize(zb, lam, eta, rng, pos)
        assert np.all(synth.z_hat.data >= members.min(axis=2) - 1e-12)
        assert np.all(synth.z_hat.data <= members.max(axis=2) + 1e-12)

    def test_deterministic_given_seed(self):
        _, zb, lam, eta, pos = self._setup(16)
        rng_a, rng_b = np.random.default_rng(99), np.random.default_rng(99)
        a = cacai.synthesize(zb, lam, eta, rng_a, pos)
        b = cacai.synthesize(zb, lam, eta, rng_b, pos)
        assert np.array_equal(a.z_hat.data, b.z_hat.data)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_fusion_reconstruction_from_provenance(self):
        rng, zb, lam, eta, pos = self._setup(17)
        members, coeffs = fusion_inputs(zb, lam, eta, copy.deepcopy(rng), pos)
        synth = cacai.synthesize(zb, lam, eta, rng, pos)
        rebuilt = (members * coeffs[..., None]).sum(axis=2)
        assert np.array_equal(rebuilt, synth.z_hat.data)
        assert np.allclose(coeffs.sum(-1), 1.0, atol=1e-9)

    def test_pick_single_selects_one(self):
        rng, zb, lam, eta, pos = self._setup(18)
        members, coeffs = fusion_inputs(zb, lam, eta, copy.deepcopy(rng), pos, pick_single=True)
        synth = cacai.synthesize(zb, lam, eta, rng, pos, pick_single=True)
        picked = np.take_along_axis(members, coeffs.argmax(axis=2)[:, :, None, None], axis=2)
        assert np.array_equal(synth.z_hat.data, picked[:, :, 0])

    def test_slots_fuse_their_class_members_in_group_order(self):
        rng, zb, lam, eta, pos = self._setup(19)
        _, coeffs = fusion_inputs(zb, lam, eta, copy.deepcopy(rng), pos)
        synth = cacai.synthesize(zb, lam, eta, rng, pos)
        d_plus, d_minus = cacai.pair_distances(zb, pos)
        z_tilde = cacai.interpolate_all(zb.z, lam, d_plus, d_minus, eta).data
        for s in range(3):  # slot s fuses batch members s, s + N, in that order
            fused = (z_tilde[:, [s, s + 3]] * coeffs[:, s, :, None]).sum(axis=1)
            assert np.array_equal(synth.z_hat.data[:, s], fused)
        assert np.array_equal(synth.slot_labels, zb.labels[:3])
