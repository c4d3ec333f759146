import copy
import tracemalloc

import numpy as np
import pytest

from hngen import autodiff as ad
from hngen import cacai, kernels
from hngen.backbone import EmbeddingBatch
from hngen.errors import ConfigurationError, SamplingError, ShapeError

from gradcheck import check_gradients
from oracles import (composed_lambda_lanes, composed_synthesize, fuse_random_weighting,
                     interpolate_pair, lane_interpolants, loop_select_positives)


def unit_rows(rng, b, d):
    z = rng.standard_normal((b, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def balanced_embeddings(rng, n, m, d):
    z = unit_rows(rng, n * m, d)
    labels = np.tile(np.arange(1, n + 1), m)
    return EmbeddingBatch(ad.Tensor(z), labels, n, m)


def packed_lambda(rng, b, d, low=0.1, high=0.9, requires_grad=False):
    """Uniform λ rows for all B(B+1)/2 pairs and the map of every lane to its row."""
    rows = ad.Tensor(rng.uniform(low, high, size=(b * (b + 1) // 2, d)), requires_grad)
    return rows, kernels.pair_index(b)


def cross_class_lanes(labels):
    """The lane map of training's cut graph: cross-class rows only, -1 elsewhere."""
    i, j = kernels.pair_rows(len(labels))
    rows = np.flatnonzero(labels[i] != labels[j])
    at = np.full(i.size, -1)
    at[rows] = np.arange(rows.size)
    return at[kernels.pair_index(len(labels))], rows.size


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
        assert d_plus[0] == 0.0

    def test_antipodal_diameter(self):
        z = np.array([[1.0, 0.0], [-1.0, 0.0]])
        zb = EmbeddingBatch(ad.Tensor(z), np.array([1, 2]), 2, 1)
        _, d_minus = cacai.pair_distances(zb, np.array([0, 1]))
        assert d_minus[0, 1] == 2.0

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(5)
        zb = balanced_embeddings(rng, 3, 2, 8)
        pos = cacai.select_positives(zb.labels, rng)
        d_plus, d_minus = cacai.pair_distances(zb, pos)
        z = zb.z.data
        for i in range(6):
            for j in range(6):
                expect = np.sqrt(np.sum((z[j] - z[i]) ** 2))
                assert d_minus[i, j] == expect
            assert d_plus[i] == d_minus[i, pos[i]]

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
    """The per-lane interpolants inside ``cacai.synthesize``, read out with
    ``oracles.lane_interpolants``."""

    def test_matches_pairwise_calls(self):
        rng = np.random.default_rng(7)
        zb = balanced_embeddings(rng, 3, 2, 5)
        pos = cacai.select_positives(zb.labels, rng)
        d_plus, d_minus = cacai.pair_distances(zb, pos)
        lam, lane = packed_lambda(rng, 6, 5)
        lanes = cacai.lambda_lanes(lam.data, lane)
        eta = 0.6
        out = lane_interpolants(zb, lam, lane, eta, pos)
        for i in range(6):
            for j in range(6):
                ref = interpolate_pair(
                    zb.z.data[i], zb.z.data[j], lanes[i, j], d_plus[i], d_minus[i, j], eta,
                )
                assert np.allclose(out[i, j], ref.data, atol=1e-12)

    def test_scalar_lambda_norm_identity(self):
        # |z~ - z_i| == d+ + lambda*eta*(d- - d+) whenever the first branch runs
        rng = np.random.default_rng(8)
        zb = balanced_embeddings(rng, 4, 2, 16)
        pos = cacai.select_positives(zb.labels, rng)
        d_plus, d_minus = cacai.pair_distances(zb, pos)
        lam_val = 0.37
        lam, lane = packed_lambda(rng, 8, 16, lam_val, lam_val)
        eta = 0.55
        out = lane_interpolants(zb, lam, lane, eta, pos)
        first = d_minus > d_plus[:, None]
        for i, j in zip(*np.nonzero(first)):
            have = np.linalg.norm(out[i, j] - zb.z.data[i])
            want = d_plus[i] + lam_val * eta * (d_minus[i, j] - d_plus[i])
            assert abs(have - want) < 1e-6

    def test_channelwise_envelope(self):
        rng = np.random.default_rng(9)
        zb = balanced_embeddings(rng, 3, 2, 6)
        pos = cacai.select_positives(zb.labels, rng)
        eta = 0.8
        lam, lane = packed_lambda(rng, 6, 6, 0.05, 0.95)
        mid = lane_interpolants(zb, lam, lane, eta, pos)
        lo = lane_interpolants(zb, ad.Tensor(np.zeros(lam.shape)), lane, eta, pos)
        hi = lane_interpolants(zb, ad.Tensor(np.ones(lam.shape)), lane, eta, pos)
        lower = np.minimum(lo, hi)
        upper = np.maximum(lo, hi)
        assert np.all(mid >= lower - 1e-12) and np.all(mid <= upper + 1e-12)

    def test_constant_lanes_read_one_and_pass_no_gradient(self):
        # lanes mapped to -1 interpolate with λ = 1, mapped lanes with their
        # row; an all -1 map hands the rows a zero gradient
        rng = np.random.default_rng(25)
        zb = balanced_embeddings(rng, 3, 3, 4)
        pos = cacai.select_positives(zb.labels, rng)
        lane, r = cross_class_lanes(zb.labels)
        lam = ad.parameter(rng.uniform(0.1, 0.9, size=(r, 4)))
        lanes = cacai.lambda_lanes(lam.data, lane)
        assert lanes.shape == (9, 9, 4)
        assert np.all(lanes[lane < 0] == 1.0)
        assert np.array_equal(lanes[lane >= 0], lam.data[lane[lane >= 0]])
        full = ad.Tensor(lanes.reshape(-1, 4))
        every = np.arange(81).reshape(9, 9)
        assert np.array_equal(lane_interpolants(zb, lam, lane, 0.7, pos),
                              lane_interpolants(zb, full, every, 0.7, pos))
        synth = cacai.synthesize(zb, lam, np.full((9, 9), -1), 0.7, rng, pos)
        (synth.z_hat * 3.0).sum().backward()
        assert np.array_equal(lam.grad, np.zeros((r, 4)))

    @pytest.mark.parametrize("b", [1, 2, 5, 12])
    def test_lambda_lanes_and_fold_match_the_composed_take_bitwise(self, b):
        # rows and the gradient that each row gets back, the (i, j) lane's
        # then the (j, i) lane's, as ``take``'s scatter adds them; the
        # constant lanes read 1 and pass nothing back
        rng = np.random.default_rng(40 + b)
        d = 6
        for lane in (kernels.pair_index(b), np.where(rng.random((b, b)) < 0.3, -1,
                                                     kernels.pair_index(b))):
            lane = np.minimum(lane, lane.T)  # a pair is mapped in both orders or neither
            rows = ad.parameter(rng.standard_normal((b * (b + 1) // 2, d)))
            w = rng.standard_normal((b, b, d))
            (composed_lambda_lanes(rows, lane) * w).sum().backward()
            assert cacai.lambda_lanes(rows.data, lane).tobytes() == (
                composed_lambda_lanes(rows, lane).data.tobytes())
            assert cacai.fold_lanes(w, lane, rows.shape[0]).tobytes() == rows.grad.tobytes()

    def test_gradients_flow_through_interpolation(self):
        rng = np.random.default_rng(10)
        n, m, d = 3, 2, 4
        z0 = unit_rows(rng, n * m, d)
        labels = np.tile(np.arange(1, n + 1), m)
        raw = ad.parameter(z0 * 1.7)
        lam, lane = packed_lambda(rng, n * m, d, 0.2, 0.8, requires_grad=True)
        pos = cacai.select_positives(labels, rng)
        w = rng.standard_normal((n * m, n, d))

        def loss():
            zb = EmbeddingBatch(ad.l2_normalize(raw), labels, n, m)
            synth = cacai.synthesize(zb, lam, lane, 0.5, np.random.default_rng(3), pos)
            return (synth.z_hat * w).sum()

        check_gradients(loss, [raw, lam], tol=1e-4)


def synthesis_inputs(rng, n=3, m=3, d=6, fallback=(1, 4), lanes="all"):
    """A batch whose anchors in ``fallback`` have an antipodal positive, so
    every lane of theirs falls back to z_j; their positives, the other
    anchors' drawn ones; and λ rows with the lane map of ``lanes``: every
    pair ("all"), the cross-class pairs that training reads ("cut"), or none
    (``single_coeff``'s constant 1)."""
    b = n * m
    z = unit_rows(rng, b, d)
    labels = np.tile(np.arange(1, n + 1), m)
    pos = cacai.select_positives(labels, rng)
    for i in fallback:
        pos[i] = i + n
        z[i + n] = -z[i]
    zb = EmbeddingBatch(ad.parameter(z), labels, n, m)
    if lanes == "all":
        lam, lane = packed_lambda(rng, b, d, 0.05, 0.95, requires_grad=True)
    elif lanes == "cut":
        lane, r = cross_class_lanes(labels)
        lam = ad.parameter(rng.uniform(0.05, 0.95, size=(r, d)))
    else:
        lam, lane = ad.parameter(np.zeros((0, d))), np.full((b, b), -1)
    return zb, lam, lane, pos


class TestSynthesisNode:
    """``cacai.synthesize`` (one tape node) against the composed ops
    (``oracles.composed_synthesize``)."""

    @pytest.mark.parametrize("pick_single", [False, True], ids=["fuse", "no_rw"])
    @pytest.mark.parametrize("lanes", ["all", "cut", "single_coeff"])
    @pytest.mark.parametrize("needs", ["lam", "z", "both"])
    def test_matches_composed_ops(self, needs, lanes, pick_single):
        rng = np.random.default_rng(21)
        zb, lam, lane, pos = synthesis_inputs(rng, lanes=lanes)
        zb.z.requires_grad = needs in ("z", "both")
        lam.requires_grad = needs in ("lam", "both") and lam.shape[0] > 0
        w = rng.standard_normal((9, 3, 6))
        results = []
        for op in (cacai.synthesize, composed_synthesize):
            zb.z.grad = lam.grad = None
            synth = op(zb, lam, lane, 0.7, np.random.default_rng(5), pos, pick_single=pick_single)
            if synth.z_hat.requires_grad:
                (synth.z_hat * w).sum().backward()
            results.append((synth.z_hat.data, synth.valid, zb.z.grad, lam.grad))
        (out, valid, gz, glam), (out_c, valid_c, gz_c, glam_c) = results
        d_plus, d_minus = cacai.pair_distances(zb, pos)
        first = d_minus > d_plus[:, None]
        assert first.any() and (~first).any() and (~first[1]).all() and (~first[4]).all()
        # the values and λ's gradient repeat the composed arithmetic
        assert out.tobytes() == out_c.tobytes() and np.array_equal(valid, valid_c)
        assert (glam is None and glam_c is None) or glam.tobytes() == glam_c.tobytes()
        # z's gradient takes the interpolation's and the distances' shares as
        # one term, and the interpolation's two halves in another order
        if gz_c is None:
            assert gz is None
        else:
            np.testing.assert_allclose(gz, gz_c, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("lanes", ["all", "cut"])
    def test_gradients_match_finite_differences(self, lanes):
        rng = np.random.default_rng(22)
        zb, lam, lane, pos = synthesis_inputs(rng, n=3, m=2, d=3, fallback=(2,), lanes=lanes)
        z = zb.z
        w = rng.standard_normal((6, 3, 3))

        def loss():
            synth = cacai.synthesize(EmbeddingBatch(z, zb.labels, 3, 2), lam, lane, 0.6,
                                     np.random.default_rng(4), pos)
            return (synth.z_hat * w).sum()

        check_gradients(loss, [z, lam], tol=1e-6)

    @pytest.mark.parametrize("tracked", ["lam", "z"], ids=["stage1", "stage2"])
    def test_forward_backward_peak_below_11_pair_arrays(self, tracked):
        # the whole node, forward and backward, at B=80 (16 x 5), D=128: the
        # composed chain it replaces peaks at about 13 (B, B, D) float64
        # arrays here; stage 1 tracks the λ rows, stage 2 the embeddings
        rng = np.random.default_rng(24)
        b, d = 80, 128
        zb, lam, lane, pos = synthesis_inputs(rng, n=16, m=5, d=d, fallback=(0,), lanes="cut")
        zb.z.requires_grad = tracked == "z"
        lam.requires_grad = tracked == "lam"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            synth = cacai.synthesize(zb, lam, lane, 0.6, rng, pos)
            synth.z_hat.sum().backward()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert (lam.grad if tracked == "lam" else zb.z.grad) is not None
        arrays = peak / (b * b * d * 8)
        assert arrays < 11, f"peak {arrays:.1f} (B, B, D) arrays"

    def test_rejects_lambda_of_another_shape(self):
        rng = np.random.default_rng(23)
        zb, lam, lane, pos = synthesis_inputs(rng, n=3, m=2, d=3, fallback=())
        with pytest.raises(ShapeError):
            cacai.synthesize(zb, lam[:, :1], lane, 0.5, rng, pos)
        with pytest.raises(ShapeError):
            cacai.synthesize(zb, lam, lane[:, :1], 0.5, rng, pos)


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


def fusion_inputs(zb, lam, lane, eta, rng, pos, pick_single=False):
    """The (B, N, m, D) interpolants that each slot fuses, its batch members
    s, s + N, ..., in group order, and the (B, N, m) coefficients, drawn
    from ``rng`` as ``synthesize`` draws them."""
    n, m = zb.n_classes, zb.n_instances
    b = n * m
    z_tilde = lane_interpolants(zb, lam, lane, eta, pos)
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
        lam, lane = packed_lambda(rng, n * m, d)
        eta = float(np.exp(-1.0))
        pos = cacai.select_positives(zb.labels, rng)
        return rng, zb, lam, lane, eta, pos

    def test_counts(self):
        rng, zb, lam, lane, eta, pos = self._setup(13)
        synth = cacai.synthesize(zb, lam, lane, eta, rng, pos)
        assert synth.z_hat.shape == (6, 3, 6)
        assert synth.slot_labels.shape == (3,)
        assert synth.valid.sum() == 6 * 2  # N-1 = 2 negatives per anchor

    def test_n2_single_negative_per_anchor(self):
        rng = np.random.default_rng(14)
        zb = balanced_embeddings(rng, 2, 3, 4)
        lam, lane = packed_lambda(rng, 6, 4)
        pos = cacai.select_positives(zb.labels, rng)
        synth = cacai.synthesize(zb, lam, lane, float(np.exp(-1.0)), rng, pos)
        assert np.all(synth.valid.sum(axis=1) == 1)

    def test_convex_hull_per_channel(self):
        rng, zb, lam, lane, eta, pos = self._setup(15)
        members, _ = fusion_inputs(zb, lam, lane, eta, copy.deepcopy(rng), pos)
        synth = cacai.synthesize(zb, lam, lane, eta, rng, pos)
        assert np.all(synth.z_hat.data >= members.min(axis=2) - 1e-12)
        assert np.all(synth.z_hat.data <= members.max(axis=2) + 1e-12)

    def test_deterministic_given_seed(self):
        _, zb, lam, lane, eta, pos = self._setup(16)
        rng_a, rng_b = np.random.default_rng(99), np.random.default_rng(99)
        a = cacai.synthesize(zb, lam, lane, eta, rng_a, pos)
        b = cacai.synthesize(zb, lam, lane, eta, rng_b, pos)
        assert np.array_equal(a.z_hat.data, b.z_hat.data)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_fusion_reconstruction_from_provenance(self):
        rng, zb, lam, lane, eta, pos = self._setup(17)
        members, coeffs = fusion_inputs(zb, lam, lane, eta, copy.deepcopy(rng), pos)
        synth = cacai.synthesize(zb, lam, lane, eta, rng, pos)
        rebuilt = (members * coeffs[..., None]).sum(axis=2)
        assert np.array_equal(rebuilt, synth.z_hat.data)
        assert np.allclose(coeffs.sum(-1), 1.0, atol=1e-9)

    def test_pick_single_selects_one(self):
        rng, zb, lam, lane, eta, pos = self._setup(18)
        members, coeffs = fusion_inputs(zb, lam, lane, eta, copy.deepcopy(rng), pos,
                                        pick_single=True)
        synth = cacai.synthesize(zb, lam, lane, eta, rng, pos, pick_single=True)
        picked = np.take_along_axis(members, coeffs.argmax(axis=2)[:, :, None, None], axis=2)
        assert np.array_equal(synth.z_hat.data, picked[:, :, 0])

    def test_slots_fuse_their_class_members_in_group_order(self):
        rng, zb, lam, lane, eta, pos = self._setup(19)
        _, coeffs = fusion_inputs(zb, lam, lane, eta, copy.deepcopy(rng), pos)
        synth = cacai.synthesize(zb, lam, lane, eta, rng, pos)
        z_tilde = lane_interpolants(zb, lam, lane, eta, pos)
        for s in range(3):  # slot s fuses batch members s, s + N, in that order
            fused = (z_tilde[:, [s, s + 3]] * coeffs[:, s, :, None]).sum(axis=1)
            assert np.array_equal(synth.z_hat.data[:, s], fused)
        assert np.array_equal(synth.slot_labels, zb.labels[:3])
