import numpy as np
import pytest

from hngen import autodiff as ad
from hngen.backbone import Backbone, BackboneConfig, EmbeddingBatch
from hngen.datakit import LabeledBatch
from hngen.errors import ConfigurationError, ShapeError

from gradcheck import check_gradients


def make_batch(features, labels, n_classes, n_instances):
    return LabeledBatch(
        features=np.asarray(features, float),
        labels=np.asarray(labels, int),
        n_classes=n_classes,
        n_instances=n_instances,
    )


class TestIdentityBackbone:
    def test_unit_norm_input_unchanged(self):
        bb = Backbone(BackboneConfig(kind="identity", embed_dim=2), 2, np.random.default_rng(0))
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        out = bb.embed(make_batch(feats, [1, 2, 1, 2], 2, 2))
        assert np.array_equal(out.z.data, feats)

    def test_dim_mismatch_reports_expected_and_actual(self):
        bb = Backbone(BackboneConfig(kind="identity", embed_dim=3), 3, np.random.default_rng(0))
        with pytest.raises(ShapeError, match="expected input dim 3, got 2"):
            bb.embed(make_batch(np.ones((4, 2)), [1, 2, 1, 2], 2, 2))

    def test_identity_requires_matching_dims(self):
        with pytest.raises(ConfigurationError):
            Backbone(BackboneConfig(kind="identity", embed_dim=4), 7, np.random.default_rng(0))


class TestMlpBackbone:
    def test_rows_unit_norm(self):
        rng = np.random.default_rng(1)
        bb = Backbone(BackboneConfig(hidden_dims=[16], embed_dim=8), 5, rng)
        feats = rng.standard_normal((6, 5))
        out = bb.embed(make_batch(feats, [1, 2, 3, 1, 2, 3], 3, 2))
        norms = np.linalg.norm(out.z.data, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-6)

    def test_deterministic(self):
        # that a model loaded for eval or inspect records no tape is
        # test_cli.py's test_checkpoint_model_records_no_tape
        rng = np.random.default_rng(2)
        bb = Backbone(BackboneConfig(hidden_dims=[8], embed_dim=4), 3, rng)
        feats = rng.standard_normal((4, 3))
        batch = make_batch(feats, [1, 2, 1, 2], 2, 2)
        assert np.array_equal(bb.embed(batch).z.data, bb.embed(batch).z.data)

    def test_exposes_parameters(self):
        rng = np.random.default_rng(3)
        bb = Backbone(BackboneConfig(hidden_dims=[8], embed_dim=4), 3, rng)
        feats = rng.standard_normal((4, 3))
        out = bb.embed(make_batch(feats, [1, 2, 1, 2], 2, 2))
        loss = (out.z * out.z).sum()
        loss.backward()
        assert all(p.grad is not None for p in bb.parameters())

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        bb = Backbone(BackboneConfig(hidden_dims=[6], embed_dim=8), 5, rng)
        feats = rng.standard_normal((6, 5))
        w = rng.standard_normal((6, 8))

        def loss():
            z = bb.forward(ad.Tensor(feats))
            return (z * w).sum()

        check_gradients(loss, bb.parameters(), tol=1e-4)

    def test_zero_row_maps_to_unit_vector_not_nan(self):
        bb = Backbone(BackboneConfig(kind="identity", embed_dim=3), 3, np.random.default_rng(0))
        feats = np.array([[1.0, 0, 0], [0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]])
        z = bb.embed(make_batch(feats, [1, 2, 1, 2], 2, 2)).z.data
        assert np.array_equal(z[1], np.full(3, 1.0 / np.sqrt(3.0)))
        assert np.array_equal(z[[0, 2, 3]], feats[[0, 2, 3]])


class TestConfigValidation:
    def test_embed_dim_floor(self):
        with pytest.raises(ConfigurationError):
            BackboneConfig(embed_dim=1)

    def test_mlp_needs_hidden(self):
        with pytest.raises(ConfigurationError):
            BackboneConfig(hidden_dims=[])


class TestEmbeddingBatch:
    def test_rejects_unnormalized(self):
        # the one unit-row check of training: the graph and the distances trust it
        with pytest.raises(ShapeError, match="unit-norm"):
            EmbeddingBatch(ad.Tensor(np.array([[2.0, 0.0], [0.0, 1.0]])), np.array([1, 2]), 2, 1)
