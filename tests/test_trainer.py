import ctypes
import json
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hngen import autodiff as ad
from hngen import cacai, datakit, losses, trainer
from hngen.backbone import BackboneConfig, EmbeddingBatch
from hngen.errors import CheckpointError, ConfigurationError, NumericError

from oracles import j_m


def tiny_dataset(seed=0, classes=4, per_class=8, dim=5):
    return datakit.make_synthetic(
        datakit.SyntheticDatasetSpec(
            num_classes=classes, samples_per_class=per_class, input_dim=dim,
            class_center_scale=1.0, within_class_stddev=0.25, seed=seed,
        )
    )


def tiny_config(**kw):
    base = dict(
        epochs=1, batch_classes=3, batch_instances=2, k_steps=1, heads=2,
        seed=1, metric_loss="np_modified", ablation="full",
    )
    base.update(kw)
    return trainer.TrainConfig(**base)


def tiny_backbone():
    return BackboneConfig(kind="mlp", hidden_dims=[8], embed_dim=8)


def make_trainer(tmp_path, **cfg_kw):
    ds = tiny_dataset()
    cfg = tiny_config(**cfg_kw)
    return trainer.Trainer(ds, None, cfg, tiny_backbone(), tmp_path / "run")


def snapshot(params):
    return {k: v.data.copy() for k, v in params.items()}


def assert_bit_identical(a, b):
    for k in a:
        assert np.array_equal(a[k], b[k]), f"parameter {k} changed"


class TestConfigValidation:
    def test_unknown_ablation_lists_arms(self):
        with pytest.raises(ConfigurationError, match="baseline_gnn"):
            tiny_config(ablation="nope").validate()

    def test_gamma_d_default_depends_on_loss(self):
        assert tiny_config(metric_loss="np_modified").resolved_gamma_d() == 0.03
        assert tiny_config(metric_loss="proxy_anchor").resolved_gamma_d() == 0.01
        assert tiny_config(gamma_d=0.5).resolved_gamma_d() == 0.5

    def test_epochs_nonnegative(self):
        with pytest.raises(ConfigurationError):
            tiny_config(epochs=-1).validate()

    @pytest.mark.parametrize("kw, msg", [
        ({"heads": 0}, "heads"),
        ({"ffn_expansion": 0}, "ffn_expansion"),
        ({"gamma_s": -1.0}, "gamma_s"),
        ({"gamma_s": float("inf")}, "gamma_s"),
        ({"gamma_d": -1.0}, "gamma_d"),
        ({"gamma_d": float("nan")}, "gamma_d"),
    ])
    def test_graph_and_stage1_settings_checked(self, kw, msg):
        with pytest.raises(ConfigurationError, match=msg):
            tiny_config(**kw).validate()

    def test_trainer_validates_once_before_building_anything(self, tmp_path, monkeypatch):
        calls = []
        for cls in (trainer.TrainConfig, BackboneConfig):
            def counted(cfg, real=cls.validate):
                calls.append(cfg)
                real(cfg)

            monkeypatch.setattr(cls, "validate", counted)
        tr = trainer.Trainer(tiny_dataset(), tiny_dataset(seed=1), tiny_config(),
                             tiny_backbone(), tmp_path / "run")
        assert calls == [tr.cfg, tr.backbone_cfg]
        tr.fit()  # the per-epoch evaluation models reuse the checked configs
        assert calls == [tr.cfg, tr.backbone_cfg]
        with pytest.raises(ConfigurationError, match="gamma_d"):
            make_trainer(tmp_path / "bad", gamma_d=-1.0)
        assert not (tmp_path / "bad").exists()


class TestSchedules:
    def test_eta_reference_value(self):
        cfg = tiny_config(alpha_pull=5.0)
        state = trainer.RunState(avg_metric_loss=5.0)
        assert trainer.eta_for_batch(cfg, state) == pytest.approx(np.exp(-1.0), abs=1e-5)

    def test_eta_widest_before_any_signal(self):
        cfg = tiny_config()
        assert trainer.eta_for_batch(cfg, trainer.RunState()) == 1.0

    def test_eta_bootstrap_running_mean_in_first_epoch(self):
        cfg = tiny_config(alpha_pull=5.0)
        state = trainer.RunState()
        trainer.record_metric_loss(state, 2.0)
        trainer.record_metric_loss(state, 4.0)
        assert trainer.eta_for_batch(cfg, state) == pytest.approx(np.exp(-5.0 / 3.0))

    def test_eta_strictly_decreasing_with_loss(self):
        cfg = tiny_config(alpha_pull=5.0)
        etas = []
        for j in (8.0, 4.0, 2.0):
            state = trainer.RunState(avg_metric_loss=j)
            etas.append(trainer.eta_for_batch(cfg, state))
        assert etas[0] > etas[1] > etas[2]

    def test_epoch_boundary_folds_mean(self):
        cfg = tiny_config(alpha_pull=5.0)
        state = trainer.RunState()
        trainer.record_metric_loss(state, 1.0)
        trainer.record_metric_loss(state, 3.0)
        trainer.finish_epoch_schedules(cfg, state)
        assert state.avg_metric_loss == 2.0
        assert state.epoch_loss_count == 0
        assert state.eta == pytest.approx(np.exp(-2.5))

    def test_gamma_reference_and_ema(self):
        cfg = tiny_config(beta=2.0, gen_ema_decay=0.9)
        state = trainer.RunState()
        g1 = trainer.update_gen_tracker(cfg, state, 2.0)
        assert g1 == pytest.approx(np.exp(-1.0), abs=1e-5)
        g2 = trainer.update_gen_tracker(cfg, state, 4.0)
        assert state.gen_ema == pytest.approx(0.9 * 2.0 + 0.1 * 4.0)
        assert g2 == pytest.approx(np.exp(-2.0 / state.gen_ema))

    def test_cosine_decay_endpoints(self):
        assert trainer.cosine_lr(1.0, 0, 10) == 1.0
        assert trainer.cosine_lr(1.0, 9, 10) == pytest.approx(0.0, abs=1e-12)
        assert trainer.cosine_lr(1.0, 0, 1) == 1.0


class TestOneOptimizer:
    @pytest.mark.parametrize("metric_loss", ["np_modified", "proxy_anchor"])
    @pytest.mark.parametrize("ablation", trainer.ABLATION_ARMS)
    def test_every_parameter_once_in_the_group_of_its_rate(self, tmp_path, ablation,
                                                            metric_loss):
        tr = make_trainer(tmp_path, ablation=ablation, metric_loss=metric_loss,
                          lr_f=1e-3, lr_g=2e-3, lr_cz=3e-3, lr_cv=4e-3)
        m = tr.model
        owners = {"lr_f": [m.backbone, m.proxies], "lr_g": [m.graph, m.lambda_head],
                  "lr_cz": [m.head_cz], "lr_cv": [m.head_cv]}
        expected = {id(p): group for group, modules in owners.items()
                    for module in modules if module is not None
                    for p in module.parameters()}
        held = [id(p) for p in tr.opt.params]
        assert len(held) == len(set(held))
        assert sorted(held) == sorted(id(p) for p in m.parameters())
        assert tr.opt.group_of == [expected[id(p)] for p in tr.opt.params]
        assert tr.opt.lr == {group: getattr(tr.cfg, group) for group in owners}
        assert [v for v in vars(tr).values() if isinstance(v, ad.AdamW)] == [tr.opt]


class TestStopGradientContracts:
    def test_stage1_leaves_backbone_bit_identical(self, tmp_path):
        tr = make_trainer(tmp_path)
        batch = datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng)
        zb = tr.model.backbone.embed(batch, mode="train")
        zb_sg = EmbeddingBatch(zb.z.detach(), zb.labels, 3, 2)
        pos = cacai.select_positives(zb.labels, tr.positive_rng)
        before = snapshot(tr.model.backbone.named_parameters())
        g_before = snapshot({str(i): p for i, p in enumerate(tr.model.generator_params())})
        tr._stage1(zb_sg, pos, eta=0.8)
        assert_bit_identical(before, snapshot(tr.model.backbone.named_parameters()))
        g_after = {str(i): p for i, p in enumerate(tr.model.generator_params())}
        changed = any(
            not np.array_equal(g_before[k], g_after[k].data) for k in g_before
        )
        assert changed  # the generator itself did move

    def test_stage2_lambda_branch_zero_gradient_to_fc(self, tmp_path):
        tr = make_trainer(tmp_path)
        model = tr.model
        batch = datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng)
        zb = model.backbone.embed(batch, mode="train")
        pos = cacai.select_positives(zb.labels, tr.positive_rng)
        graph = model.propagate_graph(zb)
        lam_sg = model.lambda_for(graph).detach()
        synth = cacai.synthesize(
            zb, lam_sg, cacai.eta_from_avg_loss(5.0, 5.0),
            np.random.default_rng(3), pos,
        )
        total = j_m(
            model.metric_loss_term(zb),
            losses.j_gca(graph.v, zb.labels, model.head_cv, tr.codec),
            losses.j_syn(zb.z, pos, synth),
            gamma_n=0.5,
        )
        total.backward()
        assert model.lambda_head.fc.weight.grad is None
        assert model.lambda_head.fc.bias.grad is None
        assert all(p.grad is not None for p in model.backbone.parameters())

    def test_stage2_g_gradients_match_lambda_branch_ablated(self, tmp_path):
        # with sg(lambda), G's gradient must equal the gradient when the
        # synthesis consumes an unrelated constant of the same value
        tr = make_trainer(tmp_path)
        model = tr.model
        batch = datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng)
        zb = model.backbone.embed(batch, mode="train")
        pos = cacai.select_positives(zb.labels, tr.positive_rng)

        def run(lam_source):
            model.zero_grad()
            graph = model.propagate_graph(zb)
            lam = lam_source(graph)
            synth = cacai.synthesize(
                zb, lam, cacai.eta_from_avg_loss(5.0, 5.0),
                np.random.default_rng(7), pos,
            )
            total = j_m(
                model.metric_loss_term(zb),
                losses.j_gca(graph.v, zb.labels, model.head_cv, tr.codec),
                losses.j_syn(zb.z, pos, synth),
                gamma_n=0.3,
            )
            total.backward()
            return [None if p.grad is None else p.grad.copy()
                    for p in model.graph.parameters()]

        g_sg = run(lambda graph: model.lambda_for(graph).detach())
        lam_const = ad.Tensor(model.lambda_for(model.propagate_graph(zb)).data.copy())
        g_ablate = run(lambda graph: lam_const)
        for a, b in zip(g_sg, g_ablate):
            if a is None or b is None:
                assert a is None and b is None
            else:
                assert np.allclose(a, b, atol=1e-12)

    def test_cz_updated_only_by_real_samples(self, tmp_path):
        tr = make_trainer(tmp_path)
        batch = datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng)
        zb = tr.model.backbone.embed(batch, mode="train")
        zb_sg = EmbeddingBatch(zb.z.detach(), zb.labels, 3, 2)
        pos = cacai.select_positives(zb.labels, tr.positive_rng)

        graph = tr.model.propagate_graph(zb_sg)
        lam = tr.model.lambda_for(graph)
        synth = cacai.synthesize(
            zb_sg, lam, cacai.eta_from_avg_loss(5.0, 5.0),
            np.random.default_rng(5), pos,
        )
        gen_loss, _ = losses.j_gen(
            zb_sg.z, synth, lam, tr.model.head_cz, tr.codec, gamma_s=1.0, gamma_d=0.01
        )
        gen_loss.backward()
        # synthetic-sample loss leaves the real-sample head untouched
        assert tr.model.head_cz.linear.weight.grad is None
        tr.model.zero_grad()
        cz = losses.j_cz(zb_sg.z, zb_sg.labels, tr.model.head_cz, tr.codec)
        cz.backward()
        assert tr.model.head_cz.linear.weight.grad is not None

    def test_full_step_runs_and_reports(self, tmp_path):
        tr = make_trainer(tmp_path)
        batch = datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng)
        report = tr.train_step(batch)
        for name in ("j_gen", "j_cz", "j_gca", "j_syn", "j_r", "j_m", "eta", "gamma_n"):
            assert getattr(report, name) is not None
        report.assert_finite()


class TestAblationArms:
    def test_baseline_step_is_metric_only(self, tmp_path):
        tr = make_trainer(tmp_path, ablation="baseline")
        assert tr.model.graph is None
        assert tr.model.head_cz is None
        batch = datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng)
        report = tr.train_step(batch)
        assert report.j_gen is None and report.j_gca is None and report.j_syn is None
        assert report.j_m == pytest.approx(report.j_r)

    def test_baseline_gnn_adds_node_loss_only(self, tmp_path):
        tr = make_trainer(tmp_path, ablation="baseline_gnn")
        assert tr.model.head_cz is None and tr.model.lambda_head is None
        batch = datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng)
        report = tr.train_step(batch)
        assert report.j_gen is None and report.j_syn is None
        assert report.j_gca is not None
        assert report.j_m == pytest.approx(report.j_r + report.j_gca)

    def test_single_coeff_lambda_is_one(self, tmp_path):
        tr = make_trainer(tmp_path, ablation="single_coeff")
        assert tr.model.lambda_head is None
        batch = datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng)
        zb = tr.model.backbone.embed(batch, mode="eval")
        lam = tr.model.lambda_for(tr.model.propagate_graph(zb))
        assert np.all(lam.data == 1.0)
        report = tr.train_step(batch)
        assert report.j_div == pytest.approx(1.0)  # zero spread in constant lambda

    def test_no_rw_uses_single_interpolant(self, tmp_path):
        tr = make_trainer(tmp_path, ablation="no_rw")
        batch = datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng)
        report = tr.train_step(batch)
        report.assert_finite()

    def test_no_global_and_no_hadamard_run(self, tmp_path):
        for arm in ("no_global", "no_hadamard"):
            tr = make_trainer(tmp_path / arm, ablation=arm)
            batch = datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng)
            tr.train_step(batch).assert_finite()

    def test_proxy_anchor_arm(self, tmp_path):
        tr = make_trainer(tmp_path, metric_loss="proxy_anchor")
        assert tr.model.proxies is not None
        batch = datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng)
        before = tr.model.proxies.proxies.data.copy()
        report = tr.train_step(batch)
        report.assert_finite()
        assert not np.array_equal(before, tr.model.proxies.proxies.data)


class TestOtherConfigurations:
    def test_two_step_propagation_trains(self, tmp_path):
        tr = make_trainer(tmp_path, k_steps=2)
        batch = datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng)
        tr.train_step(batch).assert_finite()

    def test_identity_backbone_over_preextracted_features(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((24, 8))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        ds = datakit.Dataset(feats, np.repeat(np.arange(1, 5), 6))
        cfg = tiny_config()
        bb = BackboneConfig(kind="identity", embed_dim=8)
        tr = trainer.Trainer(ds, None, cfg, bb, tmp_path / "run")
        batch = datakit.sample_balanced(ds, 3, 2, tr.sampler_rng)
        report = tr.train_step(batch)
        report.assert_finite()
        assert tr.model.backbone.parameters() == []

    def test_shuffled_fusion_order_still_deterministic(self, tmp_path):
        def run(name):
            ds = tiny_dataset()
            cfg = tiny_config(epochs=1, shuffle_fusion_order=True, seed=9)
            tr = trainer.Trainer(ds, None, cfg, tiny_backbone(), tmp_path / name)
            return tr.fit()

        r1, r2 = run("a"), run("b")
        strip = lambda line: {k: v for k, v in json.loads(line).items() if k != "timestamp"}
        log1 = [strip(l) for l in r1.log_path.read_text().strip().split("\n")]
        log2 = [strip(l) for l in r2.log_path.read_text().strip().split("\n")]
        assert log1 == log2


# A fresh process, so that no earlier test has shaped the heap, compiling
# the package from source as a fresh checkout does (the compiler's garbage
# decides what lies at the heap top): build a smoke-sized trainer (B=12,
# D=64), warm up, then count minor page faults over 20 steps.
_FAULT_PROBE = """
import resource, sys, tempfile
from pathlib import Path
from hngen import datakit, trainer
from hngen.backbone import BackboneConfig
ds = datakit.make_synthetic(datakit.SyntheticDatasetSpec(
    num_classes=8, samples_per_class=20, input_dim=64, seed=0))
cfg = trainer.TrainConfig(epochs=1, batch_classes=4, batch_instances=3, lr_f=1e-3, lr_g=1e-3)
tr = trainer.Trainer(ds, None, cfg, BackboneConfig(hidden_dims=[128], embed_dim=64),
                     Path(tempfile.mkdtemp()))
step = lambda: tr.train_step(datakit.sample_balanced(ds, 4, 3, tr.sampler_rng))
for _ in range(5):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="needs mallopt")
def test_training_steps_reuse_heap_pages(tmp_path):
    # glibc would otherwise return each step's freed temporaries to the OS
    # and fault them back in the next step: hundreds of faults per step
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE], capture_output=True, text=True, timeout=300,
        env={"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1",
             "PYTHONPYCACHEPREFIX": str(tmp_path / "no_pycache"),
             "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"},
    )
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 20 * 50


class TestFit:
    def test_zero_epochs_initial_checkpoint_only(self, tmp_path):
        ds = tiny_dataset()
        cfg = tiny_config(epochs=0)
        tr = trainer.Trainer(ds, None, cfg, tiny_backbone(), tmp_path / "run")
        result = tr.fit()
        assert len(result.checkpoint_dirs) == 1
        assert result.checkpoint_dirs[0].name == "epoch_000"
        assert (result.run_dir / "train_log.jsonl").read_text() == ""

    def test_fit_trains_and_evaluates(self, tmp_path):
        ds = tiny_dataset(per_class=10)
        train, val = datakit.split_holdout(ds, 3, np.random.default_rng(0))
        cfg = tiny_config(epochs=2)
        tr = trainer.Trainer(train, val, cfg, tiny_backbone(), tmp_path / "run",
                             eval_ks=[1, 2])
        result = tr.fit()
        assert len(result.history) == 2
        assert all("recall_at" in h for h in result.history)
        lines = result.log_path.read_text().strip().split("\n")
        assert len(lines) == 2 * (len(train) // 6)
        rec = json.loads(lines[0])
        assert "j_m" in rec and "timestamp" in rec

    def test_same_seed_identical_logs_and_checkpoints(self, tmp_path):
        def run(name):
            ds = tiny_dataset(per_class=8)
            cfg = tiny_config(epochs=2, seed=123)
            tr = trainer.Trainer(ds, None, cfg, tiny_backbone(), tmp_path / name)
            return tr.fit()

        r1, r2 = run("a"), run("b")
        strip = lambda line: {k: v for k, v in json.loads(line).items() if k != "timestamp"}
        log1 = [strip(l) for l in r1.log_path.read_text().strip().split("\n")]
        log2 = [strip(l) for l in r2.log_path.read_text().strip().split("\n")]
        assert log1 == log2
        for d1, d2 in zip(r1.checkpoint_dirs, r2.checkpoint_dirs):
            for f1 in sorted(d1.glob("*.bin")):
                f2 = d2 / f1.name
                assert f1.read_bytes() == f2.read_bytes()

    def test_early_stop_patience(self, tmp_path):
        ds = tiny_dataset(per_class=10)
        train, val = datakit.split_holdout(ds, 3, np.random.default_rng(0))
        cfg = tiny_config(epochs=50, early_stop_patience=2, lr_f=1e-9, lr_g=1e-9,
                          lr_cz=1e-9, lr_cv=1e-9)
        tr = trainer.Trainer(train, val, cfg, tiny_backbone(), tmp_path / "run",
                             eval_ks=[1])
        result = tr.fit()
        assert len(result.history) < 50


class TestCheckpointRoundTrip:
    def test_round_trip_bit_exact_eval(self, tmp_path):
        tr = make_trainer(tmp_path)
        batch = datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng)
        tr.train_step(batch)
        ckpt = tmp_path / "ckpt"
        trainer.save_checkpoint(ckpt, tr.model, tr._manifest(1, []))
        fresh = trainer.HngModel(
            tr.cfg, tr.backbone_cfg, tr.train_set.dim, tr.codec,
            np.random.default_rng(999),
        )
        trainer.load_checkpoint(ckpt, fresh)
        feats = tr.train_set.features[:6]
        assert np.array_equal(
            tr.model.backbone.embed_array(feats), fresh.backbone.embed_array(feats)
        )
        for (g1, p1), (g2, p2) in zip(
            sorted(tr.model.parameter_groups().items()),
            sorted(fresh.parameter_groups().items()),
        ):
            assert g1 == g2
            for name in p1:
                assert np.array_equal(p1[name].data, p2[name].data)

    def test_load_into_live_trainer_keeps_optimizer_views(self, tmp_path):
        tr = make_trainer(tmp_path)

        def step():
            tr.train_step(datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng))

        step()
        ckpt = tmp_path / "ckpt"
        trainer.save_checkpoint(ckpt, tr.model, tr._manifest(1, []))
        saved = snapshot(tr.model.backbone.named_parameters())
        step()
        trainer.load_checkpoint(ckpt, tr.model)
        assert_bit_identical(saved, snapshot(tr.model.backbone.named_parameters()))
        optimizers = [tr.opt]
        for opt in optimizers:
            for p, seg in zip(opt.params, opt.segments):
                assert np.shares_memory(p.data, opt.data[seg])
                assert np.array_equal(p.data.ravel(), opt.data[seg])
        step()  # the optimizers move the loaded values, not a stale copy
        for name, p in tr.model.backbone.named_parameters().items():
            assert not np.array_equal(p.data, saved[name]), name

    def test_corrupted_magic_rejected(self, tmp_path):
        tr = make_trainer(tmp_path)
        ckpt = tmp_path / "ckpt"
        trainer.save_checkpoint(ckpt, tr.model, tr._manifest(0, []))
        blob = ckpt / "backbone.bin"
        raw = bytearray(blob.read_bytes())
        raw[:4] = b"XXXX"
        blob.write_bytes(bytes(raw))
        fresh = trainer.HngModel(
            tr.cfg, tr.backbone_cfg, tr.train_set.dim, tr.codec, np.random.default_rng(0)
        )
        with pytest.raises(CheckpointError, match="magic"):
            trainer.load_checkpoint(ckpt, fresh)

    def test_truncated_blob_rejected_at_every_offset(self, tmp_path):
        blob = tmp_path / "two.bin"
        trainer._write_group(blob, {
            "w": ad.Tensor(np.arange(6.0).reshape(2, 3)),
            "b": ad.Tensor(np.array([0.5, -1.0])),
        })
        raw = blob.read_bytes()
        assert set(trainer._read_group(blob)) == {"w", "b"}
        for cut in range(len(raw)):
            blob.write_bytes(raw[:cut])
            with pytest.raises(CheckpointError, match="truncated|magic"):
                trainer._read_group(blob)
        # first tensor "b": header (16), name length (2), name (1), ndim (1), dim
        huge_dim = raw[:20] + struct.pack("<Q", 2**62) + raw[28:]
        blob.write_bytes(huge_dim)
        with pytest.raises(CheckpointError, match="corrupt"):
            trainer._read_group(blob)

    def test_tensor_name_not_utf8_rejected(self, tmp_path):
        blob = tmp_path / "one.bin"
        trainer._write_group(blob, {"w": ad.Tensor(np.arange(3.0))})
        raw = bytearray(blob.read_bytes())
        raw[18] = 0xFF  # the name's byte, after header (16) and name length (2)
        blob.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="not UTF-8"):
            trainer._read_group(blob)

    def test_truncated_checkpoint_load_rejected(self, tmp_path):
        tr = make_trainer(tmp_path)
        ckpt = tmp_path / "ckpt"
        trainer.save_checkpoint(ckpt, tr.model, tr._manifest(0, []))
        blob = ckpt / "backbone.bin"
        blob.write_bytes(blob.read_bytes()[:-3])
        with pytest.raises(CheckpointError, match="truncated"):
            trainer.load_checkpoint(ckpt, tr.model)

    def test_version_mismatch_migration_error(self, tmp_path):
        tr = make_trainer(tmp_path)
        ckpt = tmp_path / "ckpt"
        trainer.save_checkpoint(ckpt, tr.model, tr._manifest(0, []))
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["format_version"] = 999
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="migration"):
            trainer.load_manifest(ckpt)

    def test_cross_ablation_load_rejected(self, tmp_path):
        tr_full = make_trainer(tmp_path / "full", ablation="full")
        ckpt = tmp_path / "ckpt"
        trainer.save_checkpoint(ckpt, tr_full.model, tr_full._manifest(0, []))
        tr_base = make_trainer(tmp_path / "base", ablation="baseline")
        with pytest.raises(CheckpointError, match="groups differ"):
            trainer.load_checkpoint(ckpt, tr_base.model)

    def test_numeric_abort_dumps_diagnostics(self, tmp_path):
        tr = make_trainer(tmp_path)
        batch = datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng)
        tr.model.backbone.layers[0].weight.data[:] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            tr.train_step(batch)
        assert (tr.run_dir / "numeric_abort.json").exists()
