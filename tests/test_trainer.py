import ctypes
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hngen import autodiff as ad
from hngen import cacai, datakit, gcl, kernels, losses, trainer
from hngen.backbone import BackboneConfig, EmbeddingBatch
from hngen.errors import CheckpointError, ConfigurationError, NumericError

from oracles import (AllRowsTrainer, ComposedSynthesisTrainer, TwoStepStage1Trainer,
                     composed_lambda_lanes, j_m)


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


def message(info, tmp_path) -> str:
    """A caught error's message with ``tmp_path`` taken out: pytest names that
    directory after the test, so the test's own words would always match."""
    return str(info.value).replace(str(tmp_path), "<tmp>")


def assert_bit_identical(a, b):
    for k in a:
        assert np.array_equal(a[k], b[k]), f"parameter {k} changed"


class TestConfigValidation:
    def test_unknown_ablation_lists_arms(self):
        with pytest.raises(ConfigurationError, match="baseline_gnn"):
            tiny_config(ablation="nope")

    def test_gamma_d_default_depends_on_loss(self):
        assert tiny_config(metric_loss="np_modified").resolved_gamma_d() == 0.03
        assert tiny_config(metric_loss="proxy_anchor").resolved_gamma_d() == 0.01
        assert tiny_config(gamma_d=0.5).resolved_gamma_d() == 0.5

    def test_epochs_nonnegative(self):
        with pytest.raises(ConfigurationError):
            tiny_config(epochs=-1)

    @pytest.mark.parametrize("kw, msg", [
        ({"heads": 0}, "heads"),
        ({"ffn_expansion": 0}, "ffn_expansion"),
        ({"gamma_s": -1.0}, "gamma_s"),
        ({"gamma_s": float("inf")}, "gamma_s"),
        ({"gamma_d": -1.0}, "gamma_d"),
        ({"gamma_d": float("nan")}, "gamma_d"),
        ({"alpha_pull": -1.0}, "alpha_pull"),
        ({"beta": -2.0}, "beta"),
        ({"pa_alpha": 0.0}, "pa_alpha"),
        ({"pa_alpha": -32.0}, "pa_alpha"),
    ])
    def test_graph_and_stage1_settings_checked(self, kw, msg):
        with pytest.raises(ConfigurationError, match=msg):
            tiny_config(**kw)

    def test_trainer_validates_once_before_building_anything(self, tmp_path, monkeypatch):
        # each config checks itself once, as it is built; the trainer and its
        # evaluation models take the checked configs as they are
        calls = []
        for cls in (trainer.TrainConfig, BackboneConfig):
            def counted(cfg, real=cls.__post_init__):
                calls.append(cfg)
                real(cfg)

            monkeypatch.setattr(cls, "__post_init__", counted)
        tr = trainer.Trainer(tiny_dataset(), tiny_dataset(seed=1), tiny_config(),
                             tiny_backbone(), tmp_path / "run")
        assert calls == [tr.cfg, tr.backbone_cfg]
        tr.fit()  # the per-epoch evaluation models reuse the checked configs
        assert calls == [tr.cfg, tr.backbone_cfg]
        with pytest.raises(ConfigurationError, match="gamma_d"):
            make_trainer(tmp_path / "bad", gamma_d=-1.0)
        assert not (tmp_path / "bad").exists()


def gamma_after_one_step(beta: float, gen_loss: float) -> float:
    """gamma_n from a fresh generator-loss tracker's first update."""
    return trainer.update_gen_tracker(tiny_config(beta=beta), trainer.RunState(), gen_loss)


class TestSchedules:
    def test_rule_reference_value(self):
        assert abs(trainer.schedule_factor(5.0, 5.0) - np.exp(-1.0)) < 1e-12

    def test_rule_limits_and_monotonicity(self):
        assert trainer.schedule_factor(5.0, None) == 1.0
        assert trainer.schedule_factor(5.0, np.inf) == 1.0
        vals = [trainer.schedule_factor(5.0, j) for j in (0.5, 1.0, 2.0, 8.0, 100.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v < 1.0 for v in vals)

    def test_rule_nonpositive_clamped_with_warning(self):
        with pytest.warns(UserWarning):
            v = trainer.schedule_factor(5.0, 0.0)
        assert v == pytest.approx(0.0, abs=1e-300)

    def test_gamma_limit(self):
        assert gamma_after_one_step(2.0, 1e12) == pytest.approx(1.0, abs=1e-9)

    def test_gamma_monotone(self):
        vals = [gamma_after_one_step(2.0, j) for j in (0.1, 0.5, 1.0, 4.0, 50.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

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
        trainer.finish_epoch_schedules(state)
        assert state.avg_metric_loss == 2.0
        assert state.epoch_loss_count == 0
        assert trainer.eta_for_batch(cfg, state) == pytest.approx(np.exp(-2.5))

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


# every arm with a stage 1, and the Proxy Anchor loss on the full arm
STAGE1_ARMS = [(arm, "np_modified") for arm in
               ("full", "single_coeff", "no_global", "no_hadamard", "no_rw")]
STAGE1_ARMS.append(("full", "proxy_anchor"))


class TestStopGradientContracts:
    def test_stage1_leaves_backbone_bit_identical(self, tmp_path):
        tr = make_trainer(tmp_path)
        batch = datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng)
        zb = tr.model.backbone.embed(batch)
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
        zb = model.backbone.embed(batch)
        pos = cacai.select_positives(zb.labels, tr.positive_rng)
        graph = model.propagate_graph(zb)
        lam, lane = model.lambda_for(zb, graph)
        synth = cacai.synthesize(
            zb, lam.detach(), lane, trainer.schedule_factor(5.0, 5.0),
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
        zb = model.backbone.embed(batch)
        pos = cacai.select_positives(zb.labels, tr.positive_rng)

        def run(lam_source):
            model.zero_grad()
            graph = model.propagate_graph(zb)
            lam, lane = lam_source(graph)
            synth = cacai.synthesize(
                zb, lam, lane, trainer.schedule_factor(5.0, 5.0),
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

        def detached(graph):
            lam, lane = model.lambda_for(zb, graph)
            return lam.detach(), lane

        g_sg = run(detached)
        lam, lane = model.lambda_for(zb, model.propagate_graph(zb))
        lam_const = ad.Tensor(lam.data.copy())
        g_ablate = run(lambda graph: (lam_const, lane))
        for a, b in zip(g_sg, g_ablate):
            if a is None or b is None:
                assert a is None and b is None
            else:
                assert np.allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("ablation, metric_loss", STAGE1_ARMS)
    def test_stage2_synthesizes_from_the_detached_lambda(
            self, tmp_path, monkeypatch, ablation, metric_loss):
        # sg(λ): the synthesis gets a leaf with lambda_for's bytes and lane
        # map, and the λ head has no gradient when the optimizer steps
        tr = make_trainer(tmp_path, ablation=ablation, metric_loss=metric_loss)
        model = tr.model
        batch = datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng)
        zb = model.backbone.embed(batch)
        pos = cacai.select_positives(zb.labels, tr.positive_rng)
        expect, expect_lane = model.lambda_for(zb, model.propagate_graph(zb))
        received, head_grads = [], []
        synthesize, step = model.synthesize, tr.opt.step

        def spy_synthesize(zb, lam, lane, *args):
            received.append((lam, lane))
            return synthesize(zb, lam, lane, *args)

        def spy_step():
            head_grads.extend(p.grad for p in trainer._params_of(model.lambda_head))
            assert all(p.grad is not None for p in model.backbone.parameters())
            step()

        monkeypatch.setattr(model, "synthesize", spy_synthesize)
        monkeypatch.setattr(tr.opt, "step", spy_step)
        tr._stage2(zb, pos, 0.8, 0.5)
        [(lam, lane)] = received
        assert not lam.requires_grad and lam._parents == ()
        assert lam.shape == expect.shape and lam.data.dtype == expect.data.dtype
        assert lam.data.tobytes() == expect.data.tobytes()
        assert np.array_equal(lane, expect_lane)
        assert len(head_grads) == (0 if ablation == "single_coeff" else 2)
        assert all(g is None for g in head_grads)

    @pytest.mark.parametrize("ablation", ["full", "single_coeff"])
    def test_inspect_lambda_records_no_tape_node(self, tmp_path, monkeypatch, ablation):
        # hngen inspect reads every row's λ from load_frozen_model, whose
        # parameters record no tape: the live model's bytes, and no node
        tr = make_trainer(tmp_path, ablation=ablation)
        tr.train_step(datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng))
        ckpt = tmp_path / "ckpt"
        trainer.save_checkpoint(ckpt, tr.model, tr._manifest(1, []))
        frozen = trainer.load_frozen_model(
            ckpt, tr.cfg, tr.backbone_cfg, tr.train_set.dim, tr.codec)
        batch = datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng)
        live_zb = tr.model.backbone.embed(batch)
        expect, expect_lane = tr.model.lambda_for(
            live_zb, tr.model.propagate_graph(live_zb), every_row=True)
        taped, make = [], ad._make

        def counting_make(*args):
            out = make(*args)
            taped.append(bool(out._parents))
            return out

        monkeypatch.setattr(ad, "_make", counting_make)
        zb = frozen.backbone.embed(batch)
        lam, lane = frozen.lambda_for(zb, frozen.propagate_graph(zb), every_row=True)
        assert taped and not any(taped)
        assert not lam.requires_grad and lam._parents == ()
        assert lam.data.tobytes() == expect.data.tobytes()
        assert np.array_equal(lane, expect_lane)

    def test_cz_updated_only_by_real_samples(self, tmp_path):
        tr = make_trainer(tmp_path)
        batch = datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng)
        zb = tr.model.backbone.embed(batch)
        zb_sg = EmbeddingBatch(zb.z.detach(), zb.labels, 3, 2)
        pos = cacai.select_positives(zb.labels, tr.positive_rng)

        graph = tr.model.propagate_graph(zb_sg)
        lam, lane = tr.model.lambda_for(zb_sg, graph)
        synth = cacai.synthesize(
            zb_sg, lam, lane, trainer.schedule_factor(5.0, 5.0),
            np.random.default_rng(5), pos,
        )
        gen_loss, _ = losses.j_gen(
            zb_sg.z, synth, lam, lane, tr.model.head_cz, tr.codec, gamma_s=1.0, gamma_d=0.01
        )
        gen_loss.backward()
        # synthetic-sample loss leaves the real-sample head untouched
        assert tr.model.head_cz.linear.weight.grad is None
        tr.model.zero_grad()
        cz = losses.j_cz(zb_sg.z, zb_sg.labels, tr.model.head_cz, tr.codec)
        cz.backward()
        assert tr.model.head_cz.linear.weight.grad is not None

    @pytest.mark.parametrize("ablation, metric_loss", STAGE1_ARMS)
    def test_stage1_objectives_reach_disjoint_parameters(self, tmp_path, ablation, metric_loss):
        tr = make_trainer(tmp_path, ablation=ablation, metric_loss=metric_loss)
        model = tr.model
        batch = datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng)
        zb = model.backbone.embed(batch)
        zb_sg = EmbeddingBatch(zb.z.detach(), zb.labels, 3, 2)
        pos = cacai.select_positives(zb.labels, tr.positive_rng)
        lam, lane = model.lambda_for(zb_sg, model.propagate_graph(zb_sg))
        synth = model.synthesize(zb_sg, lam, lane, 0.8, tr.synth_rng, pos)
        gen_loss, _ = losses.j_gen(zb_sg.z, synth, lam, lane, model.head_cz, tr.codec,
                                   gamma_s=1.0, gamma_d=0.03)
        cz_loss = losses.j_cz(zb_sg.z, zb_sg.labels, model.head_cz, tr.codec)

        def reached(loss):
            model.zero_grad()
            if loss.requires_grad:
                loss.backward()
            return {name for name, p in model.named_parameters().items() if p.grad is not None}

        from_gen, from_cz = reached(gen_loss), reached(cz_loss)
        assert from_gen.isdisjoint(from_cz)
        assert from_cz == {"head_cz.linear.weight", "head_cz.linear.bias"}
        assert all(name.startswith(("graph.", "lambda_head.")) for name in from_gen)
        assert bool(from_gen) == (ablation != "single_coeff")  # lambda = 1 is constant

    @pytest.mark.parametrize("ablation, metric_loss", STAGE1_ARMS)
    def test_one_stage1_update_matches_the_two_step_reference_bitwise(
        self, tmp_path, ablation, metric_loss
    ):
        cfg = dict(ablation=ablation, metric_loss=metric_loss)
        merged = make_trainer(tmp_path / "merged", **cfg)
        ref = TwoStepStage1Trainer(tiny_dataset(), None, tiny_config(**cfg), tiny_backbone(),
                                   tmp_path / "ref")
        start = merged.opt.data.copy()
        for _ in range(3):
            for tr in (merged, ref):
                tr.train_step(datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng))
        for name in ("data", "m", "v"):
            assert np.array_equal(getattr(merged.opt, name), getattr(ref.opt, name)), name
        assert merged.opt.steps == ref.opt.steps
        assert not np.array_equal(merged.opt.data, start)

    def test_full_step_runs_and_reports(self, tmp_path):
        tr = make_trainer(tmp_path)
        batch = datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng)
        report = tr.train_step(batch)
        for name in ("j_gen", "j_cz", "j_gca", "j_syn", "j_r", "j_m", "eta", "gamma_n"):
            assert getattr(report, name) is not None
        report.assert_finite()


GRAPH_ARMS = [arm for arm in trainer.ABLATION_ARMS if trainer.TrainConfig(ablation=arm).uses_graph]


class TestFinalEdgeRows:
    """Each stage's last edge step, and the λ head after it, run on exactly
    the packed pair rows that some loss reads; earlier steps run on all."""

    @pytest.mark.parametrize("arm", GRAPH_ARMS)
    @pytest.mark.parametrize("k_steps, share", [(1, True), (2, True), (2, False)],
                             ids=["k1", "k2_shared", "k2_unshared"])
    def test_each_edge_step_computes_the_rows_a_loss_reads(
            self, tmp_path, monkeypatch, arm, k_steps, share):
        tr = make_trainer(tmp_path, ablation=arm, k_steps=k_steps,
                          share_weights_across_steps=share)
        stage = ["none"]
        seen = {"stage1": [], "stage2": []}
        propagated = {"stage1": 0, "stage2": 0}

        def in_stage(name, fn):
            def call(*args, **kwargs):
                stage[0] = name
                return fn(*args, **kwargs)
            return call

        edge_call, propagate = gcl.EdgeBlock.__call__, gcl.GraphNet.propagate

        def recording_edge_call(block, e, v, rows=None):
            out = edge_call(block, e, v, rows)
            seen[stage[0]].append((None if rows is None else rows.tolist(), out.shape[0]))
            return out

        def counting_propagate(*args, **kwargs):
            propagated[stage[0]] += 1
            return propagate(*args, **kwargs)

        monkeypatch.setattr(tr, "_stage1", in_stage("stage1", tr._stage1))
        monkeypatch.setattr(tr, "_stage2", in_stage("stage2", tr._stage2))
        monkeypatch.setattr(gcl.EdgeBlock, "__call__", recording_edge_call)
        monkeypatch.setattr(gcl.GraphNet, "propagate", counting_propagate)
        batch = datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng)
        tr.train_step(batch)

        b = batch.labels.size
        i, j = kernels.pair_rows(b)
        cross = np.flatnonzero(batch.labels[i] != batch.labels[j]).tolist()
        earlier = [(None, b * (b + 1) // 2)] * (k_steps - 1)
        final = [(cross, len(cross))] if tr.cfg.reads_lambda else []
        assert seen["stage2"] == earlier + final and propagated["stage2"] == 1
        # single_coeff's constant λ reads no graph; baseline_gnn has no stage 1
        assert seen["stage1"] == (earlier + final if tr.cfg.reads_lambda else [])
        assert propagated["stage1"] == tr.cfg.reads_lambda

    @pytest.mark.parametrize("cfg", [
        {}, {"ablation": "no_rw"}, {"metric_loss": "proxy_anchor"},
        {"k_steps": 2, "share_weights_across_steps": True},
    ], ids=["full", "no_rw", "proxy_anchor", "k2_shared"])
    def test_step_matches_the_all_rows_oracle_bitwise(self, tmp_path, cfg):
        cut = make_trainer(tmp_path / "cut", **cfg)
        ref = AllRowsTrainer(tiny_dataset(), None, tiny_config(**cfg), tiny_backbone(),
                             tmp_path / "ref")
        start = cut.opt.data.copy()
        for tr in (cut, ref):
            tr.train_step(datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng))
        for name in ("data", "m", "v"):
            assert getattr(cut.opt, name).tobytes() == getattr(ref.opt, name).tobytes(), name
        assert cut.opt.steps == ref.opt.steps
        assert not np.array_equal(cut.opt.data, start)

    def test_own_class_lanes_are_the_constant_with_no_gradient(self, tmp_path):
        tr = make_trainer(tmp_path)
        model = tr.model
        batch = datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng)
        zb = model.backbone.embed(batch)
        # the lanes as ``cacai.synthesize`` and ``losses.j_gen`` read them
        cut = composed_lambda_lanes(*model.lambda_for(zb, model.propagate_graph(zb)))
        full = composed_lambda_lanes(
            *model.lambda_for(zb, model.propagate_graph(zb), every_row=True))
        own = zb.labels[:, None] == zb.labels[None, :]
        assert np.all(cut.data[own] == 1.0)
        assert cut.data[~own].tobytes() == full.data[~own].tobytes()
        weights = np.random.default_rng(0).standard_normal(cut.shape)
        (cut * weights).sum().backward()
        head = model.lambda_head.fc.weight.grad.copy()
        model.zero_grad()
        (full * (weights * ~own[:, :, None])).sum().backward()
        np.testing.assert_allclose(head, model.lambda_head.fc.weight.grad, rtol=0, atol=1e-12)


class TestSynthesisMatchesComposed:
    """Whole training stages with ``cacai.synthesize`` against the composed
    synthesis chain (``oracles.ComposedSynthesisTrainer``)."""

    @pytest.mark.parametrize("stage", [1, 2])
    @pytest.mark.parametrize("cfg", [
        {}, {"ablation": "no_rw"}, {"ablation": "single_coeff"}, {"metric_loss": "proxy_anchor"},
        {"k_steps": 2, "share_weights_across_steps": True},
    ], ids=["full", "no_rw", "single_coeff", "proxy_anchor", "k2_shared"])
    def test_stage_matches_the_composed_synthesis(self, tmp_path, cfg, stage):
        # Every loss value and every gradient but those named here is bitwise
        # equal. Two sums change order, and what they feed agrees to 1e-12 of
        # its scale:
        # * lambda_rows: stage 1 folds j_gen's share and the synthesis's to
        #   the packed rows as two terms, where the shared expansion adds them
        #   lane by lane and folds once; the λ head and the graph get theirs
        #   through the rows.
        # * z_synthesis: stage 2's synthesis hands z its share as one term,
        #   the distances' included, and adds the interpolation's two halves
        #   in another order; the backbone gets its gradient through z.
        reordered = ("cacai_fc.", "gcl.") if stage == 1 else ("backbone.",)
        runs = []
        for kind in (trainer.Trainer, ComposedSynthesisTrainer):
            tr = kind(tiny_dataset(), None, tiny_config(**cfg), tiny_backbone(),
                      tmp_path / kind.__name__)
            names = {id(p): f"{group}.{name}" for group, params in
                     tr.model.parameter_groups().items() for name, p in params.items()}
            batch = datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng)
            zb = tr.model.backbone.embed(batch)
            pos = cacai.select_positives(zb.labels, tr.positive_rng)
            applied = {}
            tr.opt.step = lambda tr=tr, names=names, applied=applied: applied.update(
                {names[id(p)]: p.grad.copy() for p in tr.opt.params if p.grad is not None})
            if stage == 1:
                zb = EmbeddingBatch(zb.z.detach(), zb.labels, 3, 2)
            terms = tr._stage1(zb, pos, 0.7) if stage == 1 else tr._stage2(zb, pos, 0.7, 0.4)
            runs.append((terms, applied))
        (terms, grads), (ref_terms, ref) = runs
        assert terms == ref_terms
        assert grads.keys() == ref.keys()
        for name in grads:
            if name.startswith(reordered):
                scale = max(1.0, np.max(np.abs(ref[name])))
                assert np.max(np.abs(grads[name] - ref[name])) <= 1e-12 * scale, name
            else:
                assert np.array_equal(grads[name], ref[name]), name


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
        zb = tr.model.backbone.embed(batch)
        lam, lane = tr.model.lambda_for(zb, tr.model.propagate_graph(zb))
        assert lam.shape == (0, zb.z.shape[1]) and np.all(lane == -1)
        assert np.all(cacai.lambda_lanes(lam.data, lane) == 1.0)
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

    @pytest.mark.parametrize("arm", sorted(trainer._SYNTH_ARMS))
    def test_logged_j_m_weighs_j_syn_by_the_logged_gamma_n(self, tmp_path, arm):
        # stage 1's gamma_n is the one stage 2 weighs the synthetic term by
        log = make_trainer(tmp_path, ablation=arm, epochs=2).fit().log_path
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(records) == 2 * (32 // 6)  # two epochs of five batches
        for r in records:
            assert r["j_m"] == r["j_r"] + r["j_gca"] + (1 - r["gamma_n"]) * r["j_syn"], r

    @pytest.mark.parametrize("arm", trainer.ABLATION_ARMS)
    @pytest.mark.parametrize("k_steps, share", [(1, True), (2, True), (2, False)],
                             ids=["k1", "k2_shared", "k2_unshared"])
    def test_every_parameter_the_arm_builds_trains(self, tmp_path, arm, k_steps, share):
        # the model builds no block its arm never runs: three steps give every
        # parameter AdamW holds a step
        tr = make_trainer(tmp_path, ablation=arm, k_steps=k_steps,
                          share_weights_across_steps=share)
        for _ in range(3):
            tr.train_step(datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng))
        name = {id(p): f"{g}.{n}" for g, params in tr.model.parameter_groups().items()
                for n, p in params.items()}
        assert len(name) == len(tr.opt.params)
        assert [name[id(p)] for p, n in zip(tr.opt.params, tr.opt.steps) if n == 0] == []

    @pytest.mark.parametrize("arm, k1, k2_shared, k2_unshared", [
        ("full", (1, 1), (1, 1), (2, 2)),
        ("no_global", (0, 1), (0, 1), (0, 2)),
        ("single_coeff", (1, 0), (1, 1), (2, 1)),
        ("baseline_gnn", (1, 0), (1, 1), (2, 1)),
    ], ids=["full", "no_global", "single_coeff", "baseline_gnn"])
    def test_graph_blocks_per_arm(self, arm, k1, k2_shared, k2_unshared):
        # (node blocks, edge blocks): no node block without node propagation,
        # and no block for a K-th edge step that no λ head reads
        for (k_steps, share), want in zip([(1, True), (2, True), (2, False)],
                                          (k1, k2_shared, k2_unshared)):
            cfg = tiny_config(ablation=arm, k_steps=k_steps, share_weights_across_steps=share)
            model = trainer.HngModel(cfg, tiny_backbone(), 5, losses.ClassCodec(np.arange(3)),
                                     np.random.default_rng(0))
            assert (len(model.graph.node_blocks), len(model.graph.edge_blocks)) == want

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
        ckpts = sorted((result.run_dir / "checkpoints").glob("epoch_*"))
        assert [d.name for d in ckpts] == ["epoch_000"]
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
        ckpts = sorted((r1.run_dir / "checkpoints").glob("epoch_*"))
        assert len(ckpts) == 3  # epoch_000 to epoch_002
        for d1 in ckpts:
            for f1 in sorted(d1.glob("*.bin")):
                f2 = r2.run_dir / "checkpoints" / d1.name / f1.name
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

    def test_early_stop_reads_r_at_1_when_eval_ks_lack_it(self, tmp_path):
        # R@1 rises every epoch of this run, so patience 1 never stops it
        ds = tiny_dataset(per_class=10)
        train, val = datakit.split_holdout(ds, 3, np.random.default_rng(0))
        cfg = tiny_config(epochs=4, early_stop_patience=1, lr_f=1e-2)
        tr = trainer.Trainer(train, val, cfg, tiny_backbone(), tmp_path / "run",
                             eval_ks=[2, 4])
        history = tr.fit().history
        assert [list(entry["recall_at"]) for entry in history] == [["1", "2", "4"]] * 4
        r1 = [entry["recall_at"]["1"] for entry in history]
        assert all(a < b for a, b in zip(r1, r1[1:]))


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

    def test_failed_write_leaves_no_checkpoint_and_rerun_loads(self, tmp_path, monkeypatch):
        tr = make_trainer(tmp_path)
        ckpt = tmp_path / "run" / "checkpoints" / "epoch_001"
        write_group = trainer._write_group
        calls = []

        def fail_on_second_group(path, params):
            calls.append(path)
            if len(calls) == 2:
                raise OSError("disk full")
            write_group(path, params)

        monkeypatch.setattr(trainer, "_write_group", fail_on_second_group)
        with pytest.raises(OSError, match="disk full"):
            trainer.save_checkpoint(ckpt, tr.model, tr._manifest(1, []))
        assert list(ckpt.parent.iterdir()) == []  # no final-name or temporary directory
        monkeypatch.setattr(trainer, "_write_group", write_group)
        trainer.save_checkpoint(ckpt, tr.model, tr._manifest(1, []))
        tr.train_step(datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng))
        saved = snapshot(tr.model.backbone.named_parameters())
        trainer.save_checkpoint(ckpt, tr.model, tr._manifest(2, []))  # over the old one
        assert [p.name for p in ckpt.parent.iterdir()] == ["epoch_001"]
        fresh = trainer.HngModel(
            tr.cfg, tr.backbone_cfg, tr.train_set.dim, tr.codec, np.random.default_rng(999)
        )
        assert trainer.load_checkpoint(ckpt, fresh)["epoch"] == 2
        assert_bit_identical(saved, snapshot(fresh.backbone.named_parameters()))
        monkeypatch.setattr(trainer, "_write_group", fail_on_second_group)
        calls.clear()
        with pytest.raises(OSError, match="disk full"):
            trainer.save_checkpoint(ckpt, tr.model, tr._manifest(3, []))
        assert [p.name for p in ckpt.parent.iterdir()] == ["epoch_001"]
        assert trainer.load_manifest(ckpt)["epoch"] == 2  # the old checkpoint is intact

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

    def test_failed_load_leaves_live_model_untouched(self, tmp_path):
        tr = make_trainer(tmp_path)

        def step():
            tr.train_step(datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng))

        step()
        ckpt = tmp_path / "ckpt"
        trainer.save_checkpoint(ckpt, tr.model, tr._manifest(1, []))
        step()  # the live values now differ from the checkpoint's
        groups = tr.model.parameter_groups()
        live = {f"{g}.{name}": p for g, params in groups.items() for name, p in params.items()}
        blob = ckpt / f"{list(groups)[-1]}.bin"
        blob.write_bytes(blob.read_bytes()[:-8])
        before = snapshot(live)
        with pytest.raises(CheckpointError) as info:
            trainer.load_checkpoint(ckpt, tr.model)
        assert "the manifest's shapes need" in message(info, tmp_path)
        assert_bit_identical(before, snapshot(live))

    def test_blob_of_the_wrong_size_rejected(self, tmp_path):
        blob = tmp_path / "two.bin"
        trainer._write_group(blob, {
            "w": ad.Tensor(np.arange(6.0).reshape(2, 3)),
            "b": ad.Tensor(np.array([0.5, -1.0])),
        })
        shapes = {"w": [2, 3], "b": [2]}
        raw = blob.read_bytes()
        assert raw == np.array([0.5, -1.0, 0, 1, 2, 3, 4, 5], "<f8").tobytes()  # name order
        tensors = trainer._read_group(blob, shapes)
        assert tensors["w"].tolist() == [[0, 1, 2], [3, 4, 5]]
        assert tensors["b"].tolist() == [0.5, -1.0]
        for bad in [raw[:cut] for cut in range(len(raw))] + [raw + b"\0"]:
            blob.write_bytes(bad)
            with pytest.raises(CheckpointError) as info:
                trainer._read_group(blob, shapes)
            assert f"holds {len(bad)} bytes, the manifest's shapes need 64" in message(
                info, tmp_path)

    def test_huge_manifest_dim_rejected_without_allocating(self, tmp_path):
        blob = tmp_path / "two.bin"
        blob.write_bytes(np.zeros(8).tobytes())
        tracemalloc.start()
        try:
            for shapes in ({"b": [2], "w": [2**62]}, {"w": [2**62, 2**62, 2**62]}):
                with pytest.raises(CheckpointError) as info:
                    trainer._read_group(blob, shapes)
                assert "holds 64 bytes" in message(info, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_huge_manifest_dim_rejected_by_load(self, tmp_path):
        tr = make_trainer(tmp_path)
        ckpt = tmp_path / "ckpt"
        trainer.save_checkpoint(ckpt, tr.model, tr._manifest(0, []))
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["groups"]["backbone"]["layers.0.weight"] = [2**62]
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError) as info:
            trainer.load_checkpoint(ckpt, tr.model)
        assert "['backbone.layers.0.weight'] differ from the model's" in message(info, tmp_path)

    def test_truncated_checkpoint_load_rejected(self, tmp_path):
        tr = make_trainer(tmp_path)
        ckpt = tmp_path / "ckpt"
        trainer.save_checkpoint(ckpt, tr.model, tr._manifest(0, []))
        blob = ckpt / "backbone.bin"
        size = blob.stat().st_size
        blob.write_bytes(blob.read_bytes()[:-3])
        with pytest.raises(CheckpointError) as info:
            trainer.load_checkpoint(ckpt, tr.model)
        assert f"holds {size - 3} bytes, the manifest's shapes need {size}" in message(
            info, tmp_path)

    def test_bare_manifest_reads_back_with_the_models_facts(self, tmp_path):
        tr = make_trainer(tmp_path, metric_loss="proxy_anchor")
        ckpt = tmp_path / "ckpt"
        trainer.save_checkpoint(ckpt, tr.model, {"format_version": trainer.CHECKPOINT_VERSION})
        manifest = trainer.load_checkpoint(ckpt, tr.model)
        assert manifest["class_ids"] == tr.codec.ids.tolist() == [1, 2, 3, 4]
        assert (manifest["ablation"], manifest["metric_loss"]) == ("full", "proxy_anchor")

    def test_manifest_without_class_ids_rejected(self, tmp_path):
        tr = make_trainer(tmp_path)
        ckpt = tmp_path / "ckpt"
        trainer.save_checkpoint(ckpt, tr.model, tr._manifest(0, []))
        manifest = json.loads((ckpt / "manifest.json").read_text())
        del manifest["class_ids"]
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="class_ids must be a list of integers"):
            trainer.load_checkpoint(ckpt, tr.model)

    def test_version_mismatch_migration_error(self, tmp_path):
        tr = make_trainer(tmp_path)
        ckpt = tmp_path / "ckpt"
        trainer.save_checkpoint(ckpt, tr.model, tr._manifest(0, []))
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["format_version"] = 999
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError) as info:
            trainer.load_manifest(ckpt)
        assert "manifest version 999 needs migration" in message(info, tmp_path)

    def test_cross_ablation_load_rejected(self, tmp_path):
        tr_full = make_trainer(tmp_path / "full", ablation="full")
        ckpt = tmp_path / "ckpt"
        trainer.save_checkpoint(ckpt, tr_full.model, tr_full._manifest(0, []))
        tr_base = make_trainer(tmp_path / "base", ablation="baseline")
        with pytest.raises(CheckpointError) as info:
            trainer.load_checkpoint(ckpt, tr_base.model)
        assert "parameter groups differ" in message(info, tmp_path)

    def test_numeric_abort_dumps_diagnostics(self, tmp_path):
        tr = make_trainer(tmp_path)
        batch = datakit.sample_balanced(tr.train_set, 3, 2, tr.sampler_rng)
        tr.model.backbone.layers[0].weight.data[:] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            tr.train_step(batch)
        assert (tr.run_dir / "numeric_abort.json").exists()
