import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hngen
from hngen import cacai, cli, datakit, trainer
from hngen.backbone import BackboneConfig
from hngen.errors import ConfigurationError

REPO = Path(__file__).resolve().parent.parent

# DEFAULT_CONFIG as it was written out by hand before it was derived from the
# dataclass defaults; run directories are named by the hash of this content
FROZEN_DEFAULT_CONFIG = {
    "dataset": {
        "path": None,
        "format": "auto",
        "num_classes": 8,
        "samples_per_class": 50,
        "input_dim": 64,
        "class_center_scale": 1.0,
        "within_class_stddev": 0.2,
        "overlap_factor": 0.0,
        "seed": 0,
    },
    "backbone": {
        "kind": "mlp",
        "hidden_dims": [128],
        "embed_dim": 64,
        "normalize": True,
    },
    "train": {
        "epochs": 30,
        "batch_classes": 4,
        "batch_instances": 3,
        "lr_f": 1.5e-4,
        "lr_g": 3e-4,
        "lr_cz": 1e-3,
        "lr_cv": 3e-4,
        "weight_decay": 1e-4,
        "alpha_pull": 5.0,
        "beta": 2.0,
        "gamma_s": 1.0,
        "gamma_d": None,
        "k_steps": 1,
        "heads": 2,
        "ffn_expansion": 4,
        "share_weights_across_steps": True,
        "metric_loss": "np_modified",
        "ablation": "full",
        "seed": 0,
        "pa_alpha": 32.0,
        "pa_margin": 0.1,
        "gen_ema_decay": 0.9,
        "cosine_decay_g": True,
        "shuffle_fusion_order": False,
        "renormalize_synthetics": False,
        "early_stop_patience": None,
    },
    "eval": {
        "ks": [1, 2, 4, 8],
        "holdout_per_class": 10,
    },
}

FAST_TRAIN = {
    "dataset": {"num_classes": 4, "samples_per_class": 12, "input_dim": 6,
                "within_class_stddev": 0.15, "seed": 3},
    "backbone": {"hidden_dims": [8], "embed_dim": 8},
    "train": {"epochs": 1, "batch_classes": 3, "batch_instances": 2, "seed": 5},
    "eval": {"ks": [1, 2], "holdout_per_class": 3},
}


def write_cfg(tmp_path, extra=None, name="cfg.json"):
    cfg = json.loads(json.dumps(FAST_TRAIN))
    for section, values in (extra or {}).items():
        cfg.setdefault(section, {}).update(values)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestConfigResolution:
    def test_defaults_file_flags_layering(self, tmp_path):
        path = write_cfg(tmp_path, {"train": {"epochs": 7}})
        cfg = cli.resolve_config(str(path), {"train": {"epochs": 9, "seed": None}})
        assert cfg["train"]["epochs"] == 9            # flag wins
        assert cfg["train"]["batch_classes"] == 3     # file wins over default
        assert cfg["train"]["lr_f"] == 1.5e-4         # default survives

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {"learning_rate": 1.0}}))
        with pytest.raises(ConfigurationError, match="train.learning_rate"):
            cli.resolve_config(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"optimizer": {}}))
        with pytest.raises(ConfigurationError, match="optimizer"):
            cli.resolve_config(str(path))

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigurationError, match="not found"):
            cli.resolve_config("/does/not/exist.json")

    def test_run_dir_content_addressing(self, tmp_path):
        cfg = cli.resolve_config(str(write_cfg(tmp_path)))
        d1 = cli.run_dir_for(cfg, str(tmp_path / "runs"))
        d2 = cli.run_dir_for(cfg, str(tmp_path / "runs"))
        assert d1 == d2
        other = json.loads(json.dumps(cfg))
        other["train"]["epochs"] = 99
        assert cli.run_dir_for(other, str(tmp_path / "runs")) != d1

    def test_defaults_match_the_frozen_config_and_hashes(self):
        cfg = cli.resolve_config(None)
        assert cfg == FROZEN_DEFAULT_CONFIG
        assert json.dumps(cfg) == json.dumps(FROZEN_DEFAULT_CONFIG)  # same key order
        assert trainer.config_hash(cfg) == "30ab36a9f9ebe9b6"
        smoke = cli.resolve_config(str(REPO / "configs" / "smoke.json"))
        assert trainer.config_hash(smoke) == "26511d8ac836904f"

    def test_config_sections_build_their_dataclasses(self):
        cfg = cli.resolve_config(None)
        assert cli._dataset_spec(cfg) == datakit.SyntheticDatasetSpec()
        assert cli.backbone_config_from(cfg) == BackboneConfig()
        assert cli.train_config_from(cfg) == trainer.TrainConfig()

    def test_run_dir_refuses_mismatched_config(self, tmp_path):
        cfg = cli.resolve_config(str(write_cfg(tmp_path)))
        d = cli.run_dir_for(cfg, str(tmp_path / "runs"))
        d.mkdir(parents=True)
        (d / "resolved_config.json").write_text(json.dumps({"something": "else"}))
        with pytest.raises(ConfigurationError, match="refusing to overwrite"):
            cli.run_dir_for(cfg, str(tmp_path / "runs"))


def test_import_emits_no_user_warning():
    # hngen.cli imports every module of the package
    src = str(Path(hngen.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-W", "error::UserWarning", "-c", "import hngen.cli"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


class TestSynthData:
    def test_writes_expected_cardinality(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        rc = cli.main(["synth-data", "--classes", "8", "--per-class", "50",
                       "--dim", "64", "--seed", "1", "--out", str(out)])
        assert rc == 0
        ds = datakit.load_features(out)
        assert len(ds) == 400 and ds.dim == 64

    def test_rerun_same_seed_identical_hash(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            cli.main(["synth-data", "--classes", "3", "--per-class", "4",
                      "--dim", "5", "--seed", "9", "--out", str(out)])
            outs.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert outs[0] == outs[1]

    def test_per_class_one_refused_with_positive_explanation(self, tmp_path, capsys):
        rc = cli.main(["synth-data", "--classes", "3", "--per-class", "1",
                       "--dim", "4", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "positive" in capsys.readouterr().err

    def test_binary_format(self, tmp_path):
        out = tmp_path / "d.bin"
        rc = cli.main(["synth-data", "--classes", "3", "--per-class", "4",
                       "--dim", "5", "--out", str(out)])
        assert rc == 0
        assert out.read_bytes()[:4] == b"GCAF"
        assert len(datakit.load_features(out)) == 12


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli_train")
    cfg_path = write_cfg(tmp_path)
    rc = cli.main(["train", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "runs")])
    assert rc == 0
    run_dirs = list((tmp_path / "runs").iterdir())
    assert len(run_dirs) == 1
    return tmp_path, run_dirs[0]


class TestTrainEvalInspect:
    def test_run_dir_contents(self, trained):
        _, run_dir = trained
        assert (run_dir / "resolved_config.json").exists()
        assert (run_dir / "train_log.jsonl").exists()
        assert (run_dir / "checkpoints" / "epoch_000").is_dir()
        assert (run_dir / "checkpoints" / "epoch_001").is_dir()
        resolved = json.loads((run_dir / "resolved_config.json").read_text())
        assert resolved["train"]["epochs"] == 1

    def test_eval_reproduces_training_validation_exactly(self, trained, capsys):
        tmp_path, run_dir = trained
        history = json.loads((run_dir / "history.json").read_text())
        ckpt = run_dir / "checkpoints" / "epoch_001"
        rc = cli.main(["eval", "--checkpoint", str(ckpt),
                       "--out-dir", str(tmp_path / "ev")])
        assert rc == 0
        report = json.loads((tmp_path / "ev" / "metric_report.json").read_text())
        assert report["recall_at"] == history[0]["recall_at"]
        assert report["r_precision"] == history[0]["r_precision"]
        assert report["map_at_r"] == history[0]["map_at_r"]

    def test_eval_truncated_checkpoint_returns_2(self, trained, tmp_path):
        _, run_dir = trained
        ckpt = tmp_path / "ckpt"
        shutil.copytree(run_dir / "checkpoints" / "epoch_001", ckpt)
        blob = ckpt / "backbone.bin"
        blob.write_bytes(blob.read_bytes()[:-1])
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path / "ev")])
        assert rc == 2

    def test_eval_custom_ks_and_csv(self, trained):
        tmp_path, run_dir = trained
        ckpt = run_dir / "checkpoints" / "epoch_001"
        out = tmp_path / "ev_ks"
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--ks", "1,2,3,4",
                       "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "metric_report.json").read_text())
        assert sorted(report["recall_at"]) == ["1", "2", "3", "4"]
        rows = list(csv.reader(open(out / "metrics.csv")))
        assert rows[0][:2] == ["checkpoint", "epoch"]
        assert len(rows) == 2

    def test_eval_query_gallery_matches_single_set_when_compensated(self, trained, tmp_path):
        # same embeddings as query and gallery: with self-exclusion handled by
        # the protocol, a disjoint copy must reproduce single-set numbers when
        # similarities never tie (distinct rows)
        _, run_dir = trained
        ckpt = run_dir / "checkpoints" / "epoch_001"
        from hngen.cli import _model_from_checkpoint, build_dataset, split_for_eval
        from hngen import evalkit

        model, _, cfg = _model_from_checkpoint(ckpt)
        _, val = split_for_eval(cfg, build_dataset(cfg))
        z = model.backbone.embed_array(val.features)
        single = evalkit.evaluate_retrieval(
            evalkit.RetrievalIndex.single_set(z, val.labels), [1])
        # emulate the same exclusion by removing each query from the gallery
        r1 = 0.0
        for i in range(len(val)):
            keep = np.arange(len(val)) != i
            idx = evalkit.RetrievalIndex.query_gallery(
                z[i : i + 1], val.labels[i : i + 1], z[keep], val.labels[keep])
            r1 += evalkit.evaluate_retrieval(idx, [1]).recall_at[1]
        assert r1 / len(val) == pytest.approx(single.recall_at[1], abs=1e-12)

    def test_eval_gallery_flag_runs_query_gallery_protocol(self, trained, tmp_path):
        _, run_dir = trained
        ckpt = run_dir / "checkpoints" / "epoch_001"
        rng = np.random.default_rng(0)
        q = datakit.make_synthetic(datakit.SyntheticDatasetSpec(
            num_classes=3, samples_per_class=4, input_dim=6, seed=10))
        g = datakit.make_synthetic(datakit.SyntheticDatasetSpec(
            num_classes=3, samples_per_class=6, input_dim=6, seed=11))
        qpath, gpath = tmp_path / "q.csv", tmp_path / "g.csv"
        datakit.save_csv(q, qpath)
        datakit.save_csv(g, gpath)
        out = tmp_path / "ev_qg"
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(qpath),
                       "--gallery", str(gpath), "--ks", "1,2", "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "metric_report.json").read_text())
        assert report["n_queries"] == 12  # every query scored, no self-exclusion

    def test_rerun_from_resolved_config_reproduces_logs(self, trained, tmp_path):
        _, run_dir = trained
        resolved = run_dir / "resolved_config.json"
        rc = cli.main(["train", "--config", str(resolved),
                       "--out-dir", str(tmp_path / "rerun")])
        assert rc == 0
        new_run = next((tmp_path / "rerun").iterdir())
        strip = lambda line: {k: v for k, v in json.loads(line).items()
                              if k != "timestamp"}
        old = [strip(l) for l in (run_dir / "train_log.jsonl").read_text().strip().split("\n")]
        new = [strip(l) for l in (new_run / "train_log.jsonl").read_text().strip().split("\n")]
        assert old == new

    def test_inspect_dumps(self, trained):
        tmp_path, run_dir = trained
        ckpt = run_dir / "checkpoints" / "epoch_001"
        out = tmp_path / "diag"
        rc = cli.main(["inspect", "--checkpoint", str(ckpt), "--out-dir", str(out)])
        assert rc == 0
        for name in ("attention.csv", "lambda_histogram.csv",
                     "interval_occupancy.csv", "feature_variance.csv",
                     "projection.csv"):
            assert (out / name).exists(), name

    def test_inspect_attention_rows_sum_to_one_with_exact_zeros(self, trained):
        tmp_path, run_dir = trained
        out = tmp_path / "diag"
        rows = list(csv.DictReader(open(out / "attention.csv")))
        by_row: dict[tuple, list[float]] = {}
        for r in rows:
            by_row.setdefault((r["step"], r["head"], r["query_row"]), []).append(
                float(r["weight"]))
        for weights in by_row.values():
            assert sum(weights) == pytest.approx(1.0, abs=1e-6)
            assert any(w == 0.0 for w in weights)  # masked entries exact zeros

    def test_inspect_lambda_support_in_unit_interval(self, trained):
        tmp_path, _ = trained
        out = tmp_path / "diag"
        rows = list(csv.DictReader(open(out / "lambda_histogram.csv")))
        total = sum(int(r["count"]) for r in rows)
        assert total > 0
        assert float(rows[0]["bin_left"]) == 0.0
        assert float(rows[-1]["bin_right"]) == 1.0


class TestCheckpointReload:
    def test_inspect_reports_the_eta_training_stored(self, tmp_path):
        cfg_path = write_cfg(tmp_path, {"train": {"epochs": 2}})
        assert cli.main(["train", "--config", str(cfg_path),
                         "--out-dir", str(tmp_path / "runs")]) == 0
        ckpt = next((tmp_path / "runs").iterdir()) / "checkpoints" / "epoch_002"
        manifest = json.loads((ckpt / "manifest.json").read_text())
        tcfg = cli.train_config_from(manifest["resolved_config"])
        assert manifest["avg_metric_loss"] is not None
        assert manifest["eta"] == cacai.eta_from_avg_loss(tcfg.alpha_pull, manifest["avg_metric_loss"])
        assert manifest["eta"] != 1.0
        out = tmp_path / "diag"
        assert cli.main(["inspect", "--checkpoint", str(ckpt), "--out-dir", str(out)]) == 0
        etas = {float(r["eta"]) for r in csv.DictReader(open(out / "interval_occupancy.csv"))}
        assert etas == {manifest["eta"]}

    def test_feature_file_checkpoint_loads_into_eval_and_inspect(self, tmp_path):
        data = tmp_path / "feats.csv"
        assert cli.main(["synth-data", "--classes", "4", "--per-class", "12", "--dim", "32",
                         "--seed", "2", "--out", str(data)]) == 0
        cfg_path = write_cfg(tmp_path, {"dataset": {"path": str(data)}})
        assert cli.main(["train", "--config", str(cfg_path),
                         "--out-dir", str(tmp_path / "runs")]) == 0
        ckpt = next((tmp_path / "runs").iterdir()) / "checkpoints" / "epoch_001"
        assert cli.main(["eval", "--checkpoint", str(ckpt),
                         "--out-dir", str(tmp_path / "ev")]) == 0
        assert cli.main(["inspect", "--checkpoint", str(ckpt),
                         "--out-dir", str(tmp_path / "diag")]) == 0

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_load_validates_backbone_once(self, trained, tmp_path, command, monkeypatch):
        _, run_dir = trained
        calls = []
        real = BackboneConfig.validate

        def counted(cfg):
            calls.append(cfg)
            real(cfg)

        monkeypatch.setattr(BackboneConfig, "validate", counted)
        assert cli.main([command, "--checkpoint", str(run_dir / "checkpoints" / "epoch_001"),
                         "--out-dir", str(tmp_path / "out")]) == 0
        assert len(calls) == 1


class TestTrainOverridesAndErrors:
    def test_train_ablation_flag(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        rc = cli.main(["train", "--config", str(cfg_path), "--ablation", "baseline",
                       "--out-dir", str(tmp_path / "runs")])
        assert rc == 0
        run_dir = next((tmp_path / "runs").iterdir())
        resolved = json.loads((run_dir / "resolved_config.json").read_text())
        assert resolved["train"]["ablation"] == "baseline"
        manifest = json.loads(
            (run_dir / "checkpoints" / "epoch_001" / "manifest.json").read_text())
        assert sorted(manifest["groups"]) == ["backbone"]

    def test_metric_loss_flag_switches_proxy_anchor(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        rc = cli.main(["train", "--config", str(cfg_path),
                       "--metric-loss", "proxy_anchor",
                       "--out-dir", str(tmp_path / "runs")])
        assert rc == 0
        run_dir = next((tmp_path / "runs").iterdir())
        manifest = json.loads(
            (run_dir / "checkpoints" / "epoch_001" / "manifest.json").read_text())
        assert "proxies" in manifest["groups"]

    def test_bad_config_returns_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"ablation": "bogus"}}))
        rc = cli.main(["train", "--config", str(bad), "--out-dir", str(tmp_path / "r")])
        assert rc == 2

    def test_eval_missing_checkpoint_returns_2(self, tmp_path):
        rc = cli.main(["eval", "--checkpoint", str(tmp_path / "nope"),
                       "--out-dir", str(tmp_path / "ev")])
        assert rc == 2

    @pytest.mark.parametrize("train, backbone, eval_", [
        ({"gamma_s": -1}, {}, {}),
        ({"gamma_d": -1}, {}, {}),
        ({"gamma_d": float("nan")}, {}, {}),
        ({"k_steps": 0}, {}, {}),
        ({"heads": 0}, {}, {}),
        ({"ffn_expansion": 0}, {}, {}),
        ({"heads": 3}, {"embed_dim": 64}, {}),
        ({}, {}, {"ks": [0, 1]}),
        ({}, {}, {"ks": [1, 2.5]}),
        ({}, {}, {"holdout_per_class": 0}),
        ({}, {"normalize": False}, {}),
    ], ids=["gamma_s", "gamma_d", "gamma_d_nan", "k_steps", "heads", "ffn_expansion",
            "heads_divide_dim", "eval_ks_zero", "eval_ks_float", "eval_holdout_zero",
            "backbone_not_normalized"])
    def test_bad_setting_returns_2_before_any_file(self, tmp_path, train, backbone, eval_):
        cfg_path = write_cfg(tmp_path, {"train": train, "backbone": backbone, "eval": eval_})
        out = tmp_path / "runs"
        assert cli.main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_missing_data_file_returns_2(self, trained, tmp_path):
        _, run_dir = trained
        rc = cli.main(["eval", "--checkpoint", str(run_dir / "checkpoints" / "epoch_001"),
                       "--data", str(tmp_path / "missing.csv"),
                       "--out-dir", str(tmp_path / "ev")])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["eval", "--checkpoint", "ckpt", "--ks", "1,x"],
        ["ablate", "--arms", "full", "--seeds", "1,a"],
    ], ids=["eval_ks", "ablate_seeds"])
    def test_malformed_int_list_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "comma-separated integers" in capsys.readouterr().err


def _break_class_ids(m):
    del m["class_ids"]


def _unknown_train_key(m):
    m["resolved_config"]["train"]["bogus"] = 1


def _backbone_without_hidden_dims(m):
    del m["resolved_config"]["backbone"]["hidden_dims"]


def _groups_not_an_object(m):
    m["groups"] = 5


def _groups_a_list(m):
    m["groups"] = ["backbone"]


def _class_ids_not_integers(m):
    m["class_ids"] = ["a", "b"]


def _first_weight_one_dim(m):
    m["groups"]["backbone"]["layers.0.weight"] = [128]


class TestMalformedManifest:
    @pytest.mark.parametrize("command", ["eval", "inspect"])
    @pytest.mark.parametrize("damage", [
        None, _break_class_ids, _unknown_train_key, _backbone_without_hidden_dims,
        _groups_not_an_object, _groups_a_list, _class_ids_not_integers,
        _first_weight_one_dim,
    ], ids=["invalid_json", "no_class_ids", "unknown_train_key", "no_hidden_dims",
            "groups_number", "groups_list", "class_ids_strings", "weight_one_dim"])
    def test_returns_2(self, trained, tmp_path, command, damage, capsys):
        _, run_dir = trained
        ckpt = tmp_path / "ckpt"
        shutil.copytree(run_dir / "checkpoints" / "epoch_001", ckpt)
        manifest_path = ckpt / "manifest.json"
        if damage is None:
            manifest_path.write_text(manifest_path.read_text()[:-10])
        else:
            manifest = json.loads(manifest_path.read_text())
            damage(manifest)
            manifest_path.write_text(json.dumps(manifest))
        rc = cli.main([command, "--checkpoint", str(ckpt), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestAblate:
    def test_two_arm_table_schema(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        rc = cli.main(["ablate", "--config", str(cfg_path),
                       "--arms", "full,baseline", "--seeds", "1,2",
                       "--out-dir", str(tmp_path / "ab")])
        assert rc == 0
        rows = list(csv.reader(open(tmp_path / "ab" / "ablation_table.csv")))
        assert rows[0] == cli.ABLATE_HEADER
        assert len(rows) == 3
        assert rows[1][0] == "full" and rows[2][0] == "baseline"
        assert rows[1][2] == "2"  # n_seeds

    def test_unknown_arm_lists_valid(self, tmp_path, capsys):
        rc = cli.main(["ablate", "--arms", "full,bogus",
                       "--out-dir", str(tmp_path / "ab")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "single_coeff" in err


class TestGlobalFlags:
    def test_global_config_seed_out_dir(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        rc = cli.main(["--config", str(cfg_path), "--seed", "42",
                       "--out-dir", str(tmp_path / "gruns"), "train"])
        assert rc == 0
        run_dir = next((tmp_path / "gruns").iterdir())
        resolved = json.loads((run_dir / "resolved_config.json").read_text())
        assert resolved["train"]["seed"] == 42

    def test_subcommand_flag_wins_over_global(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        rc = cli.main(["--seed", "42", "train", "--config", str(cfg_path),
                       "--seed", "43", "--out-dir", str(tmp_path / "r")])
        assert rc == 0
        run_dir = next((tmp_path / "r").iterdir())
        resolved = json.loads((run_dir / "resolved_config.json").read_text())
        assert resolved["train"]["seed"] == 43
