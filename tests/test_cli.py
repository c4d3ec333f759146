import csv
import dataclasses
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hngen
from hngen import autodiff as ad
from hngen import cli, datakit, evalkit, gcl, trainer
from hngen.backbone import BackboneConfig
from hngen.errors import ConfigurationError

from test_tooling import TINY

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


_DIRECTORY = object()  # a config path that is a directory


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
        assert trainer.config_hash(cfg) == "5d185c0cef5604f0"
        smoke = cli.resolve_config(str(REPO / "configs" / "smoke.json"))
        assert trainer.config_hash(smoke) == "d0ea90e42caae3c6"

    def test_config_sections_build_their_dataclasses(self):
        cfg = cli.resolve_config(None)
        assert cli._section(cfg, "dataset", datakit.SyntheticDatasetSpec) == datakit.SyntheticDatasetSpec()
        assert cli._section(cfg, "dataset", datakit.FeatureSource) == datakit.FeatureSource()
        assert cli._section(cfg, "eval", evalkit.EvalConfig) == evalkit.EvalConfig()
        assert cli.backbone_config_from(cfg) == BackboneConfig()
        assert cli.train_config_from(cfg) == trainer.TrainConfig()

    @pytest.mark.parametrize("cls", [datakit.SyntheticDatasetSpec, BackboneConfig,
                                     trainer.TrainConfig, evalkit.EvalConfig])
    def test_configs_are_frozen(self, cls):
        # a config is checked as it is built, so none may change afterwards
        cfg = cls()
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, f.name, getattr(cfg, f.name))

    @pytest.mark.parametrize("content", [b'{"train": ', b'{"\xff": 1}'],
                             ids=["invalid_json", "not_utf8"])
    def test_train_refuses_a_run_dir_with_unreadable_config(self, tmp_path, content, capsys):
        cfg_path = write_cfg(tmp_path)
        d = cli.run_dir_for(cli.resolve_config(str(cfg_path)), str(tmp_path / "runs"))
        d.mkdir(parents=True)
        (d / "resolved_config.json").write_bytes(content)
        rc = cli.main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "runs")])
        assert rc == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert [p.name for p in d.iterdir()] == ["resolved_config.json"]
        assert (d / "resolved_config.json").read_bytes() == content

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

    @pytest.mark.parametrize("flag, value", [
        ("--stddev", "nan"), ("--stddev", "inf"), ("--center-scale", "nan"),
        ("--center-scale", "-inf"), ("--overlap", "nan"),
    ])
    def test_non_finite_setting_returns_2_without_a_file(self, tmp_path, flag, value, capsys):
        out = tmp_path / "d.csv"
        rc = cli.main(["synth-data", "--classes", "3", "--per-class", "4",
                       "--dim", "5", f"{flag}={value}", "--out", str(out)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_returns_2_without_a_file(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        rc = cli.main(["synth-data", "--classes", "3", "--per-class", "4",
                       "--dim", "5", "--seed=-1", "--out", str(out)])
        assert rc == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_binary_format(self, tmp_path):
        out = tmp_path / "d.bin"
        rc = cli.main(["synth-data", "--classes", "3", "--per-class", "4",
                       "--dim", "5", "--out", str(out)])
        assert rc == 0
        assert out.read_bytes()[:4] == b"GCAF"
        assert len(datakit.load_features(out)) == 12

    @pytest.mark.parametrize("name, fmt, written", [
        ("d.bin", "auto", "binary"), ("d.csv", "auto", "csv"), ("d.txt", "binary", "binary"),
        ("d.bin", "csv", "csv"),
    ])
    def test_prints_the_format_written(self, tmp_path, capsys, name, fmt, written):
        out = tmp_path / name
        rc = cli.main(["synth-data", "--classes", "3", "--per-class", "4",
                       "--dim", "5", "--format", fmt, "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == (
            f"wrote 12 records (5-dim, 3 classes) to {out} [{written}]\n")
        assert (out.read_bytes()[:4] == b"GCAF") == (written == "binary")


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
        blob = ckpt / "params.bin"
        blob.write_bytes(blob.read_bytes()[:-1])
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path / "ev")])
        assert rc == 2

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    @pytest.mark.parametrize("damage", ["no_params_blob", "params_blob_a_directory",
                                        "manifest_a_directory"])
    def test_damaged_checkpoint_directory_returns_2(self, trained, tmp_path, capsys,
                                                    command, damage):
        _, run_dir = trained
        ckpt = tmp_path / "ckpt"
        shutil.copytree(run_dir / "checkpoints" / "epoch_001", ckpt)
        if damage == "no_params_blob":
            broken = ckpt / "params.bin"
            broken.unlink()
        else:
            broken = ckpt / ("params.bin" if damage == "params_blob_a_directory" else "manifest.json")
            broken.unlink()
            broken.mkdir()
        out = tmp_path / "out"
        rc = cli.main([command, "--checkpoint", str(ckpt), "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and str(broken) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_checkpoint_model_records_no_tape(self, trained, tmp_path, monkeypatch, command):
        # a model loaded for eval or inspect is never trained: every tensor
        # it computes, the graph's and the embeddings' included, is a leaf
        _, run_dir = trained
        made = []
        make = ad._make
        monkeypatch.setattr(ad, "_make", lambda *args: made.append(make(*args)) or made[-1])
        rc = cli.main([command, "--checkpoint", str(run_dir / "checkpoints" / "epoch_001"),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 0 and made
        assert all(not t.requires_grad and t._parents == () for t in made)

    def test_eval_float32_blob_returns_2(self, trained, tmp_path, capsys):
        # checkpoints are float64 only: the same tensors as float32 are refused
        # by their size, not widened
        _, run_dir = trained
        ckpt = tmp_path / "ckpt"
        shutil.copytree(run_dir / "checkpoints" / "epoch_001", ckpt)
        blob = ckpt / "params.bin"
        wide = blob.read_bytes()
        blob.write_bytes(np.frombuffer(wide, "<f8").astype("<f4").tobytes())
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path / "ev")])
        assert rc == 2
        err = capsys.readouterr().err.replace(str(tmp_path), "<tmp>")
        assert f"holds {len(wide) // 2} bytes, the manifest's shapes need {len(wide)}" in err

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_format_version_1_checkpoint_returns_2(self, trained, tmp_path, capsys, command):
        # blobs with a header were format 1, one blob per parameter group
        # format 2; such a checkpoint must be retrained
        _, run_dir = trained
        for version in (1, 2):
            ckpt = tmp_path / f"ckpt{version}"
            shutil.copytree(run_dir / "checkpoints" / "epoch_001", ckpt)
            manifest = json.loads((ckpt / "manifest.json").read_text())
            manifest["format_version"] = version
            (ckpt / "manifest.json").write_text(json.dumps(manifest))
            out = tmp_path / f"out{version}"
            assert cli.main([command, "--checkpoint", str(ckpt), "--out-dir", str(out)]) == 2
            err = capsys.readouterr().err.replace(str(tmp_path), "<tmp>")
            assert (f"manifest version {version} needs migration "
                    f"(supported: {trainer.CHECKPOINT_VERSION})") in err
            assert not out.exists()

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

    def test_eval_csv_with_other_columns_returns_2_before_writing(self, trained, tmp_path, capsys):
        _, run_dir = trained
        ckpt = run_dir / "checkpoints" / "epoch_001"
        out = tmp_path / "ev"
        argv = ["eval", "--checkpoint", str(ckpt), "--out-dir", str(out)]
        assert cli.main(argv + ["--ks", "1,2,4"]) == 0
        assert cli.main(argv + ["--ks", "1,2,4"]) == 0  # same columns: one more row
        rows = list(csv.reader((out / "metrics.csv").read_text().splitlines()))
        assert len(rows) == 3 and all(len(row) == len(rows[0]) == 8 for row in rows)
        (out / "metric_report.json").unlink()
        before = (out / "metrics.csv").read_bytes()
        capsys.readouterr()
        assert cli.main(argv + ["--ks", "1"]) == 2
        assert "use another --out-dir" in capsys.readouterr().err
        assert (out / "metrics.csv").read_bytes() == before
        assert not (out / "metric_report.json").exists()

    def test_eval_repeated_k_returns_2_before_any_file(self, trained, tmp_path, capsys):
        # --ks follows eval.ks's rule: each K names one metrics.csv column
        _, run_dir = trained
        out = tmp_path / "ev"
        assert cli.main(["eval", "--checkpoint", str(run_dir / "checkpoints" / "epoch_001"),
                         "--ks", "1,1", "--out-dir", str(out)]) == 2
        assert "eval.ks lists a recall K more than once: [1, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_gallery_without_data_returns_2_before_any_file(self, trained, tmp_path, capsys):
        _, run_dir = trained
        g = datakit.make_synthetic(datakit.SyntheticDatasetSpec(
            num_classes=3, samples_per_class=6, input_dim=6, seed=11))
        gpath = tmp_path / "g.csv"
        datakit.save_csv(g, gpath)
        out = tmp_path / "ev_g"
        rc = cli.main(["eval", "--checkpoint", str(run_dir / "checkpoints" / "epoch_001"),
                       "--gallery", str(gpath), "--out-dir", str(out)])
        assert rc == 2
        assert "--gallery needs --data" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_query_gallery_matches_single_set_when_compensated(self, trained, tmp_path):
        # same embeddings as query and gallery: with self-exclusion handled by
        # the protocol, a disjoint copy must reproduce single-set numbers when
        # similarities never tie (distinct rows)
        _, run_dir = trained
        ckpt = run_dir / "checkpoints" / "epoch_001"
        from hngen.cli import _model_from_checkpoint, build_dataset, split_for_eval
        from hngen import evalkit

        model, _, cfg, _ = _model_from_checkpoint(ckpt)
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
        assert manifest["eta"] == trainer.schedule_factor(tcfg.alpha_pull, manifest["avg_metric_loss"])
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

    def test_a_zero_embedding_row_trains_and_evals(self, tmp_path, monkeypatch):
        # On this data and seed some sample's hidden ReLUs all read zero, so
        # its pre-normalization embedding is the zero row: the normalization
        # maps it to the unit vector 1/sqrt(D) where it used to exit 2.
        data = tmp_path / "data.bin"
        assert cli.main(["synth-data", "--classes", "4", "--per-class", "12", "--dim", "6",
                         "--out", str(data)]) == 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**TINY, "dataset": {**TINY["dataset"], "path": str(data)},
                                        "train": {**TINY["train"], "seed": 1}}))
        zero_rows = []
        forward = ad._l2_rows_forward

        def counting_forward(x):
            zero_rows.append(int(np.sum(~x.any(axis=-1))))
            return forward(x)

        monkeypatch.setattr(ad, "_l2_rows_forward", counting_forward)
        assert cli.main(["train", "--config", str(cfg_path),
                         "--out-dir", str(tmp_path / "runs")]) == 0
        assert sum(zero_rows) > 0
        ckpt = next((tmp_path / "runs").iterdir()) / "checkpoints" / "epoch_001"
        assert cli.main(["eval", "--checkpoint", str(ckpt),
                         "--out-dir", str(tmp_path / "ev")]) == 0

    @pytest.mark.parametrize("arm", trainer.ABLATION_ARMS)
    def test_inspect_writes_every_csv_or_refuses_an_arm_without_synthetics(
        self, tmp_path, arm, capsys
    ):
        cfg_path = write_cfg(tmp_path, {"train": {"ablation": arm}})
        assert cli.main(["train", "--config", str(cfg_path),
                         "--out-dir", str(tmp_path / "runs")]) == 0
        ckpt = next((tmp_path / "runs").iterdir()) / "checkpoints" / "epoch_001"
        out = tmp_path / "diag"
        rc = cli.main(["inspect", "--checkpoint", str(ckpt), "--out-dir", str(out)])
        if arm in ("baseline", "baseline_gnn"):
            assert rc == 2
            assert "synthesizes no negatives" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert rc == 0
            assert sorted(p.name for p in out.iterdir()) == [
                "attention.csv", "feature_variance.csv", "interval_occupancy.csv",
                "lambda_histogram.csv", "projection.csv"]

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_load_validates_backbone_once(self, trained, tmp_path, command, monkeypatch):
        _, run_dir = trained
        calls = []
        real = BackboneConfig.__post_init__

        def counted(cfg):
            calls.append(cfg)
            real(cfg)

        monkeypatch.setattr(BackboneConfig, "__post_init__", counted)
        assert cli.main([command, "--checkpoint", str(run_dir / "checkpoints" / "epoch_001"),
                         "--out-dir", str(tmp_path / "out")]) == 0
        assert len(calls) == 1


class TestTrainOverridesAndErrors:
    @pytest.mark.parametrize("command, target", [
        ("train", "file"), ("ablate", "file"), ("eval", "file"), ("inspect", "file"),
        ("synth-data", "missing/x.csv"), ("synth-data", "dir"),
    ], ids=["train", "ablate", "eval", "inspect", "synth_missing_dir", "synth_onto_dir"])
    def test_unwritable_output_path_returns_2_naming_it(
        self, trained, tmp_path, command, target, capsys
    ):
        path = {"file": tmp_path / "taken", "dir": tmp_path}.get(target, tmp_path / target)
        if target == "file":
            path.write_text("")
        ckpt = str(trained[1] / "checkpoints" / "epoch_001")
        argv = {
            "train": ["--config", str(write_cfg(tmp_path)), "--out-dir", str(path)],
            "ablate": ["--config", str(write_cfg(tmp_path)), "--arms", "full", "--seeds", "1",
                       "--out-dir", str(path)],
            "eval": ["--checkpoint", ckpt, "--out-dir", str(path)],
            "inspect": ["--checkpoint", ckpt, "--out-dir", str(path)],
            "synth-data": ["--classes", "3", "--per-class", "4", "--dim", "5",
                           "--out", str(path)],
        }[command]
        assert cli.main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err

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
        assert {name.split(".")[0] for name in manifest["tensors"]} == {"backbone"}

    def test_metric_loss_flag_switches_proxy_anchor(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        rc = cli.main(["train", "--config", str(cfg_path),
                       "--metric-loss", "proxy_anchor",
                       "--out-dir", str(tmp_path / "runs")])
        assert rc == 0
        run_dir = next((tmp_path / "runs").iterdir())
        manifest = json.loads(
            (run_dir / "checkpoints" / "epoch_001" / "manifest.json").read_text())
        assert "proxies.proxies" in manifest["tensors"]

    def test_bad_config_returns_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"ablation": "bogus"}}))
        rc = cli.main(["train", "--config", str(bad), "--out-dir", str(tmp_path / "r")])
        assert rc == 2

    def test_eval_missing_checkpoint_returns_2(self, tmp_path):
        rc = cli.main(["eval", "--checkpoint", str(tmp_path / "nope"),
                       "--out-dir", str(tmp_path / "ev")])
        assert rc == 2

    # a dict of sections is merged into FAST_TRAIN; anything else is the file
    @pytest.mark.parametrize("config", [
        {"train": {"gamma_s": -1}},
        {"train": {"gamma_d": -1}},
        {"train": {"gamma_d": float("nan")}},
        {"train": {"k_steps": 0}},
        {"train": {"heads": 0}},
        {"train": {"ffn_expansion": 0}},
        {"train": {"heads": 3}, "backbone": {"embed_dim": 64}},
        {"eval": {"ks": [0, 1]}},
        {"eval": {"ks": [1, 2.5]}},
        {"eval": {"ks": []}},
        {"eval": {"ks": [1, 1, 2]}},
        {"eval": {"holdout_per_class": 0}},
        {"eval": {"holdout_per_class": 1}},
        {"train": {"batch_classes": 5}},
        {"train": {"batch_instances": 10}},
        {"backbone": {"normalize": False}},
        [1],
        {"train": 5},
        {"eval": 3},
        {"train": {"epochs": "x"}},
        {"train": {"batch_classes": 3.0}},
        {"backbone": {"hidden_dims": 5}},
        {"dataset": {"seed": True}},
        {"dataset": {"path": "data.csv", "seed": "a"}},
        b'{"train": {"epochs": 1}}\xff',
        _DIRECTORY,
        {"dataset": {"path": 5}},
        {"dataset": {"format": 5}},
        {"train": {"shuffle_fusion_order": True}},
        {"train": {"lr_f": float("nan")}},
        {"train": {"beta": float("inf")}},
        {"train": {"metric_loss": "proxy_anchor", "pa_alpha": float("-inf")}},
        {"dataset": {"within_class_stddev": float("nan")}},
        {"dataset": {"class_center_scale": float("inf")}},
        {"train": {"lr_g": 10**400}},
        {"backbone": {"hidden_dims": [-1]}},
        {"backbone": {"hidden_dims": [0]}},
        {"train": {"weight_decay": -5}},
        {"train": {"early_stop_patience": -1}},
        {"train": {"seed": -1}},
        {"dataset": {"seed": -3}},
        {"dataset": {"path": "data.csv", "seed": -3}},
        {"train": {"alpha_pull": -1.0}},
        {"train": {"beta": -2.0}},
        {"train": {"metric_loss": "proxy_anchor", "pa_alpha": 0.0}},
    ], ids=["gamma_s", "gamma_d", "gamma_d_nan", "k_steps", "heads", "ffn_expansion",
            "heads_divide_dim", "eval_ks_zero", "eval_ks_float", "eval_ks_empty",
            "eval_ks_repeated",
            "eval_holdout_zero", "eval_holdout_one", "more_batch_classes_than_classes",
            "class_smaller_than_batch_instances",
            "backbone_not_normalized", "file_a_list", "train_a_number", "eval_a_number",
            "epochs_a_string", "batch_classes_a_float", "hidden_dims_a_number",
            "dataset_seed_a_bool", "feature_file_seed_a_string", "file_not_utf8",
            "file_a_directory", "dataset_path_a_number", "dataset_format_a_number",
            "removed_switch", "lr_f_nan", "beta_inf", "pa_alpha_minus_inf",
            "stddev_nan", "center_scale_inf", "lr_g_past_float_range",
            "hidden_dim_negative", "hidden_dim_zero", "weight_decay_negative",
            "early_stop_patience_negative", "train_seed_negative", "dataset_seed_negative",
            "feature_file_seed_negative", "alpha_pull_negative", "beta_negative",
            "pa_alpha_zero"])
    def test_bad_setting_returns_2_before_any_file(self, tmp_path, config, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # where a config's "data.csv" is
        datakit.save_csv(datakit.make_synthetic(datakit.SyntheticDatasetSpec(
            num_classes=4, samples_per_class=12, input_dim=6)), "data.csv")
        cfg_path = tmp_path / "cfg.json"
        if config is _DIRECTORY:
            cfg_path.mkdir()
        elif isinstance(config, bytes):
            cfg_path.write_bytes(config)
        elif isinstance(config, dict) and all(isinstance(v, dict) for v in config.values()):
            cfg_path = write_cfg(tmp_path, config)
        else:
            cfg_path.write_text(json.dumps(config))
        out = tmp_path / "runs"
        assert cli.main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_flag_returns_2_before_any_file(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert cli.main(["train", "--config", str(write_cfg(tmp_path)), "--seed=-1",
                         "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt, value, where", [
        ("csv", np.nan, "line 8"), ("csv", -np.inf, "line 8"), ("binary", np.nan, "record 8"),
    ])
    def test_non_finite_feature_returns_2_before_any_file(self, tmp_path, capsys,
                                                          fmt, value, where):
        data = datakit.make_synthetic(datakit.SyntheticDatasetSpec(
            num_classes=4, samples_per_class=12, input_dim=6))
        features = data.features.copy()
        features[7, 2] = value
        path = tmp_path / f"data.{fmt}"
        datakit.save_features(datakit.Dataset(features, data.labels), path, fmt)
        out = tmp_path / "runs"
        cfg_path = write_cfg(tmp_path, {"dataset": {"path": str(path)}})
        assert cli.main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert f"{where}: non-finite feature value" in capsys.readouterr().err

    @staticmethod
    def _bad_feature_file(tmp_path, bad: str) -> Path:
        """A 48-record feature file of the FAST_TRAIN shape, broken as ``bad``
        names: a CSV label on line 8, or a binary header of dim 0."""
        if bad == "dim_zero":
            path = tmp_path / "data.bin"
            path.write_bytes(datakit.BINARY_MAGIC + struct.pack("<IQI", datakit.BINARY_VERSION, 48, 0)
                             + struct.pack("<48I", *np.repeat(np.arange(1, 5), 12)))
            return path
        path = tmp_path / "data.csv"
        datakit.save_csv(datakit.make_synthetic(datakit.SyntheticDatasetSpec(
            num_classes=4, samples_per_class=12, input_dim=6)), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[7] = bad + lines[7][lines[7].index(","):]
        path.write_text("".join(lines))
        return path

    @pytest.mark.parametrize("bad, message", [
        ("1.7", "line 8"), ("1e30", "line 8"), ("dim_zero", "no feature columns"),
    ], ids=["csv_label_fraction", "csv_label_past_int64", "binary_dim_zero"])
    def test_bad_feature_file_returns_2_before_any_file(self, tmp_path, capsys, bad, message):
        path = self._bad_feature_file(tmp_path, bad)
        out = tmp_path / "runs"
        cfg_path = write_cfg(tmp_path, {"dataset": {"path": str(path)}})
        assert cli.main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["1.7", "1e30", "dim_zero"])
    def test_eval_bad_data_file_returns_2_before_any_file(self, trained, tmp_path, bad):
        _, run_dir = trained
        out = tmp_path / "ev"
        rc = cli.main(["eval", "--checkpoint", str(run_dir / "checkpoints" / "epoch_001"),
                       "--data", str(self._bad_feature_file(tmp_path, bad)),
                       "--out-dir", str(out)])
        assert rc == 2
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


_DROP = object()  # a manifest key removed rather than set


def _break_class_ids(m):
    del m["class_ids"]


def _unknown_train_key(m):
    m["resolved_config"]["train"]["bogus"] = 1


def _backbone_without_hidden_dims(m):
    del m["resolved_config"]["backbone"]["hidden_dims"]


def _tensors_not_an_object(m):
    m["tensors"] = 5


def _tensors_a_list(m):
    m["tensors"] = ["backbone.layers.0.weight"]


def _class_ids_not_integers(m):
    m["class_ids"] = ["a", "b"]


def _first_weight_one_dim(m):
    m["tensors"]["backbone.layers.0.weight"] = [128]


def _epochs_a_string(m):
    m["resolved_config"]["train"]["epochs"] = "x"


def _eval_ks_a_string(m):
    m["resolved_config"]["eval"]["ks"] = "x"


def _removed_switch(m):  # written before the switch was deleted
    m["resolved_config"]["train"]["cosine_decay_g"] = True


class TestMalformedManifest:
    @pytest.mark.parametrize("command", ["eval", "inspect"])
    @pytest.mark.parametrize("damage", [
        None, _break_class_ids, _unknown_train_key, _backbone_without_hidden_dims,
        _tensors_not_an_object, _tensors_a_list, _class_ids_not_integers,
        _first_weight_one_dim, _epochs_a_string, _eval_ks_a_string, _removed_switch,
    ], ids=["invalid_json", "no_class_ids", "unknown_train_key", "no_hidden_dims",
            "tensors_number", "tensors_list", "class_ids_strings", "weight_one_dim",
            "epochs_string", "eval_ks_string", "removed_switch"])
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
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("damage, key", [
        (_removed_switch, "'train.cosine_decay_g'"),
        (_backbone_without_hidden_dims, "backbone.hidden_dims"),
    ], ids=["unknown", "missing"])
    def test_config_error_names_checkpoint_and_key(self, trained, tmp_path, damage, key, capsys):
        _, run_dir = trained
        ckpt = tmp_path / "ckpt"
        shutil.copytree(run_dir / "checkpoints" / "epoch_001", ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        damage(manifest)
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and key in err

    @pytest.mark.parametrize("key, value", [
        ("eta", "x"), ("eta", True), ("eta", None), ("eta", float("nan")), ("eta", 10**400),
        ("eta", _DROP), ("avg_metric_loss", "x"), ("avg_metric_loss", False),
        ("avg_metric_loss", float("inf")), ("avg_metric_loss", _DROP),
    ])
    def test_bad_schedule_state_exits_2_before_inspect_writes(
        self, trained, tmp_path, key, value, capsys
    ):
        _, run_dir = trained
        ckpt = tmp_path / "ckpt"
        shutil.copytree(run_dir / "checkpoints" / "epoch_001", ckpt)
        manifest_path = ckpt / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if value is _DROP:
            del manifest[key]
        else:
            manifest[key] = value
        manifest_path.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        assert cli.main(["inspect", "--checkpoint", str(ckpt), "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert key in capsys.readouterr().err
        # eval needs no schedule state, but a present one must be well-typed
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path / "ev")])
        assert rc == (0 if value is _DROP else 2)

    def test_negative_seed_exits_2_before_inspect_writes(self, trained, tmp_path, capsys):
        _, run_dir = trained
        out = tmp_path / "out"
        assert cli.main(["inspect", "--checkpoint", str(run_dir / "checkpoints" / "epoch_001"),
                         "--seed=-2", "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert "--seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("arm, dropped", [("no_global", "node_blocks"),
                                          ("single_coeff", "edge_blocks"),
                                          ("baseline_gnn", "edge_blocks")])
def test_checkpoint_with_blocks_the_arm_does_not_build_exits_2(tmp_path, capsys, arm, dropped):
    # a checkpoint that holds tensors its arm's model does not build (as
    # every arm's did while each built every graph block): eval and inspect
    # name them and exit 2 before writing anything
    assert cli.main(["train", "--config", str(write_cfg(tmp_path, {"train": {"ablation": arm}})),
                     "--out-dir", str(tmp_path / "runs")]) == 0
    ckpt = next((tmp_path / "runs").glob("*/checkpoints/epoch_001"))
    model, manifest, cfg, _ = cli._model_from_checkpoint(ckpt)
    blocks = getattr(model.graph, dropped)
    assert blocks == []  # at K=1
    block = gcl.NodeBlock if dropped == "node_blocks" else gcl.EdgeBlock
    blocks.append(block(cfg["backbone"]["embed_dim"], model.cfg.heads, model.cfg.ffn_expansion,
                        np.random.default_rng(0)))
    trainer.save_checkpoint(ckpt, model, manifest)
    extra = [f"graph.{dropped}.0.{name}" for name in blocks[0].named_parameters()]
    for command in ("eval", "inspect"):
        out = tmp_path / command
        assert cli.main([command, "--checkpoint", str(ckpt), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in extra) and not out.exists()


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

    def test_r_at_1_scored_when_eval_ks_lack_it(self, tmp_path):
        cfg_path = write_cfg(tmp_path, {"eval": {"ks": [2]}})
        out = tmp_path / "ab"
        assert cli.main(["ablate", "--config", str(cfg_path), "--arms", "full",
                         "--seeds", "1,2", "--out-dir", str(out)]) == 0
        finals = [json.loads((d / "history.json").read_text())[-1]
                  for d in sorted(out.glob("*-s*"))]
        r1 = np.array([final["recall_at"]["1"] for final in finals])
        assert r1.size == 2 and r1.min() > 0
        row = list(csv.reader(open(out / "ablation_table.csv")))[1]
        assert row[3:5] == [f"{r1.mean():.6f}", f"{r1.std():.6f}"]

    def test_zero_epochs_returns_2_before_training(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, {"train": {"epochs": 0}})
        out = tmp_path / "ab"
        assert cli.main(["ablate", "--config", str(cfg_path), "--arms", "full",
                         "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert "epochs" in capsys.readouterr().err

    @pytest.mark.parametrize("arms, seeds, flag", [
        ("full,full", "1", "--arms"), ("full", "1,1", "--seeds"),
        ("full, full", "1,2", "--arms"), (",", "1", "--arms"),
    ], ids=["arm_twice", "seed_twice", "arm_twice_spaced", "no_arm"])
    def test_repeated_or_missing_entry_returns_2_before_training(
        self, tmp_path, arms, seeds, flag, capsys
    ):
        out = tmp_path / "ab"
        assert cli.main(["ablate", "--config", str(write_cfg(tmp_path)), "--arms", arms,
                         "--seeds", seeds, "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["-1", "1,-1"])
    def test_negative_seed_returns_2_before_training(self, tmp_path, seeds, capsys):
        out = tmp_path / "ab"
        assert cli.main(["ablate", "--config", str(write_cfg(tmp_path)), "--arms", "full",
                         f"--seeds={seeds}", "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert "seed must be >= 0" in capsys.readouterr().err

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
