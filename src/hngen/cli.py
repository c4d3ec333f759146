"""Command-line entry point.

Subcommands:

* ``synth-data`` writes a synthetic labeled feature file (CSV or binary).
* ``train`` trains one arm from a JSON config, printing a per-epoch
  validation report and writing a content-addressed run directory.
* ``eval`` scores a checkpoint (single-set or query/gallery protocol),
  writing a JSON report and appending a CSV row.
* ``inspect`` dumps diagnostics for one batch: node-attention maps,
  interpolation-vector histogram, interval occupancy, per-dimension
  feature variance, and a 2-D projection, all as CSV.
* ``ablate`` trains several arms over shared seeds and writes a
  mean/std comparison table (schema: ``arm,metric_loss,n_seeds,
  r_at_1_mean,r_at_1_std,r_precision_mean,r_precision_std,
  map_at_r_mean,map_at_r_std``).

Config resolution layers defaults < ``--config`` file < command flags;
unknown keys are rejected. Exit codes: 0 success, 2 configuration error,
3 numeric abort.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import logging
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import cacai, datakit, evalkit, losses, trainer
from .backbone import BackboneConfig
from .errors import (
    CheckpointError,
    ConfigurationError,
    DataFormatError,
    HngenError,
    NumericError,
    SamplingError,
)

log = logging.getLogger("hngen")

# every default lives on its dataclass; only the file-source and eval keys are here
DEFAULT_CONFIG: dict = {
    "dataset": {"path": None, "format": "auto", **asdict(datakit.SyntheticDatasetSpec())},
    "backbone": asdict(BackboneConfig()),
    "train": asdict(trainer.TrainConfig()),
    "eval": {"ks": [1, 2, 4, 8], "holdout_per_class": 10},
}

ABLATE_HEADER = [
    "arm",
    "metric_loss",
    "n_seeds",
    "r_at_1_mean",
    "r_at_1_std",
    "r_precision_mean",
    "r_precision_std",
    "map_at_r_mean",
    "map_at_r_std",
]


def _merge_config(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigurationError(f"unknown config key {where!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge_config(base[key], value, where)
        else:
            out[key] = value
    return out


def resolve_config(config_path: str | None, overrides: dict | None = None) -> dict:
    resolved = copy.deepcopy(DEFAULT_CONFIG)
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text())
        except FileNotFoundError as exc:
            raise ConfigurationError(f"config file not found: {config_path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
        resolved = _merge_config(resolved, loaded)
    for section, values in (overrides or {}).items():
        clean = {k: v for k, v in values.items() if v is not None}
        if clean:
            resolved = _merge_config(resolved, {section: clean})
    return resolved


def _dataset_spec(cfg: dict) -> datakit.SyntheticDatasetSpec:
    d = cfg["dataset"]
    return datakit.SyntheticDatasetSpec(
        **{f.name: d[f.name] for f in fields(datakit.SyntheticDatasetSpec)}
    )


def build_dataset(cfg: dict) -> datakit.Dataset:
    if cfg["dataset"]["path"]:
        return datakit.load_features(cfg["dataset"]["path"], cfg["dataset"]["format"])
    return datakit.make_synthetic(_dataset_spec(cfg))


def split_for_eval(cfg: dict, dataset: datakit.Dataset) -> tuple[datakit.Dataset, datakit.Dataset]:
    """Deterministic holdout split derived only from the resolved config."""
    split_rng = np.random.default_rng([cfg["dataset"]["seed"], 0x5B1D])
    return datakit.split_holdout(dataset, cfg["eval"]["holdout_per_class"], split_rng)


def train_config_from(cfg: dict) -> trainer.TrainConfig:
    return trainer.TrainConfig(**cfg["train"])


def backbone_config_from(cfg: dict) -> BackboneConfig:
    b = cfg["backbone"]
    return BackboneConfig(**{**b, "hidden_dims": list(b["hidden_dims"])})


def run_dir_for(cfg: dict, out_dir: str) -> Path:
    """Content-addressed run directory: config hash plus seed."""
    h = trainer.config_hash(cfg)
    run_dir = Path(out_dir) / f"{h}-s{cfg['train']['seed']}"
    marker = run_dir / "resolved_config.json"
    if marker.exists():
        existing = json.loads(marker.read_text())
        if existing != cfg:
            raise ConfigurationError(
                f"run dir {run_dir} holds a different resolved config; "
                "refusing to overwrite"
            )
    return run_dir


# -- subcommands ----------------------------------------------------------------


def cmd_synth_data(args) -> int:
    spec = datakit.SyntheticDatasetSpec(
        num_classes=args.classes,
        samples_per_class=args.per_class,
        input_dim=args.dim,
        class_center_scale=args.center_scale,
        within_class_stddev=args.stddev,
        overlap_factor=args.overlap,
        seed=args.seed,
    )
    dataset = datakit.make_synthetic(spec)
    fmt = args.format
    if fmt == "auto":
        fmt = "binary" if str(args.out).endswith(".bin") else "csv"
    datakit.save_features(dataset, args.out, fmt)
    print(f"wrote {len(dataset)} records ({dataset.dim}-dim, "
          f"{spec.num_classes} classes) to {args.out} [{fmt}]")
    return 0


def _check_eval_section(cfg: dict) -> None:
    """Range checks on the eval settings, so a bad one fails before training."""
    ks, holdout = cfg["eval"]["ks"], cfg["eval"]["holdout_per_class"]

    def positive_int(value) -> bool:
        return isinstance(value, int) and not isinstance(value, bool) and value >= 1

    if not isinstance(ks, list) or not all(positive_int(k) for k in ks):
        raise ConfigurationError(f"eval.ks must be a list of integers >= 1, got {ks!r}")
    if not positive_int(holdout):
        raise ConfigurationError(f"eval.holdout_per_class must be an integer >= 1, got {holdout!r}")


def _fit_one(cfg: dict, out_dir: str, quiet: bool = False) -> tuple[trainer.FitResult, dict]:
    _check_eval_section(cfg)
    dataset = build_dataset(cfg)
    train_set, val_set = split_for_eval(cfg, dataset)
    tcfg = train_config_from(cfg)
    run_dir = run_dir_for(cfg, out_dir)
    tr = trainer.Trainer(
        train_set, val_set, tcfg, backbone_config_from(cfg), run_dir,
        eval_ks=cfg["eval"]["ks"], resolved_config=cfg,
    )

    def show(entry: dict) -> None:
        recs = " ".join(f"R@{k}={v:.4f}" for k, v in sorted(
            ((int(k), v) for k, v in entry["recall_at"].items())))
        print(f"epoch {entry['epoch']:3d}  {recs}  RP={entry['r_precision']:.4f} "
              f"M@R={entry['map_at_r']:.4f}")

    result = tr.fit(on_epoch=None if quiet else show)
    final = result.history[-1] if result.history else {}
    return result, final


def cmd_train(args) -> int:
    cfg = resolve_config(args.config, {
        "train": {
            "ablation": args.ablation,
            "metric_loss": args.metric_loss,
            "epochs": args.epochs,
            "seed": args.seed,
        }
    })
    result, final = _fit_one(cfg, args.out_dir)
    print(f"run dir: {result.run_dir}")
    if final:
        print(f"final: {json.dumps(final, sort_keys=True)}")
    return 0


def _embedded_config(ckpt_dir: Path, manifest: dict) -> dict:
    """The manifest's resolved config, with exactly the sections and keys of
    DEFAULT_CONFIG (every resolved config has them all)."""
    cfg = manifest.get("resolved_config")
    if not cfg or not isinstance(cfg, dict):
        raise CheckpointError(f"{ckpt_dir}: manifest has no embedded config")
    for section, defaults in DEFAULT_CONFIG.items():
        values = cfg.get(section)
        if not isinstance(values, dict):
            raise CheckpointError(f"{ckpt_dir}: embedded config has no {section!r} section")
        if values.keys() != defaults.keys():
            odd = sorted(values.keys() ^ defaults.keys())
            raise CheckpointError(
                f"{ckpt_dir}: embedded {section!r} config has unknown or missing keys {odd}"
            )
    return cfg


def _model_from_checkpoint(ckpt_dir: Path):
    manifest = trainer.load_manifest(ckpt_dir)
    cfg = _embedded_config(ckpt_dir, manifest)
    if "class_ids" not in manifest:
        raise CheckpointError(f"{ckpt_dir}: manifest has no class_ids")
    tcfg = train_config_from(cfg)
    tcfg.validate()
    bcfg = backbone_config_from(cfg)
    bcfg.validate()
    codec = losses.ClassCodec(np.array(manifest["class_ids"]))
    # a feature file sets the input dim, not cfg["dataset"]["input_dim"]:
    # read it off the first backbone weight (out, in); identity keeps embed_dim
    first = manifest["groups"].get("backbone", {}).get("layers.0.weight")
    input_dim = first[-1] if first else cfg["backbone"]["embed_dim"]
    model = trainer.HngModel(tcfg, bcfg, input_dim, codec, np.random.default_rng(0))
    trainer.load_checkpoint(ckpt_dir, model)
    return model, manifest, cfg


def cmd_eval(args) -> int:
    ckpt_dir = Path(args.checkpoint)
    model, manifest, cfg = _model_from_checkpoint(ckpt_dir)
    if args.config:
        current = resolve_config(args.config)
        if trainer.config_hash(current) != manifest.get("config_hash"):
            log.warning("checkpoint config hash differs from --config; evaluating anyway")

    ks = args.ks or cfg["eval"]["ks"]
    if args.data:
        dataset = datakit.load_features(args.data)
        if args.gallery:
            gallery = datakit.load_features(args.gallery)
            index = evalkit.RetrievalIndex.query_gallery(
                model.backbone.embed_array(dataset.features), dataset.labels,
                model.backbone.embed_array(gallery.features), gallery.labels,
            )
        else:
            index = evalkit.RetrievalIndex.single_set(
                model.backbone.embed_array(dataset.features), dataset.labels
            )
    else:
        _, val_set = split_for_eval(cfg, build_dataset(cfg))
        index = evalkit.RetrievalIndex.single_set(
            model.backbone.embed_array(val_set.features), val_set.labels
        )
    ks = [k for k in ks if k <= index.effective_gallery_size]
    report = evalkit.evaluate_retrieval(index, ks)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "metric_report.json"
    report_path.write_text(report.to_json())
    csv_path = out_dir / "metrics.csv"
    header = (["checkpoint", "epoch"] + [f"r_at_{k}" for k in ks]
              + ["r_precision", "map_at_r", "n_queries"])
    new_file = not csv_path.exists()
    with open(csv_path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(header)
        writer.writerow(
            [str(ckpt_dir), manifest.get("epoch")]
            + [report.recall_at[k] for k in ks]
            + [report.r_precision, report.map_at_r, report.n_queries]
        )
    print(report.to_json())
    return 0


def cmd_inspect(args) -> int:
    ckpt_dir = Path(args.checkpoint)
    model, manifest, cfg = _model_from_checkpoint(ckpt_dir)
    if model.graph is None:
        raise ConfigurationError(
            f"checkpoint arm {manifest.get('ablation')!r} has no graph to inspect"
        )
    dataset = build_dataset(cfg)
    rng = np.random.default_rng(args.seed)
    batch = datakit.sample_balanced(
        dataset, cfg["train"]["batch_classes"], cfg["train"]["batch_instances"], rng
    )
    zb = model.backbone.embed(batch, mode="eval")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    graph = model.propagate_graph(zb)
    with open(out_dir / "attention.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "head", "query_row", "key_col", "weight"])
        for step, probs in enumerate(graph.attention, start=1):
            h, b, _ = probs.shape
            for head in range(h):
                for i in range(b):
                    for j in range(b):
                        writer.writerow([step, head, i, j, repr(float(probs[head, i, j]))])

    lam = model.lambda_for(graph)
    counts, edges = np.histogram(lam.data.ravel(), bins=20, range=(0.0, 1.0))
    with open(out_dir / "lambda_histogram.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right", "count"])
        for lo, hi, c in zip(edges[:-1], edges[1:], counts):
            writer.writerow([lo, hi, int(c)])

    pos = cacai.select_positives(zb.labels, rng)
    d_plus, d_minus = cacai.pair_distances(zb, pos)
    if "eta" not in manifest:
        raise CheckpointError(f"{ckpt_dir}: manifest stores no schedule state (eta)")
    eta = manifest["eta"]  # what the batch after this checkpoint trains with
    occupancy = lam.data.mean(axis=2) * eta  # fraction of [d+, d-] gap used
    with open(out_dir / "interval_occupancy.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["anchor", "other", "is_negative", "d_plus", "d_minus",
                        "mean_occupancy", "eta"])
        labels = zb.labels
        for i in range(len(labels)):
            for j in range(len(labels)):
                writer.writerow([
                    i, j, int(labels[i] != labels[j]),
                    repr(float(d_plus.data[i])), repr(float(d_minus.data[i, j])),
                    repr(float(occupancy[i, j])), repr(float(eta)),
                ])

    z_all = model.backbone.embed_array(dataset.features)
    stats = evalkit.embedding_stats(z_all)
    with open(out_dir / "feature_variance.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dim", "mean", "variance"])
        for i, (mu, var) in enumerate(zip(stats["per_dim_mean"], stats["per_dim_var"])):
            writer.writerow([i, repr(float(mu)), repr(float(var))])

    coords, _ = evalkit.project_2d(z_all)
    with open(out_dir / "projection.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pc1", "pc2", "label"])
        for row, lab in zip(coords, dataset.labels):
            writer.writerow([repr(float(row[0])), repr(float(row[1])), int(lab)])

    print(f"schedule state: eta={eta!r} avg_metric_loss={manifest['avg_metric_loss']!r}")
    print(f"wrote diagnostics to {out_dir}")
    return 0


def _ablate_job(payload: tuple[dict, str]) -> dict:
    cfg, out_dir = payload
    _, final = _fit_one(cfg, out_dir, quiet=True)
    return {
        "arm": cfg["train"]["ablation"],
        "seed": cfg["train"]["seed"],
        "r_at_1": final["recall_at"].get("1", 0.0) if final else 0.0,
        "r_precision": final.get("r_precision", 0.0),
        "map_at_r": final.get("map_at_r", 0.0),
    }


def cmd_ablate(args) -> int:
    arms = [a.strip() for a in args.arms.split(",") if a.strip()]
    for arm in arms:
        if arm not in trainer.ABLATION_ARMS:
            raise ConfigurationError(
                f"unknown arm {arm!r}; valid arms: {', '.join(trainer.ABLATION_ARMS)}"
            )
    jobs = []
    for arm in arms:
        for seed in args.seeds:
            cfg = resolve_config(args.config, {
                "train": {"ablation": arm, "seed": seed},
            })
            jobs.append((cfg, args.out_dir))

    if args.parallel:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor() as pool:
            rows = list(pool.map(_ablate_job, jobs))
    else:
        rows = [_ablate_job(job) for job in jobs]

    out_path = Path(args.out_dir) / "ablation_table.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    metric_loss = resolve_config(args.config)["train"]["metric_loss"]
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ABLATE_HEADER)
        for arm in arms:
            vals = [r for r in rows if r["arm"] == arm]
            r1 = np.array([v["r_at_1"] for v in vals])
            rp = np.array([v["r_precision"] for v in vals])
            mp = np.array([v["map_at_r"] for v in vals])
            writer.writerow([
                arm, metric_loss, len(vals),
                f"{r1.mean():.6f}", f"{r1.std():.6f}",
                f"{rp.mean():.6f}", f"{rp.std():.6f}",
                f"{mp.mean():.6f}", f"{mp.std():.6f}",
            ])
    print(out_path.read_text().rstrip())
    return 0


# -- argument parsing -------------------------------------------------------------


def _int_list(text: str) -> list[int]:
    """argparse type for comma-separated integers such as ``1,2,4``."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hngen",
        description="Hard-negative generation for deep metric learning",
    )
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])
    parser.add_argument("--config", dest="global_config",
                        help="config file, usable before the subcommand")
    parser.add_argument("--seed", dest="global_seed", type=int,
                        help="seed override, usable before the subcommand")
    parser.add_argument("--out-dir", dest="global_out_dir",
                        help="output directory, usable before the subcommand")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="write a synthetic labeled feature file")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    spec = datakit.SyntheticDatasetSpec()
    p.add_argument("--center-scale", type=float, default=spec.class_center_scale)
    p.add_argument("--stddev", type=float, default=spec.within_class_stddev)
    p.add_argument("--overlap", type=float, default=spec.overlap_factor)
    p.add_argument("--format", default="auto", choices=["auto", "csv", "binary"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("train", help="train one arm from a config")
    p.add_argument("--config")
    p.add_argument("--ablation", choices=list(trainer.ABLATION_ARMS))
    p.add_argument("--metric-loss", choices=["np_modified", "proxy_anchor"])
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_train, default_out_dir="runs")

    p = sub.add_parser("eval", help="score a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config")
    p.add_argument("--data", help="feature file to evaluate (default: the run's holdout)")
    p.add_argument("--gallery", help="separate gallery feature file (query/gallery mode)")
    p.add_argument("--ks", type=_int_list, help="comma-separated recall cutoffs")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_eval, default_out_dir="eval_out")

    p = sub.add_parser("inspect", help="dump diagnostics for one batch")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_inspect, default_out_dir="inspect_out")

    p = sub.add_parser("ablate", help="train and compare ablation arms")
    p.add_argument("--config")
    p.add_argument("--arms", required=True)
    p.add_argument("--seeds", type=_int_list, default="1,2,3")
    p.add_argument("--parallel", action="store_true")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_ablate, default_out_dir="ablate_out")

    return parser


def _apply_global_flags(args) -> None:
    """Fold pre-subcommand --config/--seed/--out-dir into the subcommand's
    namespace; a flag given after the subcommand wins."""
    if hasattr(args, "config") and args.config is None:
        args.config = args.global_config
    if hasattr(args, "seed") and args.seed is None:
        if args.global_seed is not None:
            args.seed = args.global_seed
        elif args.command in ("synth-data", "inspect"):
            args.seed = 0
    if hasattr(args, "out_dir") and args.out_dir is None:
        args.out_dir = args.global_out_dir or args.default_out_dir


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level.upper())
    _apply_global_flags(args)
    try:
        return args.func(args)
    except (ConfigurationError, DataFormatError, SamplingError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 3
    except HngenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
