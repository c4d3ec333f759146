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
import dataclasses
import json
import logging
import sys
import types
import typing
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import cacai, datakit, evalkit, losses, trainer
from .backbone import BackboneConfig
from .errors import CheckpointError, ConfigurationError, HngenError, NumericError

log = logging.getLogger("hngen")

# every key is a field of one of these dataclasses, which hold its default
DEFAULT_CONFIG: dict = {
    "dataset": {**asdict(datakit.FeatureSource()), **asdict(datakit.SyntheticDatasetSpec())},
    "backbone": asdict(BackboneConfig()),
    "train": asdict(trainer.TrainConfig()),
    "eval": asdict(evalkit.EvalConfig()),
}

# the ablation table's scores, each as a mean and a std column over the seeds
ABLATE_METRICS = ("r_at_1", "r_precision", "map_at_r")
ABLATE_HEADER = ["arm", "metric_loss", "n_seeds"] + [
    f"{name}_{stat}" for name in ABLATE_METRICS for stat in ("mean", "std")]


def _merge_config(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigurationError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigurationError(f"config section {where!r} must be a JSON object")
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
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file {config_path}: {exc.strerror}") from exc
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigurationError(f"config file {config_path} must hold a JSON object")
        resolved = _merge_config(resolved, loaded)
    for section, values in (overrides or {}).items():
        clean = {k: v for k, v in values.items() if v is not None}
        if clean:
            resolved = _merge_config(resolved, {section: clean})
    return resolved


def _conforms(value, hint) -> bool:
    """Whether a JSON value has a config field's declared type; an int
    passes for a finite float, a bool for no number."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        return any(_conforms(value, h) for h in args)
    if origin is list:
        return isinstance(value, list) and all(_conforms(v, args[0]) for v in value)
    return trainer._is_finite_real(value) if hint is float else type(value) is hint


def _section(cfg: dict, name: str, cls):
    """Config section ``name`` as the frozen dataclass ``cls``, which checks
    its ranges when built; a wrongly typed value is a ConfigurationError."""
    hints = typing.get_type_hints(cls)
    values = {f.name: cfg[name][f.name] for f in fields(cls)}
    for f in fields(cls):
        if not _conforms(values[f.name], hints[f.name]):
            finite = " (finite)" if "float" in f.type else ""
            raise ConfigurationError(f"{name}.{f.name} must be {f.type}{finite}, got {values[f.name]!r}")
    return cls(**copy.deepcopy(values))


def build_dataset(cfg: dict) -> datakit.Dataset:
    # checked even for a file: the split reads its seed
    spec = _section(cfg, "dataset", datakit.SyntheticDatasetSpec)
    source = _section(cfg, "dataset", datakit.FeatureSource)
    if source.path:
        return datakit.load_features(source.path, source.format)
    return datakit.make_synthetic(spec)


def split_for_eval(cfg: dict, dataset: datakit.Dataset) -> tuple[datakit.Dataset, datakit.Dataset]:
    """Deterministic holdout split derived only from the resolved config."""
    split_rng = np.random.default_rng([cfg["dataset"]["seed"], 0x5B1D])
    return datakit.split_holdout(dataset, cfg["eval"]["holdout_per_class"], split_rng)


def train_config_from(cfg: dict) -> trainer.TrainConfig:
    return _section(cfg, "train", trainer.TrainConfig)


def backbone_config_from(cfg: dict) -> BackboneConfig:
    return _section(cfg, "backbone", BackboneConfig)


def run_dir_for(cfg: dict, out_dir: str) -> Path:
    """Content-addressed run directory: config hash plus seed."""
    h = trainer.config_hash(cfg)
    run_dir = Path(out_dir) / f"{h}-s{cfg['train']['seed']}"
    marker = run_dir / "resolved_config.json"
    if marker.exists():
        try:
            existing = json.loads(marker.read_text())
        except (OSError, ValueError):  # unreadable, bad JSON or bad UTF-8
            existing = None
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
    fmt = datakit.save_features(dataset, args.out, args.format)
    print(f"wrote {len(dataset)} records ({dataset.dim}-dim, "
          f"{spec.num_classes} classes) to {args.out} [{fmt}]")
    return 0


def _fit_one(cfg: dict, out_dir: str, quiet: bool = False) -> tuple[trainer.FitResult, dict]:
    eval_cfg = _section(cfg, "eval", evalkit.EvalConfig)  # a bad K fails before training
    dataset = build_dataset(cfg)
    train_set, val_set = split_for_eval(cfg, dataset)
    tcfg = train_config_from(cfg)
    run_dir = run_dir_for(cfg, out_dir)
    tr = trainer.Trainer(
        train_set, val_set, tcfg, backbone_config_from(cfg), run_dir,
        eval_ks=eval_cfg.ks, resolved_config=cfg,
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
    """The manifest's resolved config, with exactly the keys of DEFAULT_CONFIG
    (every resolved config has them all; merging refuses an unknown one)."""
    cfg = manifest.get("resolved_config")
    if not isinstance(cfg, dict):
        raise CheckpointError(f"{ckpt_dir}: manifest has no embedded config")
    try:
        merged = _merge_config(DEFAULT_CONFIG, cfg)
    except ConfigurationError as exc:
        raise CheckpointError(f"{ckpt_dir}: embedded config: {exc}") from exc
    missing = [f"{s}.{k}" for s, sec in merged.items() for k in sec if k not in cfg.get(s, {})]
    if missing:
        raise CheckpointError(f"{ckpt_dir}: embedded config lacks {', '.join(missing)}")
    return cfg


def _model_from_checkpoint(ckpt_dir: Path):
    """The checkpoint's frozen model, its manifest, its resolved config and
    that config's eval section, checked as for training."""
    manifest = trainer.load_manifest(ckpt_dir)
    cfg = _embedded_config(ckpt_dir, manifest)
    eval_cfg = _section(cfg, "eval", evalkit.EvalConfig)
    tcfg = train_config_from(cfg)
    bcfg = backbone_config_from(cfg)
    codec = losses.ClassCodec(np.array(manifest["class_ids"]))
    # a feature file sets the input dim, not cfg["dataset"]["input_dim"]:
    # read it off the first backbone weight (out, in); identity keeps embed_dim
    first = manifest["tensors"].get("backbone.layers.0.weight")
    input_dim = first[-1] if first else cfg["backbone"]["embed_dim"]
    model = trainer.load_frozen_model(ckpt_dir, tcfg, bcfg, input_dim, codec)
    return model, manifest, cfg, eval_cfg


def cmd_eval(args) -> int:
    if args.gallery and not args.data:
        raise ConfigurationError("--gallery needs --data (the query set)")
    ckpt_dir = Path(args.checkpoint)
    model, manifest, cfg, eval_cfg = _model_from_checkpoint(ckpt_dir)
    if args.ks:  # the flag's Ks follow eval.ks's rule
        eval_cfg = dataclasses.replace(eval_cfg, ks=args.ks)
    if args.config:
        current = resolve_config(args.config)
        if trainer.config_hash(current) != manifest.get("config_hash"):
            log.warning("checkpoint config hash differs from --config; evaluating anyway")

    if args.data:
        queries = datakit.load_features(args.data)
    else:
        _, queries = split_for_eval(cfg, build_dataset(cfg))
    embed = model.backbone.embed_array
    if args.gallery:  # only with --data, checked above
        gallery = datakit.load_features(args.gallery)
        index = evalkit.RetrievalIndex.query_gallery(
            embed(queries.features), queries.labels, embed(gallery.features), gallery.labels)
    else:
        index = evalkit.RetrievalIndex.single_set(embed(queries.features), queries.labels)
    ks = [k for k in eval_cfg.ks if k <= index.effective_gallery_size]
    report = evalkit.evaluate_retrieval(index, ks)

    out_dir = Path(args.out_dir)
    csv_path = out_dir / "metrics.csv"
    header = (["checkpoint", "epoch"] + [f"r_at_{k}" for k in ks]
              + ["r_precision", "map_at_r", "n_queries"])
    existing = None
    if csv_path.exists():
        with open(csv_path, newline="", encoding="utf-8", errors="replace") as fh:
            existing = next(csv.reader(fh), None)
    if existing not in (None, header):
        raise ConfigurationError(
            f"{csv_path} has columns {','.join(existing)}, this run writes "
            f"{','.join(header)}: use another --out-dir"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metric_report.json").write_text(report.to_json())
    with open(csv_path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if existing is None:
            writer.writerow(header)
        writer.writerow(
            [str(ckpt_dir), manifest.get("epoch")]
            + [report.recall_at[k] for k in ks]
            + [report.r_precision, report.map_at_r, report.n_queries]
        )
    print(report.to_json())
    return 0


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_inspect(args) -> int:
    if args.seed < 0:
        raise ConfigurationError("--seed must be >= 0")
    ckpt_dir = Path(args.checkpoint)
    model, manifest, cfg, _ = _model_from_checkpoint(ckpt_dir)
    if not model.cfg.uses_synthetics:
        raise ConfigurationError(
            f"checkpoint arm {model.cfg.ablation!r} synthesizes no negatives to inspect"
        )
    missing = [key for key in ("eta", "avg_metric_loss") if key not in manifest]
    if missing:
        raise CheckpointError(
            f"{ckpt_dir}: manifest stores no schedule state ({', '.join(missing)})"
        )
    dataset = build_dataset(cfg)
    rng = np.random.default_rng(args.seed)
    batch = datakit.sample_balanced(
        dataset, cfg["train"]["batch_classes"], cfg["train"]["batch_instances"], rng
    )
    zb = model.backbone.embed(batch)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    graph = model.propagate_graph(zb)
    _write_csv(out_dir / "attention.csv", ["step", "head", "query_row", "key_col", "weight"], (
        [step, head, i, j, repr(float(probs[head, i, j]))]
        for step, probs in enumerate(graph.attention, start=1)
        for head in range(probs.shape[0])
        for i in range(probs.shape[1])
        for j in range(probs.shape[2])
    ))

    rows, lane = model.lambda_for(zb, graph, every_row=True)
    lam = cacai.lambda_lanes(rows.data, lane)
    counts, edges = np.histogram(lam.ravel(), bins=20, range=(0.0, 1.0))
    _write_csv(out_dir / "lambda_histogram.csv", ["bin_left", "bin_right", "count"], (
        [lo, hi, int(c)] for lo, hi, c in zip(edges[:-1], edges[1:], counts)
    ))

    pos = cacai.select_positives(zb.labels, rng)
    d_plus, d_minus = cacai.pair_distances(zb, pos)
    eta = manifest["eta"]  # what the batch after this checkpoint trains with
    occupancy = lam.mean(axis=2) * eta  # fraction of [d+, d-] gap used
    labels = zb.labels
    _write_csv(out_dir / "interval_occupancy.csv", [
        "anchor", "other", "is_negative", "d_plus", "d_minus", "mean_occupancy", "eta",
    ], (
        [
            i, j, int(labels[i] != labels[j]),
            repr(float(d_plus[i])), repr(float(d_minus[i, j])),
            repr(float(occupancy[i, j])), repr(float(eta)),
        ]
        for i in range(len(labels))
        for j in range(len(labels))
    ))

    z_all = model.backbone.embed_array(dataset.features)
    stats = evalkit.embedding_stats(z_all)
    _write_csv(out_dir / "feature_variance.csv", ["dim", "mean", "variance"], (
        [i, repr(float(mu)), repr(float(var))]
        for i, (mu, var) in enumerate(zip(stats["per_dim_mean"], stats["per_dim_var"]))
    ))

    coords, _ = evalkit.project_2d(z_all)
    _write_csv(out_dir / "projection.csv", ["pc1", "pc2", "label"], (
        [repr(float(row[0])), repr(float(row[1])), int(lab)]
        for row, lab in zip(coords, dataset.labels)
    ))

    print(f"schedule state: eta={eta!r} avg_metric_loss={manifest['avg_metric_loss']!r}")
    print(f"wrote diagnostics to {out_dir}")
    return 0


def _ablate_job(payload: tuple[dict, str]) -> dict:
    cfg, out_dir = payload
    _, final = _fit_one(cfg, out_dir, quiet=True)
    scores = {**final, "r_at_1": final["recall_at"]["1"]}
    return {"arm": cfg["train"]["ablation"], **{name: scores[name] for name in ABLATE_METRICS}}


def cmd_ablate(args) -> int:
    arms = [a.strip() for a in args.arms.split(",") if a.strip()]
    if not arms:
        raise ConfigurationError("--arms names no arm")
    for flag, values in (("--arms", arms), ("--seeds", args.seeds)):
        if len(set(values)) != len(values):
            raise ConfigurationError(f"{flag} lists an entry twice: {values}")
    for arm in arms:
        if arm not in trainer.ABLATION_ARMS:
            raise ConfigurationError(
                f"unknown arm {arm!r}; valid arms: {', '.join(trainer.ABLATION_ARMS)}"
            )
    base = train_config_from(resolve_config(args.config))
    if base.epochs < 1:
        raise ConfigurationError("ablate scores each arm on its last epoch: train.epochs must be >= 1")
    jobs = []
    for arm in arms:
        for seed in args.seeds:
            cfg = resolve_config(args.config, {
                "train": {"ablation": arm, "seed": seed},
            })
            train_config_from(cfg)  # a bad seed fails before any arm trains
            jobs.append((cfg, args.out_dir))

    if args.parallel:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor() as pool:
            rows = list(pool.map(_ablate_job, jobs))
    else:
        rows = [_ablate_job(job) for job in jobs]

    table = []
    for arm in arms:
        vals = [r for r in rows if r["arm"] == arm]
        cells = [arm, base.metric_loss, len(vals)]
        for name in ABLATE_METRICS:
            scores = np.array([v[name] for v in vals])
            cells += [f"{scores.mean():.6f}", f"{scores.std():.6f}"]
        table.append(cells)
    out_path = Path(args.out_dir) / "ablation_table.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out_path, ABLATE_HEADER, table)
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
    p.add_argument("--metric-loss", choices=list(trainer.METRIC_LOSSES))
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
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 3
    except (HngenError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
