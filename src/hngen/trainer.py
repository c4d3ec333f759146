"""Two-stage training orchestration, schedules, and checkpoints.

Every batch runs the stop-gradient protocol: stage 1 builds the graph on
detached embeddings, synthesizes negatives, and updates the graph network
and interpolation head on the generator objective and the real-sample head
on its own loss; the two objectives share no parameter, so one backward of
their sum and one step do both. Stage 2 rebuilds the graph with gradients
flowing, synthesizes with detached interpolation vectors, and updates the
backbone, graph network, node head, and proxies on the composite metric
objective. One AdamW holds every parameter, in groups named after the
learning-rate fields of ``TrainConfig``, and steps once per stage.
Where the stop-gradients sit decides what moves: the optimizer skips a
parameter with no gradient, keeping its data, moments and step count. So the
backbone never moves in stage 1, and the interpolation head, and at K=1 the
last edge block (which feeds only the detached interpolation vectors), move
only in stage 1.

Schedules: the interpolation interval factor eta is recomputed from the
previous epoch's mean metric loss (bootstrapped from the running mean
during the first epoch); the synthetic-term weight uses an EMA of the
generator loss, refreshed every step. The graph network's learning rate
follows cosine decay over epochs; like the fusion order and the raw
synthetics of ``cacai.synthesize``, this is fixed, not a setting.

Checkpoints are directories with a JSON manifest and one binary blob per
parameter group, written beside the target and renamed into place; loading
is bit-exact.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import shutil
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import cacai, datakit, evalkit, gcl, losses
from .backbone import Backbone, BackboneConfig, EmbeddingBatch
from .errors import CheckpointError, ConfigurationError, NumericError

ABLATION_ARMS = (
    "full",
    "single_coeff",
    "no_global",
    "no_hadamard",
    "no_rw",
    "baseline",
    "baseline_gnn",
)
_SYNTH_ARMS = {"full", "single_coeff", "no_global", "no_hadamard", "no_rw"}
CHECKPOINT_MAGIC = b"HNGP"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_classes: int = 4
    batch_instances: int = 3
    lr_f: float = 1.5e-4
    lr_g: float = 3e-4
    lr_cz: float = 1e-3
    lr_cv: float = 3e-4
    weight_decay: float = 1e-4
    alpha_pull: float = 5.0
    beta: float = 2.0
    gamma_s: float = 1.0
    gamma_d: float | None = None  # resolved per metric loss when unset
    k_steps: int = 1
    heads: int = 2
    ffn_expansion: int = 4
    share_weights_across_steps: bool = True
    metric_loss: str = "np_modified"
    ablation: str = "full"
    seed: int = 0
    pa_alpha: float = 32.0
    pa_margin: float = 0.1
    gen_ema_decay: float = 0.9
    early_stop_patience: int | None = None

    def validate(self) -> None:
        """Every range check on a training setting; the modules that take
        these settings assume they passed."""
        if self.epochs < 0:
            raise ConfigurationError("epochs must be >= 0")
        if self.batch_classes < 2:
            raise ConfigurationError("batch_classes must be >= 2")
        if self.batch_instances < 2:
            raise ConfigurationError("batch_instances must be >= 2")
        for name in ("lr_f", "lr_g", "lr_cz", "lr_cv"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.weight_decay < 0:
            raise ConfigurationError("weight_decay must be >= 0")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            raise ConfigurationError("early_stop_patience must be null or >= 1")
        if self.metric_loss not in ("np_modified", "proxy_anchor"):
            raise ConfigurationError(f"unknown metric_loss {self.metric_loss!r}")
        if self.ablation not in ABLATION_ARMS:
            raise ConfigurationError(
                f"unknown ablation {self.ablation!r}; valid arms: {', '.join(ABLATION_ARMS)}"
            )
        if not 0.0 <= self.gen_ema_decay < 1.0:
            raise ConfigurationError("gen_ema_decay must lie in [0, 1)")
        for name in ("k_steps", "heads", "ffn_expansion"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        for name, value in (("gamma_s", self.gamma_s), ("gamma_d", self.resolved_gamma_d())):
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(f"{name} must be finite and >= 0")

    def resolved_gamma_d(self) -> float:
        if self.gamma_d is not None:
            return self.gamma_d
        return 0.01 if self.metric_loss == "proxy_anchor" else 0.03

    @property
    def uses_synthetics(self) -> bool:
        return self.ablation in _SYNTH_ARMS

    @property
    def uses_graph(self) -> bool:
        return self.ablation in _SYNTH_ARMS or self.ablation == "baseline_gnn"


@dataclass
class RunState:
    epoch: int = 0
    step: int = 0
    eta: float = 1.0
    avg_metric_loss: float | None = None  # last finished epoch
    epoch_loss_sum: float = 0.0
    epoch_loss_count: int = 0
    gen_ema: float | None = None
    gamma_n: float | None = None


def eta_for_batch(cfg: TrainConfig, state: RunState) -> float:
    """Interval factor for the coming batch; frozen while the batch runs.

    After the first epoch this is a per-epoch constant from the previous
    epoch's mean metric loss; during the first epoch it bootstraps from the
    running mean of the metric losses seen so far (widest interval before
    any signal exists).
    """
    if state.avg_metric_loss is not None:
        j_avg = state.avg_metric_loss
    elif state.epoch_loss_count > 0:
        j_avg = state.epoch_loss_sum / state.epoch_loss_count
    else:
        j_avg = None
    return cacai.eta_from_avg_loss(cfg.alpha_pull, j_avg)


def record_metric_loss(state: RunState, value: float) -> None:
    state.epoch_loss_sum += float(value)
    state.epoch_loss_count += 1


def finish_epoch_schedules(cfg: TrainConfig, state: RunState) -> None:
    """Epoch boundary: fold the epoch's mean metric loss into the eta driver."""
    if state.epoch_loss_count > 0:
        state.avg_metric_loss = state.epoch_loss_sum / state.epoch_loss_count
    state.epoch_loss_sum = 0.0
    state.epoch_loss_count = 0
    state.eta = cacai.eta_from_avg_loss(cfg.alpha_pull, state.avg_metric_loss)


def update_gen_tracker(cfg: TrainConfig, state: RunState, gen_loss: float) -> float:
    """EMA the generator loss (detached) and refresh gamma_n from it."""
    if state.gen_ema is None:
        state.gen_ema = float(gen_loss)
    else:
        d = cfg.gen_ema_decay
        state.gen_ema = d * state.gen_ema + (1.0 - d) * float(gen_loss)
    state.gamma_n = losses.gamma_n_from_gen(cfg.beta, state.gen_ema)
    return state.gamma_n


def cosine_lr(base: float, epoch: int, total_epochs: int) -> float:
    if total_epochs <= 1:
        return base
    frac = min(max(epoch / (total_epochs - 1), 0.0), 1.0)
    return base * 0.5 * (1.0 + np.cos(np.pi * frac))


def _params_of(module: ad.Module | None) -> list[ad.Tensor]:
    return module.parameters() if module is not None else []


class HngModel(ad.Module):
    """All trainable components for one ablation arm; ``cfg`` must have
    passed ``TrainConfig.validate``."""

    def __init__(
        self,
        cfg: TrainConfig,
        backbone_cfg: BackboneConfig,
        input_dim: int,
        codec: losses.ClassCodec,
        rng: np.random.Generator,
    ):
        self.cfg = cfg
        self.codec = codec
        self.backbone = Backbone(backbone_cfg, input_dim, rng)
        dim = backbone_cfg.embed_dim
        self.graph: gcl.GraphNet | None = None
        self.lambda_head: cacai.LambdaHead | None = None
        self.head_cz: losses.ClassifierHead | None = None
        self.head_cv: losses.ClassifierHead | None = None
        self.proxies: losses.ProxyBank | None = None
        if cfg.uses_graph:
            self.graph = gcl.GraphNet(
                dim,
                rng,
                k_steps=cfg.k_steps,
                heads=cfg.heads,
                ffn_expansion=cfg.ffn_expansion,
                share_weights_across_steps=cfg.share_weights_across_steps,
            )
            self.head_cv = losses.ClassifierHead("C_v", codec.num_classes, dim, rng)
        if cfg.uses_synthetics:
            self.head_cz = losses.ClassifierHead("C_z", codec.num_classes, dim, rng)
            if cfg.ablation != "single_coeff":
                self.lambda_head = cacai.LambdaHead(dim, rng)
        if cfg.metric_loss == "proxy_anchor":
            self.proxies = losses.ProxyBank(
                codec.num_classes, dim, rng, alpha=cfg.pa_alpha, margin=cfg.pa_margin
            )

    def parameter_groups(self) -> dict[str, dict[str, ad.Tensor]]:
        groups: dict[str, dict[str, ad.Tensor]] = {
            "backbone": self.backbone.named_parameters()
        }
        if self.graph is not None:
            groups["gcl"] = self.graph.named_parameters()
        if self.lambda_head is not None:
            groups["cacai_fc"] = self.lambda_head.named_parameters()
        heads: dict[str, ad.Tensor] = {}
        if self.head_cz is not None:
            heads.update({f"cz.{k}": v for k, v in self.head_cz.named_parameters().items()})
        if self.head_cv is not None:
            heads.update({f"cv.{k}": v for k, v in self.head_cv.named_parameters().items()})
        if heads:
            groups["heads"] = heads
        if self.proxies is not None:
            groups["proxies"] = self.proxies.named_parameters()
        return groups

    def generator_params(self) -> list[ad.Tensor]:
        return _params_of(self.graph) + _params_of(self.lambda_head)

    def propagate_graph(self, zb: EmbeddingBatch) -> gcl.CorrelationGraph:
        assert self.graph is not None
        return self.graph.propagate(
            gcl.init_graph(zb),
            node_propagation=self.cfg.ablation != "no_global",
            include_edge_sum=self.cfg.ablation != "no_hadamard",
        )

    def lambda_for(self, graph: gcl.CorrelationGraph) -> ad.Tensor:
        """Interpolation vectors (B, B, D) for every ordered pair, from the
        final edges mirrored; the single-coefficient arm replaces them with
        the constant 1."""
        b, d = graph.size, graph.dim
        if self.cfg.ablation == "single_coeff":
            return ad.Tensor(np.ones((b, b, d)))
        assert self.lambda_head is not None
        return ad.mirror_pairs(self.lambda_head(graph.e), b)

    def synthesize(
        self, zb: EmbeddingBatch, lam: ad.Tensor, eta: float,
        rng: np.random.Generator, positive_idx: np.ndarray,
    ) -> cacai.SyntheticNegatives:
        """``cacai.synthesize`` with this arm's fusion."""
        return cacai.synthesize(
            zb, lam, eta, rng, positive_idx, pick_single=self.cfg.ablation == "no_rw"
        )

    def metric_loss_term(self, zb: EmbeddingBatch) -> ad.Tensor:
        if self.cfg.metric_loss == "proxy_anchor":
            assert self.proxies is not None
            return losses.pa_loss(zb.z, zb.labels, self.proxies, self.codec)
        return losses.np_loss(zb.z, zb.labels, zb.n_classes, zb.n_instances)


@dataclass
class FitResult:
    run_dir: Path
    history: list[dict] = field(default_factory=list)
    checkpoint_dirs: list[Path] = field(default_factory=list)
    log_path: Path | None = None


def _keep_heap_top_mapped() -> None:
    """Stop glibc from handing freed heap memory back to the OS every step.

    A step allocates and frees its temporaries at the top of the heap: a
    few MB at the smoke size, hundreds of MB at B=80. With nothing
    long-lived allocated above them, glibc trims that memory when the step
    ends, and the next step faults every page in again (hundreds of minor
    faults per smoke step, tens of thousands per B=80 step). So arrays up to
    32 MiB, glibc's own ceiling for its dynamic threshold, come from the
    heap, and the heap is never trimmed: the process keeps its peak, which
    the next step reuses. A C library without ``mallopt`` is left alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 2**31 - 1)  # M_TRIM_THRESHOLD: never trim


class Trainer:
    def __init__(
        self,
        train_set: datakit.Dataset,
        val_set: datakit.Dataset | None,
        cfg: TrainConfig,
        backbone_cfg: BackboneConfig,
        run_dir: Path,
        eval_ks: list[int] | None = None,
        resolved_config: dict | None = None,
    ):
        cfg.validate()
        backbone_cfg.validate()
        if len(train_set) < cfg.batch_classes * cfg.batch_instances:
            raise ConfigurationError("dataset smaller than one batch")
        _keep_heap_top_mapped()
        self.cfg = cfg
        self.backbone_cfg = backbone_cfg
        self.train_set = train_set
        self.val_set = val_set
        self.run_dir = Path(run_dir)
        self.eval_ks = eval_ks or evalkit.EvalConfig().ks
        self.resolved_config = resolved_config or {}
        self.codec = losses.ClassCodec(train_set.labels)

        root = np.random.default_rng(cfg.seed)
        seeds = root.integers(0, 2**63 - 1, size=4)
        self.init_rng = np.random.default_rng(seeds[0])
        self.sampler_rng = np.random.default_rng(seeds[1])
        self.synth_rng = np.random.default_rng(seeds[2])
        self.positive_rng = np.random.default_rng(seeds[3])

        self.model = HngModel(cfg, backbone_cfg, train_set.dim, self.codec, self.init_rng)
        self.state = RunState()
        m = self.model
        # proxies train at the backbone rate
        self.opt = ad.AdamW({
            "lr_f": (m.backbone.parameters() + _params_of(m.proxies), cfg.lr_f),
            "lr_g": (m.generator_params(), cfg.lr_g),
            "lr_cz": (_params_of(m.head_cz), cfg.lr_cz),
            "lr_cv": (_params_of(m.head_cv), cfg.lr_cv),
        }, cfg.weight_decay)

    # -- stages ---------------------------------------------------------------

    def _stage1(self, zb_sg: EmbeddingBatch, positive_idx: np.ndarray, eta: float) -> dict:
        """Generator and real-head updates on detached embeddings; the two
        objectives share no parameter, so one backward and one step do both."""
        cfg, model = self.cfg, self.model
        graph = model.propagate_graph(zb_sg)
        lam = model.lambda_for(graph)
        synth = model.synthesize(zb_sg, lam, eta, self.synth_rng, positive_idx)
        gen_loss, parts = losses.j_gen(
            zb_sg.z, synth, lam, model.head_cz, self.codec,
            gamma_s=cfg.gamma_s, gamma_d=cfg.resolved_gamma_d(),
        )
        cz_loss = losses.j_cz(zb_sg.z, zb_sg.labels, model.head_cz, self.codec)
        (gen_loss + cz_loss).backward()
        self.opt.step()
        self.opt.zero_grad()
        return {"j_gen": float(gen_loss.data), "j_cz": float(cz_loss.data), **parts}

    def _stage2(self, zb: EmbeddingBatch, positive_idx: np.ndarray, eta: float) -> dict:
        """Joint metric update; the lambda pathway carries no gradient."""
        cfg, model = self.cfg, self.model
        out: dict = {}
        j_r = model.metric_loss_term(zb)
        total = j_r
        out["j_r"] = float(j_r.data)
        if cfg.uses_graph:
            graph = model.propagate_graph(zb)
            gca = losses.j_gca(graph.v, zb.labels, model.head_cv, self.codec)
            total = total + gca
            out["j_gca"] = float(gca.data)
            if cfg.uses_synthetics:
                lam_sg = model.lambda_for(graph).detach()
                synth = model.synthesize(zb, lam_sg, eta, self.synth_rng, positive_idx)
                syn = losses.j_syn(zb.z, positive_idx, synth)
                gamma_n = self.state.gamma_n if self.state.gamma_n is not None else 0.0
                total = total + (1.0 - gamma_n) * syn
                out["j_syn"] = float(syn.data)
        total.backward()
        self.opt.step()
        self.opt.zero_grad()
        out["j_m"] = float(total.data)
        return out

    # -- steps and epochs -------------------------------------------------------

    def train_step(self, batch: datakit.LabeledBatch) -> losses.LossReport:
        cfg = self.cfg
        eta = self.state.eta = eta_for_batch(cfg, self.state)
        zb = self.model.backbone.embed(batch, mode="train")
        positive_idx = cacai.select_positives(zb.labels, self.positive_rng)
        terms: dict = {}
        if cfg.uses_synthetics:
            zb_sg = EmbeddingBatch(zb.z.detach(), zb.labels, zb.n_classes, zb.n_instances)
            terms = self._stage1(zb_sg, positive_idx, eta)
            terms["gamma_n"] = update_gen_tracker(cfg, self.state, terms["j_gen"])
        terms.update(self._stage2(zb, positive_idx, eta))
        report = losses.LossReport(
            step=self.state.step, epoch=self.state.epoch, eta=eta,
            lr_g=self.opt.lr["lr_g"] if self.model.graph is not None else None, **terms,
        )

        try:
            report.assert_finite()
        except ValueError as exc:
            self._dump_diagnostics(report, str(exc))
            raise NumericError(f"aborting step {self.state.step}: {exc}") from exc

        record_metric_loss(self.state, report.j_r)
        self.state.step += 1
        return report

    def _dump_diagnostics(self, report: losses.LossReport, reason: str) -> None:
        self.run_dir.mkdir(parents=True, exist_ok=True)
        norms = {
            f"{g}.{name}": float(np.linalg.norm(p.data))
            for g, params in self.model.parameter_groups().items()
            for name, p in params.items()
        }
        payload = {
            "reason": reason,
            "report": report.to_dict(),
            "param_norms": norms,
        }
        (self.run_dir / "numeric_abort.json").write_text(json.dumps(payload, indent=2))

    def _evaluate_checkpoint(self, ckpt_dir: Path) -> evalkit.MetricReport:
        """Validation retrieval on the just-saved snapshot, never live params."""
        model = HngModel(
            self.cfg, self.backbone_cfg, self.train_set.dim, self.codec,
            np.random.default_rng(0),
        )
        load_checkpoint(ckpt_dir, model)
        z = model.backbone.embed_array(self.val_set.features)
        index = evalkit.RetrievalIndex.single_set(z, self.val_set.labels)
        ks = [k for k in self.eval_ks if k <= index.effective_gallery_size]
        # early stopping reads R@1 whatever eval.ks lists
        return evalkit.evaluate_retrieval(index, ks if 1 in ks else [1] + ks)

    def fit(self, on_epoch=None) -> FitResult:
        cfg = self.cfg
        self.run_dir.mkdir(parents=True, exist_ok=True)
        (self.run_dir / "resolved_config.json").write_text(
            json.dumps(self.resolved_config, indent=2, sort_keys=True)
        )
        log_path = self.run_dir / "train_log.jsonl"
        result = FitResult(run_dir=self.run_dir, log_path=log_path)
        ckpt_root = self.run_dir / "checkpoints"
        steps_per_epoch = len(self.train_set) // (cfg.batch_classes * cfg.batch_instances)

        initial = ckpt_root / "epoch_000"
        save_checkpoint(initial, self.model, self._manifest(epoch=0, history=[]))
        result.checkpoint_dirs.append(initial)

        best_r1 = -1.0
        stale = 0
        with open(log_path, "w", encoding="utf-8") as log:
            for epoch in range(cfg.epochs):
                self.state.epoch = epoch
                self.opt.lr["lr_g"] = cosine_lr(cfg.lr_g, epoch, cfg.epochs)
                for _ in range(steps_per_epoch):
                    batch = datakit.sample_balanced(
                        self.train_set, cfg.batch_classes, cfg.batch_instances,
                        self.sampler_rng,
                    )
                    report = self.train_step(batch)
                    report.timestamp = _timestamp()
                    log.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
                finish_epoch_schedules(cfg, self.state)

                ckpt = ckpt_root / f"epoch_{epoch + 1:03d}"
                save_checkpoint(ckpt, self.model, self._manifest(epoch + 1, result.history))
                result.checkpoint_dirs.append(ckpt)
                if self.val_set is not None:
                    metrics = self._evaluate_checkpoint(ckpt)
                    entry = {"epoch": epoch + 1, **metrics.to_dict()}
                    result.history.append(entry)
                    if on_epoch is not None:
                        on_epoch(entry)
                    r1 = metrics.recall_at[1]
                    if r1 > best_r1 + 1e-12:
                        best_r1, stale = r1, 0
                    else:
                        stale += 1
                    if (
                        cfg.early_stop_patience is not None
                        and stale >= cfg.early_stop_patience
                    ):
                        break
        (self.run_dir / "history.json").write_text(json.dumps(result.history, indent=2))
        return result

    def _manifest(self, epoch: int, history: list[dict]) -> dict:
        return {
            "format_version": CHECKPOINT_VERSION,
            "config_hash": config_hash(self.resolved_config),
            "resolved_config": self.resolved_config,
            "ablation": self.cfg.ablation,
            "metric_loss": self.cfg.metric_loss,
            "epoch": epoch,
            "metric_history": list(history),
            "class_ids": self.codec.ids.tolist(),
            "dtype": "float64",
            "eta": self.state.eta,
            "avg_metric_loss": self.state.avg_metric_loss,
        }


def _timestamp() -> str:
    t = time.time()
    base = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(t))
    return f"{base}.{int((t % 1) * 1e6):06d}Z"


def config_hash(resolved_config: dict) -> str:
    blob = json.dumps(resolved_config, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# -- checkpoint serialization ---------------------------------------------------

_DTYPE_CODES = {np.dtype("<f8"): 8, np.dtype("<f4"): 4}
_CODE_DTYPES = {8: np.dtype("<f8"), 4: np.dtype("<f4")}


def _write_group(path: Path, params: dict[str, ad.Tensor]) -> None:
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        names = sorted(params)
        sample_dtype = params[names[0]].data.dtype if names else np.dtype("<f8")
        code = _DTYPE_CODES[np.dtype(sample_dtype.str.replace(">", "<"))]
        fh.write(struct.pack("<III", CHECKPOINT_VERSION, code, len(names)))
        for name in names:
            data = np.ascontiguousarray(params[name].data, dtype=_CODE_DTYPES[code])
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}Q", *data.shape))
            fh.write(data.tobytes())


def _read_group(path: Path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int) -> bytes:
            # a corrupt dim can ask for more than the file holds; never try
            if n > size - fh.tell():
                raise CheckpointError(f"{path}: truncated or corrupt parameter blob")
            return fh.read(n)

        if read(4) != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad parameter blob magic")
        version, code, count = struct.unpack("<III", read(12))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: checkpoint version {version} needs migration "
                f"(supported: {CHECKPOINT_VERSION})"
            )
        dtype = _CODE_DTYPES.get(code)
        if dtype is None:
            raise CheckpointError(f"{path}: unknown dtype code {code}")
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", read(2))
            try:
                name = read(nlen).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"{path}: tensor name is not UTF-8") from exc
            (ndim,) = struct.unpack("<B", read(1))
            shape = struct.unpack(f"<{ndim}Q", read(8 * ndim)) if ndim else ()
            n_items = math.prod(shape)
            buf = read(n_items * dtype.itemsize)
            out[name] = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()
    return out


def save_checkpoint(ckpt_dir: Path, model: HngModel, manifest: dict) -> None:
    """Write the checkpoint into a hidden sibling directory, then rename it
    into place, so a killed run never leaves a torn ``ckpt_dir``. A checkpoint
    already there is moved aside first and deleted after the rename."""
    ckpt_dir = Path(ckpt_dir)
    ckpt_dir.parent.mkdir(parents=True, exist_ok=True)
    tmp = ckpt_dir.with_name(f".{ckpt_dir.name}.tmp")
    old = ckpt_dir.with_name(f".{ckpt_dir.name}.old")
    for stale in (tmp, old):  # left by a killed run
        shutil.rmtree(stale, ignore_errors=True)
    tmp.mkdir()
    try:
        groups = model.parameter_groups()
        manifest = dict(manifest)
        manifest["groups"] = {
            g: {name: list(p.data.shape) for name, p in params.items()}
            for g, params in groups.items()
        }
        (tmp / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
        for g, params in groups.items():
            _write_group(tmp / f"{g}.bin", params)
        if ckpt_dir.exists():
            ckpt_dir.rename(old)
        tmp.rename(ckpt_dir)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    shutil.rmtree(old, ignore_errors=True)


def load_manifest(ckpt_dir: Path) -> dict:
    path = Path(ckpt_dir) / "manifest.json"
    if not path.exists():
        raise CheckpointError(f"{ckpt_dir}: no manifest.json")
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise CheckpointError(f"{path}: not a valid JSON manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: manifest is not a JSON object")
    version = manifest.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{ckpt_dir}: manifest version {version} needs migration "
            f"(supported: {CHECKPOINT_VERSION})"
        )
    groups = manifest.get("groups")
    if not isinstance(groups, dict) or not all(
        isinstance(shapes, dict) and all(_is_int_list(s, 0) for s in shapes.values())
        for shapes in groups.values()
    ):
        raise CheckpointError(f"{path}: groups must map each group to tensor shapes")
    # only eval and inspect need class_ids, so their presence is checked there
    if not _is_int_list(manifest.get("class_ids", []), -(2**63)):
        raise CheckpointError(f"{path}: class_ids must be a list of integers")
    # only inspect reads the schedule state, so its presence is checked there
    if "eta" in manifest and not _is_finite_real(manifest["eta"]):
        raise CheckpointError(f"{path}: eta must be a finite number")
    loss = manifest.get("avg_metric_loss")
    if loss is not None and not _is_finite_real(loss):
        raise CheckpointError(f"{path}: avg_metric_loss must be a finite number or null")
    return manifest


def _is_finite_real(value) -> bool:
    """A JSON number, not a bool, that converts to a finite float."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer past the float range
        return False


def _is_int_list(value, low: int) -> bool:
    return isinstance(value, list) and all(
        type(x) is int and low <= x < 2**63 for x in value
    )


def load_checkpoint(ckpt_dir: Path, model: HngModel) -> dict:
    """Restore parameters in place; shapes and groups must match exactly."""
    ckpt_dir = Path(ckpt_dir)
    manifest = load_manifest(ckpt_dir)
    groups = model.parameter_groups()
    saved_groups = manifest["groups"]
    if sorted(saved_groups) != sorted(groups):
        raise CheckpointError(
            f"parameter groups differ: checkpoint has {sorted(saved_groups)}, "
            f"model needs {sorted(groups)} (different ablation arm?)"
        )
    for g, params in groups.items():
        stored = _read_group(ckpt_dir / f"{g}.bin")
        if sorted(stored) != sorted(params):
            raise CheckpointError(f"group {g!r}: parameter names differ")
        for name, p in params.items():
            if stored[name].shape != p.data.shape:
                raise CheckpointError(
                    f"group {g!r} tensor {name!r}: shape "
                    f"{stored[name].shape} != {p.data.shape}"
                )
            p.data[...] = stored[name]  # in place: optimizers hold views
    return manifest
