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
last edge block (which feeds only the interpolation vectors), move only in
stage 1.

Both stages compute only what some loss reads. The last edge step belongs to
the interpolation path: ``HngModel.lambda_for`` runs it, and the head after
it, on the cross-class pair rows only, the anchor-negative pairs. An
own-class lane feeds only the anchor's own-class synthetic slot, which no
loss reads, so it reads the constant 1 through the lane map. Where no loss
reads the interpolation vectors (``baseline_gnn``, and ``single_coeff``,
whose vectors are the constant 1), the last edge step is not built, and
``single_coeff``'s stage 1 builds no graph. Stage 2 reads the vectors
through sg(λ): it runs the same head as stage 1 and detaches its output
(``Tensor.detach``), so nothing holds the head's or the last edge step's tape
once the vectors are read: both are freed before the backward pass.

Schedules: the interpolation interval factor eta is recomputed from the
previous epoch's mean metric loss (bootstrapped from the running mean
during the first epoch); the synthetic-term weight gamma_n uses an EMA of
the generator loss, refreshed every step. Both apply one rule,
``schedule_factor``: exp(-c / J) of their loss J. The graph network's
learning rate follows cosine decay over epochs; like the fusion order and
the raw synthetics of ``cacai.synthesize``, this is fixed, not a setting.

Checkpoints are directories with a JSON manifest and one raw float64 blob
per parameter group, written beside the target and renamed into place; loading
is bit-exact. A model loaded for eval or inspect records no tape.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import shutil
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import cacai, datakit, evalkit, gcl, kernels, losses
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
METRIC_LOSSES = ("np_modified", "proxy_anchor")
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        """Every range check on a training setting, run once as the frozen
        config is built; the modules that take these settings rely on it."""
        if self.epochs < 0:
            raise ConfigurationError("epochs must be >= 0")
        if self.batch_classes < 2:
            raise ConfigurationError("batch_classes must be >= 2")
        if self.batch_instances < 2:
            raise ConfigurationError("batch_instances must be >= 2")
        for name in ("lr_f", "lr_g", "lr_cz", "lr_cv", "pa_alpha"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.weight_decay < 0:
            raise ConfigurationError("weight_decay must be >= 0")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            raise ConfigurationError("early_stop_patience must be null or >= 1")
        if self.metric_loss not in METRIC_LOSSES:
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
        for name, value in (("gamma_s", self.gamma_s), ("gamma_d", self.resolved_gamma_d()),
                            ("alpha_pull", self.alpha_pull), ("beta", self.beta)):
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

    @property
    def reads_lambda(self) -> bool:
        """Whether a loss reads the λ head's output, and so the final edge
        states: every synthetic arm but ``single_coeff``, whose λ is 1."""
        return self.uses_synthetics and self.ablation != "single_coeff"


@dataclass
class RunState:
    """The schedules' inputs; eta and gamma_n are derived from them."""

    epoch: int = 0
    step: int = 0
    avg_metric_loss: float | None = None  # last finished epoch
    epoch_loss_sum: float = 0.0
    epoch_loss_count: int = 0
    gen_ema: float | None = None


def schedule_factor(c: float, loss: float | None) -> float:
    """The rule of both loss-driven schedules: exp(-c / J), in (0, 1].

    ``None`` (no loss seen yet) gives 1. A non-positive loss is clamped to
    1e-8 with a warning.
    """
    if loss is None:
        return 1.0
    if loss <= 0.0:
        warnings.warn(f"schedule loss {loss} <= 0; clamping to 1e-8")
        loss = 1e-8
    return float(np.exp(-c / loss))


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
    return schedule_factor(cfg.alpha_pull, j_avg)


def record_metric_loss(state: RunState, value: float) -> None:
    state.epoch_loss_sum += float(value)
    state.epoch_loss_count += 1


def finish_epoch_schedules(state: RunState) -> None:
    """Epoch boundary: fold the epoch's mean metric loss into the eta driver."""
    if state.epoch_loss_count > 0:
        state.avg_metric_loss = state.epoch_loss_sum / state.epoch_loss_count
    state.epoch_loss_sum = 0.0
    state.epoch_loss_count = 0


def update_gen_tracker(cfg: TrainConfig, state: RunState, gen_loss: float) -> float:
    """EMA the generator loss (detached) and return gamma_n from it."""
    if state.gen_ema is None:
        state.gen_ema = float(gen_loss)
    else:
        d = cfg.gen_ema_decay
        state.gen_ema = d * state.gen_ema + (1.0 - d) * float(gen_loss)
    return schedule_factor(cfg.beta, state.gen_ema)


def cosine_lr(base: float, epoch: int, total_epochs: int) -> float:
    if total_epochs <= 1:
        return base
    frac = min(max(epoch / (total_epochs - 1), 0.0), 1.0)
    return base * 0.5 * (1.0 + np.cos(np.pi * frac))


def _params_of(module: ad.Module | None) -> list[ad.Tensor]:
    return module.parameters() if module is not None else []


class HngModel(ad.Module):
    """The trainable components that one ablation arm runs, and no others;
    ``cfg`` checked its ranges when it was built."""

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
                node_propagation=cfg.ablation != "no_global",
                include_edge_sum=cfg.ablation != "no_hadamard",
                final_edge_step=cfg.reads_lambda,
            )
            self.head_cv = losses.ClassifierHead(codec.num_classes, dim, rng)
        if cfg.uses_synthetics:
            self.head_cz = losses.ClassifierHead(codec.num_classes, dim, rng)
            if cfg.reads_lambda:
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
        """The arm's propagation over ``zb``'s graph, up to the last edge
        step, which ``lambda_for`` runs."""
        assert self.graph is not None
        return self.graph.propagate(gcl.init_graph(zb))

    def lambda_for(self, zb: EmbeddingBatch, graph: gcl.CorrelationGraph | None,
                   every_row: bool = False) -> tuple[ad.Tensor, np.ndarray]:
        """The packed interpolation vectors of ``zb``'s pairs and the (B, B)
        lane map that ``cacai.lambda_lanes`` reads them through. The last
        edge step and the head run on the cross-class pair rows, the ones a
        loss reads, or on every row with ``every_row`` (``hngen inspect``); a
        lane whose row is not computed maps to -1, the constant 1. Without a
        graph or a head (``single_coeff``) they are zero rows and an all -1
        map. Stage 2 reads them through sg(λ), the ``Tensor.detach`` of the
        returned rows."""
        b, d = zb.z.shape
        if graph is None or self.lambda_head is None:
            return ad.Tensor(np.zeros((0, d))), np.full((b, b), -1)
        i, j = kernels.pair_rows(b)
        read = np.ones(i.size, dtype=bool) if every_row else zb.labels[i] != zb.labels[j]
        e = self.graph.final_edges(graph, None if every_row else np.flatnonzero(read))
        return self.lambda_head(e), np.where(read, np.cumsum(read) - 1, -1)[kernels.pair_index(b)]

    def synthesize(
        self, zb: EmbeddingBatch, lam: ad.Tensor, lane: np.ndarray, eta: float,
        rng: np.random.Generator, positive_idx: np.ndarray,
    ) -> cacai.SyntheticNegatives:
        """``cacai.synthesize`` with this arm's fusion."""
        return cacai.synthesize(
            zb, lam, lane, eta, rng, positive_idx, pick_single=self.cfg.ablation == "no_rw"
        )

    def metric_loss_term(self, zb: EmbeddingBatch) -> ad.Tensor:
        if self.cfg.metric_loss == "proxy_anchor":
            assert self.proxies is not None
            return losses.pa_loss(zb.z, zb.labels, self.proxies, self.codec)
        return losses.np_loss(zb.z, zb.n_classes, zb.n_instances)


@dataclass
class FitResult:
    run_dir: Path
    history: list[dict] = field(default_factory=list)
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
        # what datakit.sample_balanced needs to draw every batch
        n_classes, smallest = train_set.classes.size, min(map(len, train_set.class_rows))
        if n_classes < cfg.batch_classes or smallest < cfg.batch_instances:
            raise ConfigurationError(
                f"a batch needs {cfg.batch_classes} classes of {cfg.batch_instances} samples; the "
                f"training split has {n_classes} classes, the smallest of {smallest}")
        _keep_heap_top_mapped()
        self.cfg = cfg
        self.backbone_cfg = backbone_cfg
        self.train_set = train_set
        self.val_set = val_set
        self.run_dir = Path(run_dir)
        self.eval_ks = eval_ks or evalkit.EvalConfig().ks
        self.resolved_config = resolved_config or {}
        self.codec = losses.ClassCodec(train_set.classes)

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
        # single_coeff's λ is the constant 1, which reads no graph
        lam, lane = model.lambda_for(
            zb_sg, model.propagate_graph(zb_sg) if cfg.reads_lambda else None)
        synth = model.synthesize(zb_sg, lam, lane, eta, self.synth_rng, positive_idx)
        gen_loss, parts = losses.j_gen(
            zb_sg.z, synth, lam, lane, model.head_cz, self.codec,
            gamma_s=cfg.gamma_s, gamma_d=cfg.resolved_gamma_d(),
        )
        cz_loss = losses.j_cz(zb_sg.z, zb_sg.labels, model.head_cz, self.codec)
        (gen_loss + cz_loss).backward()
        self.opt.step()
        self.opt.zero_grad()
        return {"j_gen": float(gen_loss.data), "j_cz": float(cz_loss.data), **parts}

    def _stage2(self, zb: EmbeddingBatch, positive_idx: np.ndarray, eta: float,
                gamma_n: float | None) -> dict:
        """Joint metric update; the lambda pathway carries no gradient.
        ``gamma_n`` weighs the synthetic term; arms without one pass None."""
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
                lam, lane = model.lambda_for(zb, graph)
                lam = lam.detach()  # sg(λ): frees the head's and the last edge step's tape
                synth = model.synthesize(zb, lam, lane, eta, self.synth_rng, positive_idx)
                syn = losses.j_syn(zb.z, positive_idx, synth)
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
        eta = eta_for_batch(cfg, self.state)
        zb = self.model.backbone.embed(batch)
        positive_idx = cacai.select_positives(zb.labels, self.positive_rng)
        terms: dict = {}
        if cfg.uses_synthetics:
            zb_sg = EmbeddingBatch(zb.z.detach(), zb.labels, zb.n_classes, zb.n_instances)
            terms = self._stage1(zb_sg, positive_idx, eta)
            terms["gamma_n"] = update_gen_tracker(cfg, self.state, terms["j_gen"])
        terms.update(self._stage2(zb, positive_idx, eta, terms.get("gamma_n")))
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
        model = load_frozen_model(
            ckpt_dir, self.cfg, self.backbone_cfg, self.train_set.dim, self.codec)
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

        save_checkpoint(ckpt_root / "epoch_000", self.model, self._manifest(epoch=0, history=[]))

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
                finish_epoch_schedules(self.state)

                ckpt = ckpt_root / f"epoch_{epoch + 1:03d}"
                save_checkpoint(ckpt, self.model, self._manifest(epoch + 1, result.history))
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
        """The run's facts for a checkpoint; ``save_checkpoint`` adds the
        model's. ``eta`` is what the batch after the checkpoint trains with."""
        return {
            "format_version": CHECKPOINT_VERSION,
            "config_hash": config_hash(self.resolved_config),
            "resolved_config": self.resolved_config,
            "epoch": epoch,
            "metric_history": list(history),
            "eta": eta_for_batch(self.cfg, self.state),
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

# A group's blob is its tensors' raw little-endian float64 bytes, back to back,
# the training precision, so reload is bit-exact. The manifest's "groups" holds
# every tensor's name and shape; the blob holds nothing else.


def _group_shapes(model: HngModel) -> dict[str, dict[str, list[int]]]:
    """The manifest's "groups": each tensor's shape by group and name."""
    return {g: {name: list(p.data.shape) for name, p in params.items()}
            for g, params in model.parameter_groups().items()}


def _layout(shapes: dict) -> list[tuple[str, tuple, int]]:
    """(name, shape, item count) of each tensor of a group, in blob order."""
    return [(name, tuple(shapes[name]), math.prod(shapes[name])) for name in sorted(shapes)]


def _write_group(path: Path, params: dict[str, ad.Tensor]) -> None:
    with open(path, "wb") as fh:
        for name, _, _ in _layout({name: p.data.shape for name, p in params.items()}):
            fh.write(np.ascontiguousarray(params[name].data, dtype="<f8").tobytes())


def _check_blob(path: Path, shapes: dict) -> None:
    """Raise unless ``path`` is a readable file of exactly the bytes that
    ``shapes`` (name -> shape, from the manifest) need. It reads no data, so
    a corrupt dim never makes anything that large be allocated."""
    need = 8 * sum(n for _, _, n in _layout(shapes))
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
    except OSError as exc:  # missing, a directory, unreadable
        raise CheckpointError(f"{path}: cannot read parameter blob: {exc.strerror}") from exc
    if size != need:
        raise CheckpointError(
            f"{path}: parameter blob holds {size} bytes, the manifest's shapes need {need}"
        )


def _read_group(path: Path, shapes: dict) -> dict[str, np.ndarray]:
    """The tensors of the blob at ``path``, as views of one array."""
    _check_blob(path, shapes)
    with open(path, "rb") as fh:
        flat = np.fromfile(fh, dtype="<f8")
    out, start = {}, 0
    for name, shape, n in _layout(shapes):
        out[name] = flat[start:start + n].reshape(shape)
        start += n
    return out


def save_checkpoint(ckpt_dir: Path, model: HngModel, manifest: dict) -> None:
    """Write the checkpoint into a hidden sibling directory, then rename it
    into place, so a killed run never leaves a torn ``ckpt_dir``. A checkpoint
    already there is moved aside first and deleted after the rename. Beside
    ``manifest`` it records the model's own facts: its tensor shapes
    ("groups"), class ids, ablation arm and metric loss."""
    ckpt_dir = Path(ckpt_dir)
    ckpt_dir.parent.mkdir(parents=True, exist_ok=True)
    tmp = ckpt_dir.with_name(f".{ckpt_dir.name}.tmp")
    old = ckpt_dir.with_name(f".{ckpt_dir.name}.old")
    for stale in (tmp, old):  # left by a killed run
        shutil.rmtree(stale, ignore_errors=True)
    tmp.mkdir()
    try:
        manifest = dict(manifest, groups=_group_shapes(model), class_ids=model.codec.ids.tolist(),
                        ablation=model.cfg.ablation, metric_loss=model.cfg.metric_loss)
        (tmp / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
        for g, params in model.parameter_groups().items():
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
    except OSError as exc:  # a directory, unreadable
        raise CheckpointError(f"{path}: cannot read manifest: {exc.strerror}") from exc
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
    if not _is_int_list(manifest.get("class_ids"), -(2**63)):
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


def load_frozen_model(ckpt_dir: Path, cfg: TrainConfig, backbone_cfg: BackboneConfig,
                      input_dim: int, codec: losses.ClassCodec) -> HngModel:
    """The arm's model with the parameters of ``ckpt_dir``, for eval and
    inspect. It is never trained, so its parameters record no tape."""
    model = HngModel(cfg, backbone_cfg, input_dim, codec, np.random.default_rng(0))
    load_checkpoint(ckpt_dir, model)
    for p in model.parameters():
        p.requires_grad = False
    return model


def load_checkpoint(ckpt_dir: Path, model: HngModel) -> dict:
    """Restore parameters in place; groups, names and shapes must match the
    model exactly. Every blob's size is checked before the first parameter
    changes, so a damaged checkpoint leaves the model as it was; one group
    is in memory at a time."""
    ckpt_dir = Path(ckpt_dir)
    manifest = load_manifest(ckpt_dir)
    saved, want = manifest["groups"], _group_shapes(model)
    if sorted(saved) != sorted(want):
        raise CheckpointError(
            f"parameter groups differ: checkpoint has {sorted(saved)}, "
            f"model needs {sorted(want)} (different ablation arm?)"
        )
    bad = sorted(f"{g}.{name}" for g in want for name in saved[g].keys() | want[g].keys()
                 if saved[g].get(name) != want[g].get(name))
    if bad:
        raise CheckpointError(f"tensors {bad} differ from the model's in name or shape")
    for g in want:
        _check_blob(ckpt_dir / f"{g}.bin", want[g])
    for g, params in model.parameter_groups().items():
        stored = _read_group(ckpt_dir / f"{g}.bin", want[g])
        for name, p in params.items():
            p.data[...] = stored[name]  # in place: optimizers hold views
    return manifest
