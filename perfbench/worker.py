"""One run of one benchmark workload, in a process of its own.

``run.py`` starts this script with the BLAS threads pinned and reads the
JSON object it prints on its last line: per-operation times, items
processed, peak RSS, the outcome of the output checks and, in the traced
run, the per-layer table.

    python3 perfbench/worker.py --workload train-mid --seed 1 --seconds 50 --trace 0
"""

from __future__ import annotations

import argparse
import collections
import functools
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
import warnings
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

from run import BENCH_DIR, ROOT, THREAD_VARS  # pins the BLAS threads before numpy loads

sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

warnings.filterwarnings("ignore", message="numba unavailable")

from hngen import autodiff as ad  # noqa: E402
from hngen import cacai, cli, datakit, evalkit, gcl, kernels, trainer  # noqa: E402

import inputs  # noqa: E402
import tracer  # noqa: E402

SETUP_REPEATS = 5
MIN_OPS = 3
MIN_HOLDOUT_R_AT_1 = 0.90  # the acceptance threshold of the bundled smoke run


class WorkDir:
    """Fresh directories for run outputs, removed when the run ends."""

    def __init__(self):
        self.root = BENCH_DIR / "out" / f"work-{os.getpid()}"
        self._count = 0

    def next_dir(self) -> Path:
        self._count += 1
        return self.root / f"{self._count:03d}"

    def remove(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


@dataclass
class Built:
    trainer: trainer.Trainer | None = None
    holdout: datakit.Dataset | None = None
    index: evalkit.RetrievalIndex | None = None


@dataclass
class Pass:
    op_s: list[float] = field(default_factory=list)
    rates: list[float] = field(default_factory=list)  # items/s per window; train-smoke: one, its best epoch
    items: int = 0
    wall_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    reports: list[dict] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        print(f"check failed: {what}", file=sys.stderr)
        self.failures.append(what)

    def crashed(self, what: str) -> None:
        traceback.print_exc()
        self.fail(f"{what} raised")


def _finite_report(fields: dict) -> bool:
    return all(math.isfinite(v) for v in fields.values() if isinstance(v, float))


def _train_build(recipe: dict, with_holdout: bool, work: WorkDir) -> Built:
    cfg = cli.resolve_config(None, recipe)
    train_set, holdout = cli.split_for_eval(cfg, cli.build_dataset(cfg))
    tr = trainer.Trainer(
        train_set, holdout if with_holdout else None, cli.train_config_from(cfg),
        cli.backbone_config_from(cfg), work.next_dir(),
        eval_ks=cfg["eval"]["ks"], resolved_config=cfg,
    )
    return Built(trainer=tr, holdout=holdout)


def _deadline_reached(start: float, op_s: list[float], budget_s: float) -> bool:
    """Stop once another operation of median length would overrun the budget."""
    if len(op_s) < MIN_OPS:
        return False
    return time.perf_counter() - start + statistics.median(op_s) > budget_s


class TrainSmoke:
    """``Trainer.fit`` on the smoke recipe, checkpoints and holdout evaluation
    included: what a user of ``hngen train`` waits for."""

    best_case = True  # about 780 steps of 20-30 ms per fit

    def __init__(self, seed: int, tiny: bool):
        extra = {"samples_per_class": 20} if tiny else {}
        self.recipe = inputs.train_recipe(inputs.SMOKE_RECIPE, seed, **extra)
        if tiny:
            self.recipe["train"]["epochs"] = 2
        self.min_r_at_1 = 0.0 if tiny else MIN_HOLDOUT_R_AT_1
        self.probe_shape = (4, 3, 64)
        t = self.recipe["train"]
        self.batch_size = t["batch_classes"] * t["batch_instances"]

    def build(self, work: WorkDir) -> Built:
        return _train_build(self.recipe, True, work)

    def warm_up(self, built: Built) -> None:
        pass

    def run(self, built: Built, budget_s: float, work: WorkDir) -> Pass:
        p = Pass()
        start = time.perf_counter()
        fit_s: list[float] = []
        boundary_s: list[float] = []
        while True:
            # a fit consumes its trainer, so each fit builds its own; one is
            # alive at a time, and peak RSS does not grow with the fit count
            tr = self.build(work).trainer
            p.attempted += 1  # the holdout R@1 check of this fit
            t0 = time.perf_counter()
            try:
                result = tr.fit()
            except Exception:
                p.crashed("Trainer.fit")
                break
            fit_s.append(time.perf_counter() - t0)
            steps, epoch_steps = self._check_log(result.log_path, p, boundary_s)
            p.items += steps * self.batch_size
            r1 = result.history[-1]["recall_at"]["1"]
            p.extra["holdout_r_at_1"] = r1
            if r1 < self.min_r_at_1:
                p.fail(f"holdout R@1 {r1} < {self.min_r_at_1}")
            shutil.rmtree(tr.run_dir, ignore_errors=True)
            del tr, result
            if time.perf_counter() - start + statistics.median(fit_s) > budget_s:
                break
        p.wall_s = sum(fit_s)
        if p.op_s and boundary_s:
            # An epoch window, from the last record of one epoch to the last
            # of the next, holds one boundary interval and epoch_steps - 1
            # step intervals. Each part at its fastest over the pass is as
            # steady as the fastest step; the fastest whole window, about a
            # second long, is not.
            best_epoch_s = (epoch_steps - 1) * min(p.op_s) + min(boundary_s)
            p.rates.append(epoch_steps * self.batch_size / best_epoch_s)
        return p

    @staticmethod
    def _check_log(log_path: Path, p: Pass, boundary_s: list[float]) -> tuple[int, int]:
        """Check every logged LossReport and collect the intervals between records.

        A step interval runs from one step's log record to the next within
        an epoch: sampling, ``train_step`` and the log write. A boundary
        interval runs from the last record of one epoch to the first of the
        next, so it holds the checkpoint and the holdout evaluation as well.
        Returns the number of steps logged and the usual number per epoch.
        """
        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        prev = None
        for rec in records:
            p.attempted += 1
            if not _finite_report(rec):
                p.fail(f"non-finite LossReport at step {rec['step']}")
            stamp = datetime.strptime(rec["timestamp"], "%Y-%m-%dT%H:%M:%S.%fZ")
            if prev is not None:
                gap = (stamp - prev[1]).total_seconds()
                (p.op_s if prev[0] == rec["epoch"] else boundary_s).append(gap)
            prev = (rec["epoch"], stamp)
        per_epoch = collections.Counter(rec["epoch"] for rec in records)
        return len(records), statistics.mode(per_epoch.values())


class TrainMid:
    """A ``Trainer.train_step`` loop at B=80 (16 classes x 5), D=128, full arm,
    without per-epoch evaluation: the dense B^2 edge update dominates."""

    best_case = False  # steps of 1.5-2 s

    def __init__(self, seed: int, tiny: bool):
        recipe = inputs.train_recipe(inputs.MID_RECIPE, seed)
        if tiny:
            recipe["dataset"].update(num_classes=4, samples_per_class=8, input_dim=16)
            recipe["backbone"].update(hidden_dims=[32], embed_dim=16)
            recipe["train"].update(batch_classes=4, batch_instances=3)
            recipe["eval"]["holdout_per_class"] = 3
        self.recipe = recipe
        t = recipe["train"]
        self.probe_shape = (t["batch_classes"], t["batch_instances"], recipe["backbone"]["embed_dim"])

    def build(self, work: WorkDir) -> Built:
        return _train_build(self.recipe, False, work)

    def warm_up(self, built: Built) -> None:
        # the first step runs markedly slower than the rest
        self._step(built.trainer, Pass())

    @staticmethod
    def _step(tr: trainer.Trainer, p: Pass) -> None:
        cfg = tr.cfg
        batch = datakit.sample_balanced(
            tr.train_set, cfg.batch_classes, cfg.batch_instances, tr.sampler_rng
        )
        p.attempted += 1
        t0 = time.perf_counter()
        report = tr.train_step(batch)
        dt = time.perf_counter() - t0
        if not _finite_report(report.to_dict()):
            p.fail(f"non-finite LossReport at step {report.step}")
        p.op_s.append(dt)
        p.rates.append(batch.size / dt)
        p.items += batch.size

    def run(self, built: Built, budget_s: float, work: WorkDir) -> Pass:
        p = Pass()
        start = time.perf_counter()
        while not _deadline_reached(start, p.op_s, budget_s):
            try:
                self._step(built.trainer, p)
            except Exception:
                p.crashed("Trainer.train_step")
                break
        p.wall_s = time.perf_counter() - start
        return p


class Retrieval:
    """``evaluate_retrieval`` on a single-set index of 5,000 unit-norm,
    class-clustered embeddings (100 classes, D=128) with exact duplicates."""

    best_case = False  # calls of about 4 s

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.sizes = inputs.TINY_RETRIEVAL if tiny else {}
        self.smoke = TrainSmoke(seed, tiny)
        self.probe_shape = self.smoke.probe_shape

    def build(self, work: WorkDir) -> Built:
        z, labels = inputs.retrieval_inputs(self.seed, **self.sizes)
        return Built(index=evalkit.RetrievalIndex.single_set(z, labels))

    def warm_up(self, built: Built) -> None:
        pass

    def run(self, built: Built, budget_s: float, work: WorkDir) -> Pass:
        p = Pass()
        start = time.perf_counter()
        while not _deadline_reached(start, p.op_s, budget_s):
            p.attempted += 1
            t0 = time.perf_counter()
            try:
                report = evalkit.evaluate_retrieval(built.index, inputs.RETRIEVAL_KS)
            except Exception:
                p.crashed("evaluate_retrieval")
                break
            dt = time.perf_counter() - t0
            p.op_s.append(dt)
            p.rates.append(report.n_queries / dt)
            p.items += report.n_queries
            p.reports.append(report.to_dict())
        p.wall_s = time.perf_counter() - start
        return p


WORKLOADS = {"train-smoke": TrainSmoke, "train-mid": TrainMid, "retrieval-5k": Retrieval}


def pass_metrics(p: Pass, best_case: bool) -> dict:
    """End-to-end figures of one pass, before set-up time and peak RSS.

    ``op_ms`` and ``items_per_s`` are the fastest operation and window when
    ``best_case`` is set, and the median ones otherwise. A workload of many
    short operations takes the best case: each operation is shorter than
    the host's slow spells, and work of fixed size can only be slowed by
    them, so the fastest is the steadiest estimate of what the code costs.
    A workload of a few long operations takes the median: each operation
    already spans the spells, and the median of a handful is steadier than
    their extreme. The median, p90 and whole-pass rate are kept too.
    """
    op_ms = np.asarray(p.op_s) * 1e3
    out = {"n_ops": len(p.op_s), "op_s": p.op_s, "rates": p.rates}
    if len(op_ms):
        out["op_ms"] = float(op_ms.min() if best_case else np.median(op_ms))
        out["op_ms_p50"] = float(np.median(op_ms))
        out["op_ms_p90"] = float(np.percentile(op_ms, 90))
    if p.rates:
        out["items_per_s"] = float(max(p.rates) if best_case else np.median(p.rates))
    if p.wall_s > 0:
        out["items_per_s_run"] = p.items / p.wall_s
    return out


# -- traced run -------------------------------------------------------------

# span names each part of the probe unit covers
PROBE_PARTS = {
    "ckpt": {"trainer.save_checkpoint", "trainer.load_checkpoint"},
    "embed": {"backbone.embed_array"},
    "eval": {name for name, *_ in tracer.TARGETS if name.startswith("evalkit.")}
    | {"kernels.ranked_hits"},
}
PROBE_PARTS["train"] = {name for name, *_ in tracer.TARGETS} - set().union(*PROBE_PARTS.values())


def probe_unit(built: Built, parts: set[str], work: WorkDir) -> None:
    """One training step, one checkpoint round trip and one holdout
    evaluation at the workload's probe shapes (only the named parts)."""
    tr = built.trainer
    if "train" in parts:
        cfg = tr.cfg
        tr.train_step(datakit.sample_balanced(
            tr.train_set, cfg.batch_classes, cfg.batch_instances, tr.sampler_rng
        ))
    if "ckpt" in parts:
        ckpt = work.next_dir()
        trainer.save_checkpoint(ckpt, tr.model, {"format_version": trainer.CHECKPOINT_VERSION})
        trainer.load_checkpoint(ckpt, tr.model)
        shutil.rmtree(ckpt)
    index = built.index
    if "embed" in parts or ("eval" in parts and index is None):
        z = tr.model.backbone.embed_array(built.holdout.features)
        index = index or evalkit.RetrievalIndex.single_set(z, built.holdout.labels)
    if "eval" in parts:
        ks = [k for k in inputs.RETRIEVAL_KS if k <= index.effective_gallery_size]
        evalkit.evaluate_retrieval(index, ks)


def _repeat(fn, min_reps: int = 3, min_s: float = 0.5, max_reps: int = 50) -> list:
    results, start = [], time.perf_counter()
    while len(results) < max_reps and (
        len(results) < min_reps or time.perf_counter() - start < min_s
    ):
        results.append(fn())
    return results


def block_probes(seed: int, n_classes: int, n_instances: int, dim: int) -> dict:
    """Forward and ``.sum().backward()`` of the graph blocks and the lambda
    head, run in isolation (no spans installed) at the probe shapes."""
    rng = np.random.default_rng([seed, 0xB10C])
    b = n_classes * n_instances
    labels = np.tile(np.arange(n_classes), n_instances)
    v0 = rng.standard_normal((b, dim))
    v0 /= np.linalg.norm(v0, axis=1, keepdims=True)
    e0 = v0[:, None, :] * v0[None, :, :]
    blocks = {
        "gcl.NodeBlock": (gcl.NodeBlock(dim, 2, 4, rng), lambda m, v, e: m(v, e, labels)),
        "gcl.EdgeBlock": (gcl.EdgeBlock(dim, 2, 4, rng), lambda m, v, e: m(e, v)),
        "cacai.LambdaHead": (cacai.LambdaHead(dim, rng), lambda m, v, e: m(e)),
    }

    def fwd_bwd(module, call) -> tuple[float, float]:
        module.zero_grad()
        v = ad.Tensor(v0.copy(), requires_grad=True)
        e = ad.Tensor(e0.copy(), requires_grad=True)
        t0 = time.perf_counter()
        out = call(module, v, e)
        t1 = time.perf_counter()
        out.sum().backward()
        return t1 - t0, time.perf_counter() - t1

    out = {}
    for name, (module, call) in blocks.items():
        times = _repeat(functools.partial(fwd_bwd, module, call))
        out[f"{name}.fwd_ms"] = statistics.median(t[0] for t in times) * 1e3
        out[f"{name}.bwd_ms"] = statistics.median(t[1] for t in times) * 1e3
    module, call = blocks["gcl.EdgeBlock"]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fwd_bwd(module, call)
        out["gcl.EdgeBlock.peak_alloc_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()
    return out


def layer_table(main: tracer.Tracer, fill: tracer.Tracer, mem: tracer.Tracer) -> dict:
    """Per-span metrics. Times of a span the workload never calls come from
    the probe unit; its ``.calls`` stays the workload's count, 0."""
    out = {}
    for name, *_ in tracer.TARGETS:
        stat = main.stats.get(name) or fill.stats[name]
        out[f"{name}.ms"] = stat.total_s / stat.calls * 1e3
        out[f"{name}.self_ms"] = stat.self_s / stat.calls * 1e3
        out[f"{name}.calls"] = main.stats[name].calls if name in main.stats else 0
        if name in mem.stats:
            out[f"{name}.peak_alloc_mb"] = mem.stats[name].peak_bytes / 2**20
    out.update({**fill.ratios, **main.ratios})
    return out


def traced_run(wl, built: Built, seed: int, seconds: float, work: WorkDir) -> tuple[list[Pass], dict]:
    """Half the budget untraced, half traced, then the probes.

    The first half gives the baseline that the tracing overhead is measured
    against, on the same process and inputs.
    """
    base = wl.run(built, seconds / 2, work)
    with tracer.Tracer() as main:
        traced = wl.run(built, seconds / 2, work)
    probe = built if built.trainer is not None else _with_probe_trainer(wl, built, work)
    missing = {part for part, names in PROBE_PARTS.items() if not names <= main.stats.keys()}
    with tracer.Tracer() as fill:
        probe_unit(probe, missing, work)
    mem = tracer.Tracer(memory=True)
    tracemalloc.start()
    try:
        with mem:
            probe_unit(probe, {"train", "eval"}, work)
    finally:
        tracemalloc.stop()
    layers = layer_table(main, fill, mem)
    layers.update(block_probes(seed, *wl.probe_shape))
    before, after = pass_metrics(base, wl.best_case), pass_metrics(traced, wl.best_case)
    for key in ("op_ms", "items_per_s"):
        layers[f"trace_overhead.{key}_pct"] = (after[key] - before[key]) / before[key] * 100
    return [base, traced], layers


def _with_probe_trainer(wl: Retrieval, built: Built, work: WorkDir) -> Built:
    """The retrieval workload trains nothing; its probe unit trains at desk shapes."""
    desk = wl.smoke.build(work)
    return Built(trainer=desk.trainer, holdout=desk.holdout, index=built.index)


# -- environment --------------------------------------------------------------


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "kernel_backend": kernels.active_backend(),
        "HNGEN_NUMBA": os.environ.get("HNGEN_NUMBA"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    wl = WORKLOADS[name](seed, tiny)
    work = WorkDir()
    try:
        build_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            built = wl.build(work)
            build_s.append(time.perf_counter() - t0)
        wl.warm_up(built)
        out = {"workload": name, "seed": seed, "env": environment(), "build_s": build_s}
        if trace:
            passes, out["layers"] = traced_run(wl, built, seed, seconds, work)
        else:
            passes = [wl.run(built, seconds, work)]
            out.update(pass_metrics(passes[0], wl.best_case))
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        left = tracer.wrapped_targets()
        if left:
            raise RuntimeError(f"span wrappers still installed after the run: {left}")
        out["attempted"] = sum(p.attempted for p in passes)
        out["failures"] = [f for p in passes for f in p.failures]
        out["reports"] = [r for p in passes for r in p.reports]
        out["extra"] = {k: v for p in passes for k, v in p.extra.items()}
        return out
    finally:
        work.remove()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale == "tiny")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
