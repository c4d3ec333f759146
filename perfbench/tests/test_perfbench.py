"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
SEED = 3


def _run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def _assess(workload: str, raw: dict) -> dict:
    return run.assess(workload, SEED, 0.2, 0, "tiny", raw, 0.1, DECLARED)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_prints_every_declared_metric(workload, trace):
    proc = _run_cli("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                    "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = DECLARED["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
    elif workload.startswith("train-"):
        # the spans under a training step account for nearly all of it
        assert values["trainer.train_step.self_ms"] < 0.25 * values["trainer.train_step.ms"]


def test_wrong_metric_report_counts_as_failed(monkeypatch):
    real = worker.evalkit.evaluate_retrieval

    def one_ulp_off(index, ks):
        report = real(index, ks)
        report.map_at_r = math.nextafter(report.map_at_r, 2.0)
        return report

    monkeypatch.setattr(worker.evalkit, "evaluate_retrieval", one_ulp_off)
    raw = worker.run_workload("retrieval-5k", SEED, 0.2, False, True)
    record = _assess("retrieval-5k", raw)
    assert not record["correct"]
    assert record["failed"] == record["attempted"] == len(raw["reports"]) >= 1
    assert record["metrics"]["op_ms"]["value"] > 0


def test_non_finite_loss_report_counts_as_failed(monkeypatch):
    real = worker.trainer.Trainer.train_step

    def nan_report(self, batch):
        report = real(self, batch)
        report.j_m = float("nan")
        return report

    monkeypatch.setattr(worker.trainer.Trainer, "train_step", nan_report)
    record = _assess("train-mid", worker.run_workload("train-mid", SEED, 0.2, False, True))
    assert not record["correct"]
    assert record["failed"] == record["attempted"] >= worker.MIN_OPS


def test_crashing_step_is_a_failure_not_a_crash(monkeypatch):
    real = worker.trainer.Trainer.train_step
    calls = []

    def crash_on_fourth(self, batch):
        calls.append(1)
        if len(calls) == 4:  # the warm-up step, two timed steps, then this
            raise worker.trainer.NumericError("injected")
        return real(self, batch)

    monkeypatch.setattr(worker.trainer.Trainer, "train_step", crash_on_fourth)
    record = _assess("train-mid", worker.run_workload("train-mid", SEED, 5.0, False, True))
    assert (record["attempted"], record["failed"]) == (3, 1)
    assert record["worker"]["n_ops"] == 2


def test_spans_install_and_restore_the_original_functions():
    def current():
        return {name: getattr(*tracer._owner_and_attr(m, p)) for name, m, p in tracer.TARGETS}

    originals = current()
    assert tracer.wrapped_targets() == []
    with tracer.Tracer() as spans:
        assert sorted(tracer.wrapped_targets()) == sorted(originals)
        worker.kernels.pairwise_sqdist(np.eye(3))
    assert spans.stats["kernels.pairwise_sqdist"].calls == 1
    assert tracer.wrapped_targets() == []
    assert all(fn is originals[name] for name, fn in current().items())


def test_reference_matches_the_program_on_tie_heavy_inputs():
    z, labels = inputs.retrieval_inputs(SEED, n=400, classes=12, dim=16)
    assert np.unique(z, axis=0).shape[0] < z.shape[0]  # exact duplicates tie
    expected = inputs.reference_report(z, labels, inputs.RETRIEVAL_KS, chunk=64)
    index = worker.evalkit.RetrievalIndex.single_set(z, labels)
    assert worker.evalkit.evaluate_retrieval(index, inputs.RETRIEVAL_KS).to_dict() == expected


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_cli("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
