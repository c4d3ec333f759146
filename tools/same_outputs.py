"""Check that two source trees compute the same outputs for every command.

    python tools/same_outputs.py PARENT_SRC CHANGE_SRC [--work DIR]

PARENT_SRC and CHANGE_SRC are ``src/`` directories, say of a ``git clone`` of
the parent commit and of the working tree. Under each, with BLAS and OpenMP
pinned to one thread, the script runs ``hngen train`` on the acceptance
configs below, then ``hngen eval`` and ``hngen inspect`` on each run's last
checkpoint; on the first config it also runs ``hngen ablate`` over two arms
with the config's seed, and ``hngen synth-data`` with flags for each of the
config's dataset settings, writing a CSV and a ``.bin`` file. It then
compares, config by config:

* every checkpoint's ``.bin`` blobs, ``history.json``, the inspect CSVs,
  ``ablation_table.csv`` and both synth-data files, byte for byte; under a
  checkpoint blob that differs, each differing tensor is listed with its
  largest absolute difference, each side's blob laid out by its own
  checkpoint's manifest;
* ``train_log.jsonl`` without ``timestamp``, manifests without
  ``resolved_config`` and ``config_hash``, ``metric_report.json``, and
  ``metrics.csv`` without its checkpoint column;
* the exit code of each command: outputs are compared where a command
  succeeds on both sides, and a command that succeeds on one side only is a
  difference.

The key paths where the two ``resolved_config.json`` files differ are
printed as notes. The exit status is 1 if any computed output differs, else 0.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SMOKE = json.loads((REPO / "configs" / "smoke.json").read_text())

# name -> overrides of configs/smoke.json
ACCEPTANCE = {
    "smoke": {},
    "proxy_anchor": {"train": {"epochs": 3, "metric_loss": "proxy_anchor"}},
    "k2_unshared": {"train": {"epochs": 3, "k_steps": 2, "share_weights_across_steps": False}},
    # one edge block runs every step: on every row, then on the final step's
    "k2_shared": {"train": {"epochs": 3, "k_steps": 2, "share_weights_across_steps": True}},
    **{arm: {"train": {"epochs": 3, "ablation": arm}} for arm in (
        "single_coeff", "no_global", "no_hadamard", "no_rw", "baseline", "baseline_gnn")},
    # per-step blocks of arms that build fewer: no node blocks, no K-th edge block
    **{f"{arm}_k2_unshared": {"train": {"epochs": 3, "ablation": arm, "k_steps": 2,
                                        "share_weights_across_steps": False}}
       for arm in ("no_global", "single_coeff")},
}
COMMANDS = ("train", "eval", "inspect", "ablate", "synth-data")
ABLATE_ARMS = "full,baseline"
# the synth-data flag of each dataset setting
SYNTH_FLAGS = {"num_classes": "--classes", "samples_per_class": "--per-class",
               "input_dim": "--dim", "class_center_scale": "--center-scale",
               "within_class_stddev": "--stddev", "overlap_factor": "--overlap",
               "seed": "--seed"}
SYNTH_OUTPUTS = ("synth-data.csv", "synth-data.bin")


def overlay(base: dict, overrides: dict) -> dict:
    cfg = copy.deepcopy(base)
    for section, values in overrides.items():
        cfg[section].update(values)
    return cfg


def run_side(src: Path, work: Path, configs: dict[str, dict]) -> None:
    """Train, eval and inspect every config under ``src``, and ablate the
    first and write its synthetic dataset; each config's outputs and exit
    codes (``status.json``) go to ``work/NAME``."""
    threads = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env = {**os.environ, **threads, "PYTHONPATH": str(Path(src).resolve())}
    for n, (name, cfg) in enumerate(configs.items()):
        out = work / name
        out.mkdir(parents=True)
        (out / "config.json").write_text(json.dumps(cfg, indent=2))

        def hngen(*argv: str) -> int:
            return subprocess.run([sys.executable, "-m", "hngen", *argv], env=env,
                                  cwd=out, capture_output=True).returncode

        status = {"train": hngen("train", "--config", "config.json", "--out-dir", "runs")}
        ckpts = sorted((out / "runs").glob("*/checkpoints/epoch_*"))
        if ckpts:
            last = str(ckpts[-1].relative_to(out))
            status["eval"] = hngen("eval", "--checkpoint", last, "--out-dir", "eval")
            status["inspect"] = hngen("inspect", "--checkpoint", last, "--out-dir", "inspect")
        if n == 0:
            status["ablate"] = hngen("ablate", "--config", "config.json", "--arms", ABLATE_ARMS,
                                     "--seeds", str(cfg["train"]["seed"]), "--out-dir", "ablate")
            flags = [f"{SYNTH_FLAGS[k]}={v}" for k, v in cfg["dataset"].items() if k in SYNTH_FLAGS]
            # the worse exit code of the two writes
            status["synth-data"] = max(hngen("synth-data", *flags, "--out", name)
                                       for name in SYNTH_OUTPUTS)
        (out / "status.json").write_text(json.dumps(status))
        print(f"{src}: {name} {status}", flush=True)


def _key_paths(a, b, prefix: str = "") -> list[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        return [p for k in sorted(a.keys() | b.keys()) for p in _key_paths(
            a.get(k, "<absent>"), b.get(k, "<absent>"), f"{prefix}.{k}" if prefix else k)]
    return [] if a == b else [f"{prefix}: {a!r} -> {b!r}"]


def _normalized(path: Path):
    """The part of an output file that must match: bytes, or parsed content
    without the fields that record where and when it was written."""
    if path.name == "train_log.jsonl":
        lines = path.read_text().splitlines()
        return [{k: v for k, v in json.loads(line).items() if k != "timestamp"} for line in lines]
    if path.name == "manifest.json":
        manifest = json.loads(path.read_text())
        return {k: v for k, v in manifest.items() if k not in ("resolved_config", "config_hash")}
    if path.name == "metrics.csv":
        return [row[1:] for row in csv.reader(path.read_text().splitlines())]
    return path.read_bytes()


def _outputs(root: Path, command: str) -> dict[str, Path]:
    """Output files of one command by their path under ``root``, with the
    run directory's name (a hash of the resolved config) left out. Of
    ``ablate``'s, only the table: its runs repeat ``train``'s."""
    if command == "ablate":
        return {"ablate/ablation_table.csv": root / "ablate" / "ablation_table.csv"}
    if command == "synth-data":
        return {name: root / name for name in SYNTH_OUTPUTS}
    base = root / ("runs" if command == "train" else command)
    out = {}
    for p in base.rglob("*"):
        parts = p.relative_to(base).parts[1 if command == "train" else 0:]
        if p.is_file() and p.name != "resolved_config.json":
            out["/".join((base.name, *parts))] = p
    return out


def _read_blob(path: Path) -> dict[str, np.ndarray]:
    """A parameter blob's tensors, laid out by the manifest beside it: its
    group's tensors in name order, as raw little-endian float64. Nothing else
    of the checkpoint format is read, so the blobs of two format versions
    still compare tensor by tensor."""
    shapes = json.loads((path.parent / "manifest.json").read_text())["groups"][path.stem]
    counts = {name: math.prod(shapes[name]) for name in sorted(shapes)}
    size, need = path.stat().st_size, 8 * sum(counts.values())
    if size != need:
        raise ValueError(f"{path}: parameter blob holds {size} bytes, "
                         f"the manifest's shapes need {need}")
    flat = np.fromfile(path, dtype="<f8")
    out, start = {}, 0
    for name, n in counts.items():
        out[name] = flat[start:start + n].reshape(shapes[name])
        start += n
    return out


def _tensor_differences(a: Path, b: Path) -> list[str]:
    """One line per tensor that differs between two parameter blobs: its
    name and largest absolute difference, or why they cannot be compared."""
    try:
        ta, tb = _read_blob(a), _read_blob(b)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable: {exc}"]
    lines = []
    for name in sorted(ta.keys() | tb.keys()):
        x, y = ta.get(name), tb.get(name)
        if x is None or y is None or x.shape != y.shape:
            shapes = ["absent" if t is None else str(t.shape) for t in (x, y)]
            lines.append(f"{name}: shape {shapes[0]} -> {shapes[1]}")
        elif x.tobytes() != y.tobytes():
            lines.append(f"{name}: max abs diff {np.max(np.abs(x - y)):.3g}")
    return lines


def compare(a: Path, b: Path) -> tuple[list[str], list[str]]:
    """(differences, notes) between two ``run_side`` work directories."""
    diffs, notes = [], []
    for name in sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()}):
        if not (a / name / "status.json").exists() or not (b / name / "status.json").exists():
            diffs.append(f"{name}: ran on one side only")
            continue
        sa = json.loads((a / name / "status.json").read_text())
        sb = json.loads((b / name / "status.json").read_text())
        for command in COMMANDS:
            ca, cb = sa.get(command), sb.get(command)
            if ca != cb:
                line = f"{name}: {command} exit code {ca} -> {cb}"
                (diffs if 0 in (ca, cb) else notes).append(line)
            if ca != 0 or cb != 0:
                continue
            oa, ob = _outputs(a / name, command), _outputs(b / name, command)
            for key in sorted(oa.keys() | ob.keys()):
                if key not in oa or key not in ob:
                    diffs.append(f"{name}: {key} written on one side only")
                elif _normalized(oa[key]) != _normalized(ob[key]):
                    blob = command == "train" and key.endswith(".bin")
                    tensors = _tensor_differences(oa[key], ob[key]) if blob else []
                    diffs.append("\n    ".join([f"{name}: {key} differs"] + tensors))
        configs = [sorted((side / name / "runs").glob("*/resolved_config.json")) for side in (a, b)]
        if all(len(c) == 1 for c in configs):
            ra, rb = (json.loads(c[0].read_text()) for c in configs)
            notes += [f"{name}: resolved_config {p}" for p in _key_paths(ra, rb)]
    return diffs, notes


def report(diffs: list[str], notes: list[str]) -> int:
    for line in notes:
        print(f"note: {line}")
    for line in diffs:
        print(f"DIFFERS: {line}")
    print("outputs differ" if diffs else "outputs are identical")
    return 1 if diffs else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--work", type=Path, help="empty or new directory for the outputs")
    args = parser.parse_args(argv)
    configs = {name: overlay(SMOKE, overrides) for name, overrides in ACCEPTANCE.items()}
    work = args.work or Path(tempfile.mkdtemp(prefix="same_outputs-"))
    for side, src in (("parent", args.parent_src), ("change", args.change_src)):
        run_side(src, work / side, configs)
    print(f"outputs under {work}")
    return report(*compare(work / "parent", work / "change"))


if __name__ == "__main__":
    sys.exit(main())
