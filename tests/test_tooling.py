"""The benchmark under ``perfbench/`` reaches into the package by name: its
tracer wraps attributes listed in ``tracer.TARGETS`` and its block probes
build ``NodeBlock``, ``EdgeBlock`` and ``LambdaHead`` directly. These checks
fail the fast suite when a rename or a signature change would break
``perfbench/run.py --trace 1``. They only read ``perfbench/``.

The pytest settings in ``pyproject.toml``, the compare step of
``tools/same_outputs.py``, the rule that the package's modules hold only
code that training or a command runs and the size of a smoke step's tape
are checked here too."""

import ast
import importlib
import importlib.util
import inspect
import json
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from hngen import autodiff as ad
from hngen import cacai, cli, datakit, gcl, losses, trainer

REPO = Path(__file__).resolve().parent.parent
TRACER = REPO / "perfbench" / "tracer.py"

# a recipe that trains, evaluates and checkpoints in well under a second
TINY = {
    "dataset": {"num_classes": 4, "samples_per_class": 12, "input_dim": 6, "seed": 3},
    "backbone": {"hidden_dims": [8], "embed_dim": 8},
    "train": {"epochs": 1, "batch_classes": 3, "batch_instances": 2, "seed": 5},
    "eval": {"ks": [1, 2], "holdout_per_class": 3},
}


def tracer_targets() -> list[tuple[str, str, str]]:
    """``tracer.TARGETS`` read from the source, without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


@pytest.mark.parametrize("span, module, path", tracer_targets())
def test_tracer_target_resolves(span, module, path):
    owner = importlib.import_module(f"hngen.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), span


def test_one_smoke_epoch_calls_every_traced_span(tmp_path, monkeypatch):
    # A span whose target training no longer calls reads zero calls in the
    # per-layer table instead of failing: the synthesis node calling its
    # distance kernel under a name the tracer does not wrap would hide that
    # kernel's time. Each target is wrapped here as the tracer wraps it, by
    # its attribute, and one epoch of the smoke config must call every one.
    calls = {}
    for span, module, path in tracer_targets():
        owner = importlib.import_module(f"hngen.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        calls[span] = 0

        def counted(*args, _fn=getattr(owner, attr), _span=span, **kwargs):
            calls[_span] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    cfg = cli.resolve_config(str(REPO / "configs" / "smoke.json"), {"train": {"epochs": 1}})
    cli._fit_one(cfg, str(tmp_path), quiet=True)
    assert [span for span, n in calls.items() if n == 0] == []


def test_block_probe_constructors_build():
    # the positional signatures and calls of worker.block_probes
    dim, b = 64, 4
    rng = np.random.default_rng(0)
    labels = np.tile([0, 1], b // 2)
    v = ad.Tensor(rng.standard_normal((b, dim)), requires_grad=True)
    e = ad.Tensor(rng.standard_normal((b, b, dim)), requires_grad=True)
    probes = [
        (gcl.NodeBlock(dim, 2, 4, rng)(v, e, labels), (b, dim)),
        (gcl.EdgeBlock(dim, 2, 4, rng)(e, v), (b * (b + 1) // 2, dim)),
        (cacai.LambdaHead(dim, rng)(e), (b, b, dim)),
    ]
    for out, shape in probes:
        assert out.shape == shape
        out.sum().backward()


def test_mistyped_marker_fails_collection(tmp_path):
    # a typo in ``slow`` must not silently put the smoke run in the fast set
    (tmp_path / "test_typo.py").write_text(
        "import pytest\n\n@pytest.mark.slwo\ndef test_x():\n    pass\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_typo.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode != 0
    assert "'slwo' not found in `markers`" in run.stdout


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_outputs_compare_flags_one_flipped_blob_byte(tmp_path, capsys):
    tool = _load_tool("same_outputs")
    tool.run_side(REPO / "src", tmp_path / "a", {"tiny": TINY})
    status = json.loads((tmp_path / "a" / "tiny" / "status.json").read_text())
    assert status == {"train": 0, "eval": 0, "inspect": 0, "ablate": 0}
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    assert tool.report(*tool.compare(tmp_path / "a", tmp_path / "b")) == 0

    blob = next((tmp_path / "b").glob("tiny/runs/*/checkpoints/epoch_001/gcl.bin"))
    original = blob.read_bytes()
    data = bytearray(original)
    data[-1] ^= 1
    blob.write_bytes(bytes(data))
    diffs, _ = tool.compare(tmp_path / "a", tmp_path / "b")
    # the flipped byte is the last of the last tensor, in name order
    last = sorted(json.loads((blob.parent / "manifest.json").read_text())["groups"]["gcl"])[-1]
    gap = abs(np.frombuffer(original, "<f8")[-1] - np.frombuffer(data, "<f8")[-1])
    assert diffs == [f"tiny: runs/checkpoints/epoch_001/gcl.bin differs\n"
                     f"    {last}: max abs diff {gap:.3g}"]
    assert tool.report(diffs, []) == 1
    assert "DIFFERS" in capsys.readouterr().out

    blob.write_bytes(original[:-1])
    diffs, _ = tool.compare(tmp_path / "a", tmp_path / "b")
    assert diffs == [f"tiny: runs/checkpoints/epoch_001/gcl.bin differs\n"
                     f"    unreadable: {blob}: parameter blob holds {len(original) - 1} bytes, "
                     f"the manifest's shapes need {len(original)}"]

    # each side's blobs are read by that side's own manifest, so a checkpoint
    # format change still lists each differing tensor
    blob.write_bytes(bytes(data))
    manifest_path = blob.parent / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] += 1
    manifest_path.write_text(json.dumps(manifest))
    diffs, _ = tool.compare(tmp_path / "a", tmp_path / "b")
    assert diffs == [f"tiny: runs/checkpoints/epoch_001/gcl.bin differs\n"
                     f"    {last}: max abs diff {gap:.3g}",
                     "tiny: runs/checkpoints/epoch_001/manifest.json differs"]


TRAINING_MODULES = ("autodiff", "gcl", "cacai", "losses", "backbone", "kernels", "trainer",
                    "datakit", "evalkit", "cli")

# what neither training nor the commands call, each with its only caller
NOT_RUN_IN_TRAINING = {
    "autodiff.Module.zero_grad": "perfbench's block probes",
    "gcl.NodeBlock.__call__": "perfbench's block probes",
    "kernels.active_backend": "perfbench's environment record",
    "datakit.LabeledBatch.size": "perfbench's train-mid item count",
    "trainer.Trainer._dump_diagnostics": "the numeric abort, which test_trainer.py covers",
}


def _defined_functions() -> dict[str, object]:
    """Name -> function of every function, method (dunders included) and
    property getter whose code lies in a training module's own file. The
    file, not ``__module__``, decides: the ``__init__``, ``__repr__`` and
    ``__eq__`` that ``dataclass`` generates name the training module as
    their ``__module__`` but are compiled from a string."""
    found = {}
    for module_name in TRAINING_MODULES:
        module = importlib.import_module(f"hngen.{module_name}")

        def visit(prefix, namespace):
            for name, value in vars(namespace).items():
                if isinstance(value, property):
                    value = value.fget
                elif isinstance(value, (staticmethod, classmethod)):
                    value = value.__func__
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    visit(f"{prefix}{name}.", value)
                elif callable(value) and getattr(
                    getattr(inspect.unwrap(value), "__code__", None), "co_filename", None
                ) == module.__file__:
                    found[f"{module_name}.{prefix}{name}"] = value

        visit("", module)
    return found


def _run_every_command(work: Path) -> None:
    """Each subcommand once on the tiny recipe: ``synth-data`` to CSV and to
    ``.bin``, ``train`` from the binary file, ``eval`` on the holdout, with
    ``--data`` and with ``--data``/``--gallery``, ``inspect`` and a one-run
    ``ablate``."""
    work.mkdir()
    csv_path, bin_path, cfg_path = work / "data.csv", work / "data.bin", work / "cfg.json"
    spec = TINY["dataset"]
    synth = ["synth-data", "--classes", str(spec["num_classes"]), "--per-class",
             str(spec["samples_per_class"]), "--dim", str(spec["input_dim"])]
    for path in (csv_path, bin_path):
        assert cli.main(synth + ["--out", str(path)]) == 0
    cfg_path.write_text(json.dumps({**TINY, "dataset": {**spec, "path": str(bin_path)}}))
    assert cli.main(["train", "--config", str(cfg_path), "--out-dir", str(work / "runs")]) == 0
    ckpt = str(next((work / "runs").glob("*/checkpoints/epoch_001")))
    for i, data in enumerate([[], ["--data", str(csv_path)],
                              ["--data", str(csv_path), "--gallery", str(bin_path)]]):
        assert cli.main(["eval", "--checkpoint", ckpt, "--out-dir", str(work / f"eval{i}"),
                         *data]) == 0
    assert cli.main(["inspect", "--checkpoint", ckpt, "--out-dir", str(work / "inspect")]) == 0
    assert cli.main(["ablate", "--config", str(cfg_path), "--arms", "full", "--seeds",
                     str(TINY["train"]["seed"]), "--out-dir", str(work / "ablate")]) == 0


def test_every_training_function_runs(tmp_path):
    # One epoch of every acceptance config, then every command, under a
    # profiler: a function the package's modules define that none of them
    # calls is test-only code, which belongs under tests/.
    overrides = _load_tool("same_outputs").ACCEPTANCE
    functions = _defined_functions()
    for fn in functions.values():
        if hasattr(fn, "cache_clear"):  # a cached body runs only on a miss
            fn.cache_clear()
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    for name, override in overrides.items():
        recipe = {**TINY, "train": {**TINY["train"], **override.get("train", {}), "epochs": 1}}
        sys.setprofile(profile)
        try:
            cli._fit_one(cli.resolve_config(None, recipe), str(tmp_path / name), quiet=True)
        finally:
            sys.setprofile(None)
    sys.setprofile(profile)
    try:
        _run_every_command(tmp_path / "commands")
    finally:
        sys.setprofile(None)
    never_ran = {name for name, fn in functions.items()
                 if inspect.unwrap(fn).__code__ not in ran}
    assert never_ran - NOT_RUN_IN_TRAINING.keys() == set()
    assert NOT_RUN_IN_TRAINING.keys() - never_ran == set()  # no stale entry


# Tape nodes, the outputs recorded with parents, of one train_step on
# configs/smoke.json: one per loss term, and 48 for the rest (the backbone
# with its one-node L2 normalization, both stages' graph and λ head, one
# synthesis node per stage, and the sums of the loss terms). Stage 1's ops on
# the detached embeddings alone record nothing. Stage 2 reads λ through
# sg(λ), ``Tensor.detach`` on its head's output: the head's two nodes (its
# ``linear`` and ``sigmoid``, +2 over an untaped head) and the last edge
# step's nodes are freed before the backward pass
# (test_stage2_frees_its_last_edge_step). Each stage's last edge step
# computes only the cross-class rows, the ones a loss reads, so it gathers
# their states first: one ``take`` per stage.
SMOKE_STEP_TAPE_NODES = 53
SMOKE_STEP_LOSSES = ("j_gen", "j_cz", "j_gca", "j_syn", "np_loss")


def smoke_trainer(tmp_path) -> tuple[trainer.Trainer, datakit.LabeledBatch]:
    """A trainer on configs/smoke.json and its first batch."""
    cfg = cli.resolve_config(str(REPO / "configs" / "smoke.json"))
    tr = trainer.Trainer(cli.build_dataset(cfg), None, cli.train_config_from(cfg),
                         cli.backbone_config_from(cfg), tmp_path)
    return tr, datakit.sample_balanced(tr.train_set, tr.cfg.batch_classes,
                                       tr.cfg.batch_instances, tr.sampler_rng)


def test_smoke_step_tape_size(tmp_path, monkeypatch):
    # Each loss term is one fused node; a change that splits one, or adds
    # ops elsewhere, changes the count and fails here.
    tr, batch = smoke_trainer(tmp_path)
    made = {"outside the losses": 0, **{name: 0 for name in SMOKE_STEP_LOSSES}}
    inside = ["outside the losses"]
    make = ad._make

    def counting_make(data, parents, backward):
        out = make(data, parents, backward)
        made[inside[-1]] += bool(out._parents)
        return out

    def attributed(name, fn):
        def call(*args, **kwargs):
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return call

    monkeypatch.setattr(ad, "_make", counting_make)
    for name in SMOKE_STEP_LOSSES:
        monkeypatch.setattr(losses, name, attributed(name, getattr(losses, name)))
    tr.train_step(batch)
    assert {name: made[name] for name in SMOKE_STEP_LOSSES} == dict.fromkeys(SMOKE_STEP_LOSSES, 1)
    assert sum(made.values()) == SMOKE_STEP_TAPE_NODES


def test_stage2_frees_its_last_edge_step(tmp_path, monkeypatch):
    # Stage 2 reads λ through sg(λ), so no loss reads its last edge step's
    # states: nothing may hold them, or their tape, through the backward pass.
    # At K=1 that step is stage 2's only edge step. ``Tensor`` has
    # ``__slots__``, so the weak references are to the states' arrays.
    tr, batch = smoke_trainer(tmp_path)
    assert tr.cfg.k_steps == 1
    in_stage2, outputs, alive = [False], [], []
    edge_call, backward, stage2 = gcl.EdgeBlock.__call__, ad.Tensor.backward, tr._stage2

    def recording_edge_call(*args, **kwargs):
        out = edge_call(*args, **kwargs)
        if in_stage2[0]:
            outputs.append(weakref.ref(out.data))
        return out

    def counting_backward(self, *args, **kwargs):
        if in_stage2[0]:
            alive.append(sum(ref() is not None for ref in outputs))
        return backward(self, *args, **kwargs)

    def flagged_stage2(*args, **kwargs):
        in_stage2[0] = True
        try:
            return stage2(*args, **kwargs)
        finally:
            in_stage2[0] = False

    monkeypatch.setattr(gcl.EdgeBlock, "__call__", recording_edge_call)
    monkeypatch.setattr(ad.Tensor, "backward", counting_backward)
    monkeypatch.setattr(tr, "_stage2", flagged_stage2)
    tr.train_step(batch)
    assert len(outputs) == 1 and alive == [0]
