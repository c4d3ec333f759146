"""The benchmark under ``perfbench/`` reaches into the package by name: its
tracer wraps attributes listed in ``tracer.TARGETS`` and its block probes
build ``NodeBlock``, ``EdgeBlock`` and ``LambdaHead`` directly. These checks
fail the fast suite when a rename or a signature change would break
``perfbench/run.py --trace 1``. They only read ``perfbench/``.

The pytest settings in ``pyproject.toml`` and the compare step of
``tools/same_outputs.py`` are checked here too."""

import ast
import importlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hngen import autodiff as ad
from hngen import cacai, gcl

REPO = Path(__file__).resolve().parent.parent
TRACER = REPO / "perfbench" / "tracer.py"


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
    tiny = {
        "dataset": {"num_classes": 4, "samples_per_class": 12, "input_dim": 6, "seed": 3},
        "backbone": {"hidden_dims": [8], "embed_dim": 8},
        "train": {"epochs": 1, "batch_classes": 3, "batch_instances": 2, "seed": 5},
        "eval": {"ks": [1, 2], "holdout_per_class": 3},
    }
    tool.run_side(REPO / "src", tmp_path / "a", {"tiny": tiny})
    status = json.loads((tmp_path / "a" / "tiny" / "status.json").read_text())
    assert status == {"train": 0, "eval": 0, "inspect": 0}
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    assert tool.report(*tool.compare(tmp_path / "a", tmp_path / "b")) == 0

    blob = next((tmp_path / "b").glob("tiny/runs/*/checkpoints/epoch_001/gcl.bin"))
    data = bytearray(blob.read_bytes())
    data[-1] ^= 1
    blob.write_bytes(bytes(data))
    diffs, _ = tool.compare(tmp_path / "a", tmp_path / "b")
    assert diffs == ["tiny: runs/checkpoints/epoch_001/gcl.bin differs"]
    assert tool.report(diffs, []) == 1
    assert "DIFFERS" in capsys.readouterr().out
