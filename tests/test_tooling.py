"""The benchmark under ``perfbench/`` reaches into the package by name: its
tracer wraps attributes listed in ``tracer.TARGETS`` and its block probes
build ``NodeBlock``, ``EdgeBlock`` and ``LambdaHead`` directly. These checks
fail the fast suite when a rename or a signature change would break
``perfbench/run.py --trace 1``. They only read ``perfbench/``.

The pytest settings in ``pyproject.toml`` are checked here too."""

import ast
import importlib
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
        (gcl.EdgeBlock(dim, 2, 4, rng)(e, v), (b, b, dim)),
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
