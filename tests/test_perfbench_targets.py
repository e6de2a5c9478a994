"""The functions perfbench wraps by name still exist in ``src``.

``perfbench/spans.py`` installs its span wrappers by ``module:attribute``
path.  A rename in ``src`` would otherwise surface only when the benchmark
runs; resolving every target here fails the unit suite instead.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "module_name, path",
    [(module_name, path) for _, module_name, path in spans.TARGETS],
    ids=[f"{module_name}:{path}" for _, module_name, path in spans.TARGETS],
)
def test_target_resolves(module_name, path):
    _, _, raw = spans._resolve(module_name, path)
    assert callable(raw) or isinstance(raw, (classmethod, staticmethod))


def test_idle_targets_are_targets():
    keys = {f"{module_name}:{path}" for _, module_name, path in spans.TARGETS}
    assert spans.IDLE_TARGETS <= keys
