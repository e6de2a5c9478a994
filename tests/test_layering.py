"""Layering guard: the lower layers never import the campaign or experiment layers.

``repro.campaign`` and ``repro.experiments`` drive ``repro.core``; an import
the other way round (say, a ``core`` helper that calls the campaign engine)
would make a cycle.  This test walks every import statement, top-level or
nested in a function, of the lower layers with :mod:`ast`.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
LOWER_LAYERS = ("repro/core", "repro/accelerator", "repro/nn", "repro/training.py")
UPPER_LAYERS = ("repro.campaign", "repro.experiments")


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_modules(path: Path):
    """Every module an ``import`` or ``from ... import`` in ``path`` names."""
    package = _module_name(path)
    if path.name != "__init__.py":
        package = package.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def _lower_layer_files():
    for layer in LOWER_LAYERS:
        root = SRC / layer
        yield from ([root] if root.is_file() else sorted(root.rglob("*.py")))


def test_lower_layers_do_not_import_upper_layers():
    offenders = {}
    for path in _lower_layer_files():
        names = sorted({
            name for name in _imported_modules(path)
            if any(name == upper or name.startswith(upper + ".") for upper in UPPER_LAYERS)
        })
        if names:
            offenders[_module_name(path)] = names
    assert not offenders, f"lower layers import upper layers: {offenders}"


def test_nn_imports_no_backend():
    """``repro.nn`` holds tensors, layers and kernels; no compute backend."""
    offenders = {}
    for path in sorted((SRC / "repro/nn").rglob("*.py")):
        names = sorted({name for name in _imported_modules(path)
                        if name.startswith("repro.backends")})
        if names:
            offenders[_module_name(path)] = names
    assert not offenders, f"repro.nn imports a backend: {offenders}"


def test_guard_sees_the_lower_layers():
    names = {_module_name(path) for path in _lower_layer_files()}
    assert {"repro.core.reduce", "repro.accelerator.batched", "repro.nn.tensor",
            "repro.training"} <= names
