"""Unused-import guard: every imported name in the repository is referenced.

An import nobody uses costs start-up time (``repro-reduce`` compiles each
imported module from source when bytecode caching is off) and hides which
module a file really depends on.  This test walks every ``import`` and
``from ... import`` statement, top-level or nested, with :mod:`ast`.  A name
counts as referenced if the file loads it anywhere (annotations included,
quoted ones too), lists it in ``__all__``, or marks its import ``# noqa: F401``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from tests.helpers import loaded_names

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "examples")


def _referenced(tree: ast.AST):
    """Every name ``tree`` loads (quoted annotations included) or lists in ``__all__``."""
    names = loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names.update(
                sub.value for sub in ast.walk(node.value)
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            )
    return names


def unused_imports(source: str, filename: str = "<source>"):
    """``(line, name)`` of every imported name ``source`` never references."""
    tree = ast.parse(source, filename)
    lines = source.splitlines()
    referenced = _referenced(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in referenced:
                unused.append((node.lineno, name))
    return sorted(unused)


def _scanned_files():
    for directory in SCANNED:
        yield from sorted((ROOT / directory).rglob("*.py"))


def test_no_unused_imports():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in _scanned_files()
        for line, name in unused_imports(path.read_text(), str(path))
    ]
    assert not offenders, "unused imports:\n" + "\n".join(offenders)


def test_guard_flags_unused_and_honours_the_exemptions():
    source = '''
from __future__ import annotations
import os
import json  # noqa: F401
from typing import TYPE_CHECKING, List
from pathlib import Path
from collections import OrderedDict
if TYPE_CHECKING:
    from decimal import Decimal
    from fractions import Fraction
__all__ = ["OrderedDict"]

def f(values: List[Decimal]) -> "Fraction":
    def g():
        import re
    return values
'''
    assert unused_imports(source) == [(3, "os"), (6, "Path"), (15, "re")]


def test_guard_sees_the_repository():
    names = {path.relative_to(ROOT).as_posix() for path in _scanned_files()}
    assert {"src/repro/cli.py", "tests/test_layering.py",
            "benchmarks/bench_utils.py"} <= names
