"""Reachability guard: every ``def`` and ``class`` in ``src/repro`` has a caller.

A definition that only tests reach is code no command, example or benchmark
runs: it costs reading time and import time and still has to be kept
correct.  This test collects every non-dunder ``def``/``class`` in
``src/repro`` (methods and nested functions included) with :mod:`ast`.  A
definition counts as reached when an ``ast.Name`` or ``ast.Attribute``
anywhere in ``src``, ``examples``, ``benchmarks`` or ``perfbench`` loads its
name, or when perfbench's ``spans.TARGETS`` names it (the benchmark wraps
those by attribute path).  Tests never count as callers.

The match is by name alone, and that is its blind spot: a dead definition
whose name a live one shares counts as reached.  A method ``apply`` beside
``Function.apply``, a function ``relu`` beside ``Tensor.relu``, a class whose
name is also a local variable elsewhere: the scan cannot tell them apart, so
such code has to be found by grep.

:data:`ALLOWED` keeps the unreached definitions that stay, one reason each.
A key is a module path under ``src/repro`` (every unreached definition in
it) or ``path:QualName``.  An entry that no longer exists, or whose code has
gained a caller, fails the test too, so the map cannot go stale.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

from tests.helpers import loaded_names

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLERS = ("src", "examples", "benchmarks", "perfbench")
SPANS = ROOT / "perfbench" / "spans.py"

ALLOWED: Dict[str, str] = {
    "analysis/statistics.py":
        "confidence intervals for the seed harness; ROADMAP item 2 gives them a caller",
    "core/overhead.py":
        "retraining-cost model for the paper-scale headline; ROADMAP item 10 gives it a caller",
    "campaign/transport.py:find_free_port":
        "the distributed-campaign job of .github/workflows/ci.yml picks its "
        "coordinator port with it from a shell step",
    "nn/functional.py:cross_entropy":
        "serial reference loss of tests/helpers.py ReferenceTrainer, which "
        "tests/test_batched_fat.py::TestTrainerEquivalence (label smoothing in "
        "test_label_smoothing_composition) compares the stacked loss against",
}


def definitions(source: str) -> List[Tuple[str, str]]:
    """``(qualified name, name)`` of every non-dunder def/class in ``source``."""
    found: List[Tuple[str, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    found.append((prefix + name, name))
                visit(child, f"{prefix}{name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def span_target_names(source: str) -> Set[str]:
    """Every name in the attribute paths of a ``TARGETS`` list literal."""
    for node in ast.parse(source).body:
        target = node.target if isinstance(node, ast.AnnAssign) else (
            node.targets[0] if isinstance(node, ast.Assign) else None)
        if isinstance(target, ast.Name) and target.id == "TARGETS":
            return {part for _, _, path in ast.literal_eval(node.value)
                    for part in path.split(".")}
    raise AssertionError("no TARGETS list found")


def reached_names(callers: Iterable[str]) -> Set[str]:
    """Every name (attributes included) the ``callers`` sources load."""
    reached: Set[str] = set()
    for source in callers:
        reached |= loaded_names(ast.parse(source), attributes=True)
    return reached


def unreached(modules: Dict[str, str], reached: Set[str]) -> List[str]:
    """``path:QualName`` of each definition in ``modules`` whose name is not reached."""
    return [
        f"{path}:{qualname}"
        for path, source in sorted(modules.items())
        for qualname, name in definitions(source)
        if name not in reached
    ]


def _package_modules() -> Dict[str, str]:
    return {path.relative_to(PACKAGE).as_posix(): path.read_text()
            for path in sorted(PACKAGE.rglob("*.py"))}


def _repository_unreached() -> List[str]:
    reached = reached_names(path.read_text() for directory in CALLERS
                            for path in sorted((ROOT / directory).rglob("*.py")))
    return unreached(_package_modules(), reached | span_target_names(SPANS.read_text()))


def _allowed(entry: str) -> bool:
    return entry in ALLOWED or entry.split(":")[0] in ALLOWED


def test_every_src_definition_has_a_caller():
    offenders = [entry for entry in _repository_unreached() if not _allowed(entry)]
    assert not offenders, (
        "definitions only tests reach (delete them, or add an ALLOWED entry "
        "with its reason):\n" + "\n".join(offenders)
    )


def test_allowed_entries_are_current():
    modules = _package_modules()
    left = _repository_unreached()
    stale = []
    for key in ALLOWED:
        path, _, qualname = key.partition(":")
        if path not in modules or (
            qualname and qualname not in dict(definitions(modules[path]))):
            stale.append(f"{key}: no such definition")
        elif not any(entry == key or (not qualname and entry.startswith(path + ":"))
                     for entry in left):
            stale.append(f"{key}: now has a caller")
    assert not stale, "stale ALLOWED entries:\n" + "\n".join(stale)


def test_guard_flags_uncalled_definitions():
    module = '''
def used(): pass
def unused(): pass
class Box:
    def opened(self): pass
    def sealed(self): pass
    def __len__(self): return 0
    class Inner:
        def wrapped(self): pass
class Quoted: pass
'''
    caller = '''
from pkg import used, Box
used()
Box().opened()
print(Box.Inner)
def f(x: "Quoted") -> None: pass
'''
    assert unreached({"pkg.py": module}, reached_names([caller])) == [
        "pkg.py:unused", "pkg.py:Box.sealed", "pkg.py:Box.Inner.wrapped"]
    assert span_target_names(
        'TARGETS: list = [("a.b", "pkg", "Box.Inner.wrapped")]\n'
    ) == {"Box", "Inner", "wrapped"}


def test_guard_sees_the_repository():
    names = {f"{path}:{qualname}" for path, source in _package_modules().items()
             for qualname, _ in definitions(source)}
    assert {"training.py:Trainer.train", "cli.py:main",
            "accelerator/batched.py:evaluate_chip_accuracies"} <= names
    assert "evaluate_chip_accuracies" in span_target_names(SPANS.read_text())
