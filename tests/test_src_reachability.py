"""Reachability guard: every ``def`` and ``class`` in ``src/repro`` has a caller.

A definition that only tests reach is code no command, example or benchmark
runs: it costs reading time and import time and still has to be kept
correct.  This test collects every non-dunder ``def``/``class`` in
``src/repro`` (methods and nested functions included) with :mod:`ast`.  A
definition counts as reached when an ``ast.Name`` or ``ast.Attribute``
anywhere in ``src``, ``examples``, ``benchmarks`` or ``perfbench`` loads its
name, or when perfbench's ``spans.TARGETS`` names it (the benchmark wraps
those by attribute path).  Tests never count as callers.

A ``self.x`` or ``cls.x`` load inside a class body is resolved to that
class: it reaches a method ``x`` of the class, of its bases and of its
subclasses (classes are matched by name), and nothing else.  Every other
attribute load still matches by name alone, and that is the blind spot: a
dead method whose name a live one shares counts as reached once any
``obj.name`` loads it (``trainer.evaluate()`` reaches every ``evaluate``),
as does a class whose name is also a variable elsewhere.  Such code has to
be found by tracing the commands.

:data:`ALLOWED` keeps the unreached definitions that stay, one reason each.
A key is a module path under ``src/repro`` (every unreached definition in
it) or ``path:QualName``.  An entry that no longer exists, or whose code has
gained a caller, fails the test too, so the map cannot go stale.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

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
}


def definitions(source: str) -> List[Tuple[str, str, Optional[str]]]:
    """``(qualified name, name, owner)`` of every non-dunder def/class in
    ``source``; ``owner`` names the class whose body holds it, else ``None``."""
    found: List[Tuple[str, str, Optional[str]]] = []

    def visit(node: ast.AST, prefix: str, owner: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    found.append((prefix + name, name, owner))
                visit(child, f"{prefix}{name}.",
                      name if isinstance(child, ast.ClassDef) else None)
            else:
                visit(child, prefix, owner)

    visit(ast.parse(source), "", None)
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


@dataclasses.dataclass
class Reached:
    """What the callers load: bare names, and ``self.x``/``cls.x`` per class."""

    names: Set[str] = dataclasses.field(default_factory=set)
    members: Set[Tuple[str, str]] = dataclasses.field(default_factory=set)
    bases: Dict[str, Set[str]] = dataclasses.field(default_factory=dict)

    def _related(self, owner: str) -> Set[str]:
        """``owner``, its bases and its subclasses, transitively."""
        subclasses: Dict[str, Set[str]] = {}
        for cls, bases in self.bases.items():
            for base in bases:
                subclasses.setdefault(base, set()).add(cls)
        related = {owner}
        for links in (self.bases, subclasses):
            frontier = [owner]
            while frontier:
                for other in links.get(frontier.pop(), ()):
                    if other not in related:
                        related.add(other)
                        frontier.append(other)
        return related

    def reaches(self, name: str, owner: Optional[str]) -> bool:
        if name in self.names:
            return True
        return owner is not None and any(
            (cls, name) in self.members for cls in self._related(owner))


class _Loads(ast.NodeVisitor):
    """Adds one source's loads and class bases to a :class:`Reached`."""

    def __init__(self, reached: Reached) -> None:
        self.reached = reached
        self.classes: List[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.reached.bases.setdefault(node.name, set()).update(
            base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
            for base in node.bases)
        for child in [*node.decorator_list, *node.bases, *node.keywords]:
            self.visit(child)
        self.classes.append(node.name)
        for child in node.body:
            self.visit(child)
        self.classes.pop()

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            value = node.value
            if self.classes and isinstance(value, ast.Name) and value.id in ("self", "cls"):
                self.reached.members.add((self.classes[-1], node.attr))
            else:
                self.reached.names.add(node.attr)
        self.generic_visit(node)


def reached_names(callers: Iterable[str]) -> Reached:
    """Everything the ``callers`` sources load (names in quoted annotations too)."""
    reached = Reached()
    for source in callers:
        tree = ast.parse(source)
        reached.names |= loaded_names(tree)
        _Loads(reached).visit(tree)
    return reached


def unreached(modules: Dict[str, str], reached: Reached) -> List[str]:
    """``path:QualName`` of each definition in ``modules`` that ``reached`` misses."""
    return [
        f"{path}:{qualname}"
        for path, source in sorted(modules.items())
        for qualname, name, owner in definitions(source)
        if not reached.reaches(name, owner)
    ]


def _package_modules() -> Dict[str, str]:
    return {path.relative_to(PACKAGE).as_posix(): path.read_text()
            for path in sorted(PACKAGE.rglob("*.py"))}


def _repository_unreached() -> List[str]:
    reached = reached_names(path.read_text() for directory in CALLERS
                            for path in sorted((ROOT / directory).rglob("*.py")))
    reached.names |= span_target_names(SPANS.read_text())
    return unreached(_package_modules(), reached)


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
        if path not in modules or (qualname and qualname not in {
                entry[0] for entry in definitions(modules[path])}):
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
    def lid(self): pass
    def hinge(self): return self.latch()
    class Inner:
        def wrapped(self): pass
class Chest(Box):
    def latch(self): pass
class Crate:
    def pack(self): return self.lid()
class Quoted: pass
'''
    caller = '''
from pkg import used, Box, Chest, Crate
used()
Box().opened()
Chest().hinge()
Crate().pack()
print(Box.Inner)
def f(x: "Quoted") -> None: pass
'''
    # ``self.latch`` in Box reaches its subclass's method; ``self.lid`` in
    # the unrelated Crate does not reach Box's.
    assert unreached({"pkg.py": module}, reached_names([module, caller])) == [
        "pkg.py:unused", "pkg.py:Box.sealed", "pkg.py:Box.lid", "pkg.py:Box.Inner.wrapped"]
    assert span_target_names(
        'TARGETS: list = [("a.b", "pkg", "Box.Inner.wrapped")]\n'
    ) == {"Box", "Inner", "wrapped"}


def test_guard_sees_the_repository():
    names = {f"{path}:{qualname}" for path, source in _package_modules().items()
             for qualname, _, _ in definitions(source)}
    assert {"training.py:Trainer.train", "cli.py:main",
            "accelerator/batched.py:evaluate_chip_accuracies"} <= names
    assert "evaluate_chip_accuracies" in span_target_names(SPANS.read_text())
