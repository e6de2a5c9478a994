"""Graph capture: record eager op chains into the backend IR.

Capture is trace-based record-and-replay.  The first execution of a hot chain
for a given input signature runs **eagerly, unchanged** — every op executes
exactly as before — while a module-global capture session records each op as
a :class:`~repro.backends.graph.Node` whose kernel closes over the eager
implementation.  Subsequent executions with the same signature replay the
compiled graph through the numpy backend instead of re-entering Python
dispatch per op.

The one capture entry point is :func:`recorded`: it wraps a raw-numpy block
(each layer of the stacked trainer's layer program in an eval pass, the
logits' unfold, mask enforcement) as a single named node.

Encoding rules (see :mod:`repro.backends.graph`) make replay safe across
batches and optimizer steps: fresh per-batch arrays become placeholders and
intermediate activations become node-output references.  Model parameters
are never node inputs: a layer's kernel reads its stacked weights when it
runs, so replay sees every optimizer step and mask enforcement.
"""

from __future__ import annotations

import contextlib
import weakref
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.backends.errors import BackendError
from repro.backends.graph import ConstRef, Graph, Node, NodeOutput, Placeholder, signature_of
from repro.observability import metrics

_ACTIVE: Optional["GraphCapture"] = None


class GraphCapture:
    """One in-flight capture session over a fixed set of graph inputs."""

    def __init__(self, inputs: Sequence[np.ndarray]) -> None:
        self.signature = signature_of(inputs)
        self.nodes: list = []
        # Registered arrays by ``id()``, each with a weak reference: ``id()``
        # values are only unique among live objects, so a lookup confirms the
        # array is still the one registered.  Intermediates are therefore not
        # pinned and die when the eager chain drops them, exactly as without
        # capture.  The inputs stay pinned (replay reads them as
        # placeholders); constants are pinned by their ``ConstRef``.
        self._refs: Dict[int, Tuple[weakref.ref, Any]] = {}
        self._inputs = tuple(inputs)
        for index, array in enumerate(self._inputs):
            self._register(array, Placeholder(index))

    def _register(self, array: np.ndarray, ref: Any) -> None:
        self._refs[id(array)] = (weakref.ref(array), ref)

    def _lookup(self, array: Any) -> Any:
        """The reference registered for ``array`` itself, else ``None``."""
        entry = self._refs.get(id(array))
        if entry is None or entry[0]() is not array:
            return None
        return entry[1]

    def _encode(self, value: Any) -> Any:
        if isinstance(value, np.ndarray):
            ref = self._lookup(value)
            return ref if ref is not None else ConstRef(value)
        return value

    def record(
        self,
        op: str,
        args: Sequence[Any],
        output: np.ndarray,
        kernel: Callable[..., np.ndarray],
    ) -> Node:
        node = Node(
            id=len(self.nodes),
            op=op,
            inputs=tuple(self._encode(arg) for arg in args),
            kernel=kernel,
            out_shape=tuple(output.shape),
            out_dtype=output.dtype,
        )
        self.nodes.append(node)
        self._register(output, NodeOutput(node.id))
        return node

    def finish(self, output: Any) -> Optional[Graph]:
        """Close the session; ``None`` when the output was not captured."""
        if not isinstance(output, np.ndarray):
            return None
        ref = self._lookup(output)
        if ref is None or not self.nodes:
            return None
        return Graph(signature=self.signature, nodes=self.nodes, output=ref)


@contextlib.contextmanager
def capture_graph(inputs: Sequence[np.ndarray]):
    """Record every op executed in the block into a fresh capture session."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise BackendError("nested graph capture is not supported")
    session = GraphCapture(inputs)
    _ACTIVE = session
    try:
        yield session
    finally:
        _ACTIVE = None


def recorded(
    op: str,
    inputs: Tuple[Any, ...],
    fn: Callable[..., np.ndarray],
) -> np.ndarray:
    """Execute ``fn(*inputs)`` eagerly, recording it as one node if capturing.

    ``fn`` doubles as the node's replay kernel, so it must be a closure whose
    free variables are either immutable for a fixed input signature or
    intentionally live (e.g. the stacked weights a replayed eval reads).
    The compiled graph keeps the
    kernel, so it must not close over the object that owns the graph's
    :class:`ChainCache`: that would be a reference cycle.
    """

    output = fn(*inputs)
    session = _ACTIVE
    if session is not None:
        if not isinstance(output, np.ndarray):
            raise BackendError(
                f"captured op returned {type(output).__name__}, expected ndarray",
                op=op,
            )
        session.record(op, inputs, output, fn)
    return output


_UNCACHABLE = object()


class ChainCache:
    """Signature-keyed cache of compiled graphs for one capture site.

    ``run`` executes the chain: on a signature miss it captures the eager
    execution and compiles the resulting graph with the backend; on a hit it
    replays the compiled graph.  Chains whose output cannot be traced back to
    recorded nodes are marked uncachable and permanently fall back to eager
    execution (counted as misses).
    """

    def __init__(self, backend: Any, name: str = "chain") -> None:
        self.backend = backend
        self.name = name
        self._compiled: Dict[Any, Any] = {}

    def run(self, inputs: Tuple[np.ndarray, ...], eager_fn: Callable[..., np.ndarray]) -> np.ndarray:
        backend_name = self.backend.name
        signature = signature_of(inputs)
        entry = self._compiled.get(signature)
        if entry is not None and entry is not _UNCACHABLE:
            metrics.counter("backend.graph_cache.hits", backend=backend_name).inc()
            with metrics.timer("backend.exec_seconds", backend=backend_name):
                return entry(inputs)
        metrics.counter("backend.graph_cache.misses", backend=backend_name).inc()
        if entry is _UNCACHABLE:
            return eager_fn(*inputs)
        with metrics.timer("backend.capture_seconds", backend=backend_name):
            with capture_graph(inputs) as session:
                result = eager_fn(*inputs)
            graph = session.finish(result)
            if graph is None:
                self._compiled[signature] = _UNCACHABLE
            else:
                self._compiled[signature] = self.backend.compile(graph)
        return result
