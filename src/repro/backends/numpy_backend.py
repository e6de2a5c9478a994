"""The numpy backend: replay captured graphs node by node.

Each node's kernel *is* the eager implementation (a closure recorded at
capture time), so replaying the node list in order reproduces the eager
path bit for bit.

Selection is a single choice: ``None`` keeps the eager path, ``"numpy"`` (or
a :class:`NumpyBackend`) replays captured graphs through this module.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.backends.errors import BackendError
from repro.backends.graph import Graph, resolve, signature_of


class CompiledGraph:
    """Execute a graph's nodes in recorded order."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph

    def __call__(self, inputs: Sequence[np.ndarray]) -> np.ndarray:
        graph = self.graph
        if signature_of(inputs) != graph.signature:
            raise BackendError(
                f"numpy backend executed with inputs {signature_of(inputs)!r} "
                f"but the graph was captured for {graph.signature!r}"
            )
        values: Dict[int, np.ndarray] = {}
        for node in graph.nodes:
            args = [resolve(ref, inputs, values) for ref in node.inputs]
            output = node.kernel(*args)
            if not isinstance(output, np.ndarray):
                raise BackendError(
                    f"kernel returned {type(output).__name__}, expected ndarray",
                    op=node.op,
                )
            if tuple(output.shape) != node.out_shape or output.dtype != node.out_dtype:
                raise BackendError(
                    f"kernel produced {tuple(output.shape)}/{output.dtype} but the "
                    f"graph recorded {node.out_shape}/{node.out_dtype}",
                    op=node.op,
                )
            values[node.id] = output
        return resolve(graph.output, inputs, values)


class NumpyBackend:
    """Replay executor — bit-identical to eager by construction."""

    name = "numpy"

    def compile(self, graph: Graph) -> CompiledGraph:
        return CompiledGraph(graph)

    def describe(self) -> str:
        return self.name


_NUMPY = NumpyBackend()


def get_backend(name: Union[str, NumpyBackend]) -> NumpyBackend:
    """The backend named ``name``; :class:`BackendError` for anything but numpy."""
    if isinstance(name, NumpyBackend):
        return name
    if name != "numpy":
        raise BackendError(f"unknown backend {name!r} (available: numpy)")
    return _NUMPY


def resolve_backend(name: Optional[Union[str, NumpyBackend]]) -> Optional[NumpyBackend]:
    """``None`` selects the eager path (returns ``None``); else :func:`get_backend`."""
    return None if name is None else get_backend(name)
