"""A small op-graph IR for the substrate's hot chains.

The IR follows the deeplink-style capture-then-lower split: eager execution
records each op as a :class:`Node` whose *kernel* is a closure over the exact
numpy code the eager path ran, and whose inputs are encoded as value
references.  A finished :class:`Graph` is then compiled by the numpy backend
and replayed for any batch with the same input signature.

Value references
----------------
``Placeholder(i)``
    The ``i``-th graph input — a fresh array supplied at every execution.
``NodeOutput(node_id)``
    The output of an earlier node in the same graph.
``ConstRef(value)``
    An array captured by reference: any other array a node reads, which
    replay passes as it stands when the graph runs.

Anything else is stored verbatim as a literal.  Shape-derived scalars frozen
this way are safe because compiled graphs are cached per input *signature*
(shape + dtype of every placeholder): a different shape simply captures a
different graph.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.backends.errors import BackendError


@dataclasses.dataclass(frozen=True)
class Placeholder:
    """Reference to the ``index``-th graph input."""

    index: int


@dataclasses.dataclass(frozen=True)
class NodeOutput:
    """Reference to the output of node ``node_id``."""

    node_id: int


class ConstRef:
    """An ndarray captured by reference."""

    __slots__ = ("value",)

    def __init__(self, value: np.ndarray) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ConstRef(shape={tuple(self.value.shape)}, dtype={self.value.dtype})"


@dataclasses.dataclass
class Node:
    """One captured op.

    ``kernel`` is a callable closing over the eager implementation; calling
    it with the resolved inputs reproduces the eager op exactly (this is what
    makes numpy replay bit-identical to eager by construction).
    """

    id: int
    op: str
    inputs: Tuple[Any, ...]
    kernel: Callable[..., np.ndarray]
    out_shape: Tuple[int, ...]
    out_dtype: np.dtype


@dataclasses.dataclass
class Graph:
    """A captured chain of nodes with a single output."""

    signature: Tuple[Tuple[Tuple[int, ...], str], ...]
    nodes: List[Node]
    output: Any


def signature_of(inputs: Sequence[np.ndarray]) -> Tuple[Tuple[Tuple[int, ...], str], ...]:
    """The cache key for a set of graph inputs: shape + dtype of each."""
    return tuple((tuple(arr.shape), str(arr.dtype)) for arr in inputs)


def resolve(ref: Any, inputs: Sequence[np.ndarray], values: Dict[int, np.ndarray]) -> Any:
    """Materialise an encoded reference against live inputs/node values."""
    if isinstance(ref, Placeholder):
        return inputs[ref.index]
    if isinstance(ref, NodeOutput):
        value = values.get(ref.node_id)
        if value is None:
            raise BackendError(
                f"node {ref.node_id} consumed before it was executed"
            )
        return value
    if isinstance(ref, ConstRef):
        return ref.value
    return ref

