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
``TensorRef(tensor)``
    A *live* read of ``tensor.data`` at execution time.  Used for model
    parameters and buffers: the optimizer and the mask-enforcement paths
    update those arrays in place between executions, so freezing them at
    capture time would replay stale weights.
``ConstRef(value)``
    An array captured by reference and assumed immutable between executions
    (e.g. keep-multiplier masks that are rebuilt — not mutated — on change
    would be unsafe; hence constants are only used for arrays the capture
    site does not track as live tensors).
``TupleRef(elements)``
    A tuple whose elements are themselves encoded references (used e.g. for
    the trainer's ``lowering=(cols, out_h, out_w)`` argument).

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


class TensorRef:
    """Live reference to a Tensor's backing array (read at execution time)."""

    __slots__ = ("tensor",)

    def __init__(self, tensor: Any) -> None:
        self.tensor = tensor

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        data = self.tensor.data
        return f"TensorRef(shape={tuple(data.shape)}, dtype={data.dtype})"


class ConstRef:
    """An ndarray captured by reference."""

    __slots__ = ("value",)

    def __init__(self, value: np.ndarray) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ConstRef(shape={tuple(self.value.shape)}, dtype={self.value.dtype})"


class TupleRef:
    """A tuple whose elements are encoded references."""

    __slots__ = ("elements",)

    def __init__(self, elements: Tuple[Any, ...]) -> None:
        self.elements = elements

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TupleRef({self.elements!r})"


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
    kwargs: Dict[str, Any]
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
    if isinstance(ref, TensorRef):
        return ref.tensor.data
    if isinstance(ref, ConstRef):
        return ref.value
    if isinstance(ref, TupleRef):
        return tuple(resolve(element, inputs, values) for element in ref.elements)
    return ref

