"""Captured-graph replay of the stacked trainer's eval chain.

The stacked trainer's checkpoint-eval chain (one recorded node per layer of
its layer program) can be captured into a small op-graph IR
and replayed by the ``numpy`` backend, which runs the exact eager kernels in
recorded order and is bit-identical to eager execution.  Library entry
points take ``backend=``: ``None`` runs eagerly, ``"numpy"`` replays.

See README "Compute backends" for the capture -> replay architecture.
"""

from repro.backends.capture import (
    ChainCache,
    GraphCapture,
    capture_graph,
    recorded,
)
from repro.backends.errors import BackendError
from repro.backends.graph import Graph, Node, signature_of
from repro.backends.numpy_backend import NumpyBackend, get_backend, resolve_backend

__all__ = [
    "BackendError",
    "ChainCache",
    "Graph",
    "GraphCapture",
    "Node",
    "NumpyBackend",
    "capture_graph",
    "get_backend",
    "recorded",
    "resolve_backend",
    "signature_of",
]
