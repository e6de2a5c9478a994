"""The fused backend: merge captured chains into single kernels.

Two lowering rules run over the captured graph before execution:

1. **Eval epilogue fusion** — an ``eval.gemm -> eval.bias ->
   eval.fold_* (-> relu)`` chain collapses into one node whose kernel runs
   the GEMM and then applies bias, fold and activation in a single pass,
   eliding the intermediate materialisations the eager path performs.
2. **ReLU-into-producer** — a ``relu`` whose producer allocates a fresh
   output (stacked GEMMs, BatchNorm, ...) is applied in place on that
   output instead of allocating a new array.

When numba is importable the conv epilogue runs as a JIT-compiled loop
(bias + fold-to-NCHW + ReLU fused, one read and one write per element);
otherwise the same fusion executes as in-place vectorised numpy, so the
backend stays usable — and testable — without the optional dependency.
JIT compilation failures demote to the interpreted path with a warning
rather than failing the run.

Numerics: fused outputs are ``allclose`` to eager (the in-place ReLU uses
``np.maximum``, which differs from eager's ``a * (a > 0)`` only on signed
zeros) and deterministic across executions.
"""

from __future__ import annotations

import logging
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.backends.graph import Graph, Node, NodeOutput, TupleRef
from repro.backends.numpy_backend import CompiledGraph
from repro.backends.registry import Backend, numba_available, register_backend

logger = logging.getLogger("repro.backends")

FOLD_OPS = ("eval.fold_nchw", "eval.fold2d")

# Producers whose kernels allocate a fresh output array every call, making an
# in-place activation epilogue safe.  Ops that may return cached or shared
# arrays (eval.im2col, eval.lowering, broadcasts) must never appear here.
RELU_FUSABLE_PRODUCERS = frozenset(
    {
        "eval.gemm",
        "eval.bias",
        "eval.fold_nchw",
        "eval.fold2d",
        "stacked_linear",
        "stacked_conv2d",
        "stacked_batch_norm",
        "eval.stacked_bn",
        "linear",
        "matmul",
        "add",
        "conv2d",
        "batch_norm",
    }
)


class _JitConvEpilogue:
    """Lazily-compiled numba kernel for the conv epilogue; self-disabling."""

    def __init__(self) -> None:
        self._fn = None
        self._failed = False

    def __call__(
        self,
        src: np.ndarray,
        bias: np.ndarray,
        out_h: int,
        out_w: int,
        apply_relu: bool,
    ) -> Optional[np.ndarray]:
        if self._failed:
            return None
        try:
            if self._fn is None:
                from numba import njit

                @njit(cache=False)
                def epilogue(src, bias, dst, out_h, out_w, apply_relu):
                    chips, positions, channels = src.shape
                    images = positions // (out_h * out_w)
                    for chip in range(chips):
                        for channel in range(channels):
                            bias_value = bias[channel]
                            for image in range(images):
                                row = chip * images + image
                                for y in range(out_h):
                                    for x in range(out_w):
                                        value = src[chip, (image * out_h + y) * out_w + x, channel] + bias_value
                                        if apply_relu and value < 0.0:
                                            value = 0.0
                                        dst[row, channel, y, x] = value

                self._fn = epilogue
            chips, positions, channels = src.shape
            folded = chips * positions // (out_h * out_w)
            dst = np.empty((folded, channels, out_h, out_w), dtype=src.dtype)
            self._fn(src, bias, dst, out_h, out_w, apply_relu)
            return dst
        except Exception as exc:  # numba compile/runtime failure
            logger.warning(
                "fused backend: numba conv epilogue unavailable (%s); "
                "using the interpreted fusion path",
                exc,
            )
            self._failed = True
            return None


def _epilogue_kernel(
    gemm: Node,
    bias_node: Optional[Node],
    fold: Node,
    apply_relu: bool,
    jit: Optional[_JitConvEpilogue],
):
    """Compose gemm + bias + fold (+ relu) into one kernel."""

    fold_kind = fold.op
    out_h = fold.attrs.get("out_h")
    out_w = fold.attrs.get("out_w")
    module = bias_node.attrs.get("module") if bias_node is not None else None
    gemm_kernel = gemm.kernel

    def kernel(*args: Any, **kwargs: Any) -> np.ndarray:
        out = gemm_kernel(*args, **kwargs)
        bias = module.bias.data if module is not None and module.bias is not None else None
        if fold_kind == "eval.fold_nchw" and jit is not None:
            jit_bias = bias if bias is not None else np.zeros(out.shape[-1], dtype=out.dtype)
            result = jit(out, jit_bias, out_h, out_w, apply_relu)
            if result is not None:
                return result
        # Interpreted fusion: the GEMM output is graph-internal (its sole
        # consumer is this node), so bias and activation mutate it in place.
        if bias is not None:
            out += bias
        if fold_kind == "eval.fold_nchw":
            folded = out.shape[0] * out.shape[1] // (out_h * out_w)
            out = np.ascontiguousarray(
                out.reshape(folded, out_h, out_w, out.shape[-1]).transpose(0, 3, 1, 2)
            )
        else:
            out = out.reshape(out.shape[0] * out.shape[1], -1)
        if apply_relu:
            np.maximum(out, 0.0, out=out)
        return out

    return kernel


def _relu_into_producer_kernel(producer: Node):
    base = producer.kernel

    def kernel(*args: Any, **kwargs: Any) -> np.ndarray:
        out = base(*args, **kwargs)
        np.maximum(out, 0.0, out=out)
        return out

    return kernel


def _consumers(graph: Graph) -> Dict[int, List[int]]:
    consumers: Dict[int, List[int]] = {node.id: [] for node in graph.nodes}

    def visit(ref: Any, consumer_id: int) -> None:
        if isinstance(ref, NodeOutput):
            consumers[ref.node_id].append(consumer_id)
        elif isinstance(ref, TupleRef):
            for element in ref.elements:
                visit(element, consumer_id)

    for node in graph.nodes:
        for ref in node.inputs:
            visit(ref, node.id)
        for ref in node.kwargs.values():
            visit(ref, node.id)
    return consumers


def fuse_graph(graph: Graph, jit: Optional[_JitConvEpilogue]) -> Graph:
    """Apply the fusion rules, returning a rewritten graph.

    Fused nodes adopt the id of the *last* node in their chain so that every
    surviving reference (including the graph output) still resolves; the
    replaced intermediates are dropped from the node list.
    """

    by_id = {node.id: node for node in graph.nodes}
    consumers = _consumers(graph)

    def sole_consumer(node: Node) -> Optional[Node]:
        if graph.output == NodeOutput(node.id):
            return None
        refs = consumers[node.id]
        if len(refs) != 1:
            return None
        return by_id[refs[0]]

    removed: Set[int] = set()
    replaced: Dict[int, Node] = {}

    # Rule 1: eval epilogue chains.
    for node in graph.nodes:
        if node.op != "eval.gemm" or node.id in removed:
            continue
        chain = [node]
        cursor = sole_consumer(node)
        if cursor is not None and cursor.op == "eval.bias":
            chain.append(cursor)
            cursor = sole_consumer(cursor)
        if cursor is None or cursor.op not in FOLD_OPS:
            continue
        chain.append(cursor)
        relu = sole_consumer(cursor)
        if relu is not None and relu.op == "relu":
            chain.append(relu)
        gemm = chain[0]
        bias_node = chain[1] if chain[1].op == "eval.bias" else None
        fold = next(n for n in chain if n.op in FOLD_OPS)
        apply_relu = chain[-1].op == "relu"
        last = chain[-1]
        fused = Node(
            id=last.id,
            op="fused." + "+".join(n.op for n in chain),
            inputs=gemm.inputs,
            kwargs=gemm.kwargs,
            kernel=_epilogue_kernel(gemm, bias_node, fold, apply_relu, jit),
            out_shape=last.out_shape,
            out_dtype=last.out_dtype,
            attrs={"fused_from": tuple(n.op for n in chain)},
        )
        replaced[last.id] = fused
        removed.update(n.id for n in chain[:-1])

    # Rule 2: fold a lone relu into its (fresh-output) producer.
    for node in graph.nodes:
        if node.op != "relu" or node.id in removed or node.id in replaced:
            continue
        if len(node.inputs) != 1 or not isinstance(node.inputs[0], NodeOutput):
            continue
        producer = by_id[node.inputs[0].node_id]
        if producer.id in removed or producer.id in replaced:
            continue
        if producer.op not in RELU_FUSABLE_PRODUCERS:
            continue
        if sole_consumer(producer) is not node:
            continue
        fused = Node(
            id=node.id,
            op=f"fused.{producer.op}+relu",
            inputs=producer.inputs,
            kwargs=producer.kwargs,
            kernel=_relu_into_producer_kernel(producer),
            out_shape=node.out_shape,
            out_dtype=node.out_dtype,
            attrs={"fused_from": (producer.op, "relu")},
        )
        replaced[node.id] = fused
        removed.add(producer.id)

    if not replaced:
        return graph
    nodes: List[Node] = []
    for node in graph.nodes:
        if node.id in removed:
            continue
        nodes.append(replaced.get(node.id, node))
    return Graph(signature=graph.signature, nodes=nodes, output=graph.output)


class FusedBackend(Backend):
    """Fusion lowering; JIT-compiled when numba is present, else interpreted."""

    name = "fused"

    def __init__(self, use_jit: Optional[bool] = None) -> None:
        self.use_jit = numba_available() if use_jit is None else use_jit
        self._jit = _JitConvEpilogue() if self.use_jit else None

    def describe(self) -> str:
        mode = "numba-jit" if self.use_jit else "interpreted"
        return f"{self.name} ({mode})"

    def compile(self, graph: Graph) -> CompiledGraph:
        return CompiledGraph(fuse_graph(graph, self._jit), backend_name=self.name)


register_backend("fused", FusedBackend)
