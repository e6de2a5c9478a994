"""Typed errors raised by the compute-backend layer.

The capture/replay pipeline surfaces its invariant violations as
:class:`BackendError` so that a bug fails with the op name and the offending
shapes/dtypes in the message instead of a bare ``AssertionError`` deep
inside a kernel.
"""

from __future__ import annotations

from typing import Optional


class BackendError(RuntimeError):
    """A backend or lowering invariant was violated.

    Attributes
    ----------
    op:
        Name of the op whose execution (or capture) broke the invariant,
        when known.
    """

    def __init__(self, message: str, op: Optional[str] = None) -> None:
        if op is not None:
            message = f"[op={op}] {message}"
        super().__init__(message)
        self.op = op
