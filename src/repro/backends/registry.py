"""Backend registry: named lowerings for captured graphs.

A backend turns a captured :class:`~repro.backends.graph.Graph` into an
executable callable via ``compile``.  Backends register under a short name
(``numpy``, ``fused``) and are instantiated lazily, once per process.

Resolution semantics
--------------------
* ``get_backend(name)`` — strict registry lookup.  ``fused`` always
  constructs (it runs interpreted when numba is missing), which is what the
  per-op equivalence tests rely on.
* ``resolve_backend(name)`` — production resolution used by the stacked
  trainer and campaign layers.  ``None`` means "eager" (no capture at
  all, the historical path); ``"fused"`` degrades gracefully to the
  ``numpy`` reference backend with a logged warning when numba is not
  importable.
"""

from __future__ import annotations

import logging
import os
from typing import Callable, Dict, Optional, Tuple, Union

from repro.backends.errors import BackendError

logger = logging.getLogger("repro.backends")

BACKEND_ENV_VAR = "REPRO_BACKEND"


class Backend:
    """Base class for graph lowerings."""

    name = "abstract"

    def compile(self, graph):  # pragma: no cover - interface
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


_FACTORIES: Dict[str, Callable[[], Backend]] = {}
_INSTANCES: Dict[str, Backend] = {}
_NUMBA_AVAILABLE: Optional[bool] = None
_FALLBACK_WARNED = False


def register_backend(name: str, factory: Callable[[], Backend]) -> None:
    _FACTORIES[name] = factory


def available_backends() -> Tuple[str, ...]:
    return tuple(sorted(_FACTORIES))


def get_backend(name: Union[str, Backend]) -> Backend:
    """Strict lookup: raise :class:`BackendError` for unknown names."""
    if isinstance(name, Backend):
        return name
    if name not in _FACTORIES:
        raise BackendError(
            f"unknown backend {name!r} (available: {', '.join(available_backends())})"
        )
    if name not in _INSTANCES:
        _INSTANCES[name] = _FACTORIES[name]()
    return _INSTANCES[name]


def numba_available() -> bool:
    """Whether the optional numba dependency is importable (cached)."""
    global _NUMBA_AVAILABLE
    if _NUMBA_AVAILABLE is None:
        try:
            import numba  # noqa: F401

            _NUMBA_AVAILABLE = True
        except Exception:
            _NUMBA_AVAILABLE = False
    return _NUMBA_AVAILABLE


def env_backend_name() -> Optional[str]:
    """The backend selected via ``REPRO_BACKEND``, if any."""
    value = os.environ.get(BACKEND_ENV_VAR, "").strip()
    return value or None


def resolve_backend(name: Optional[Union[str, Backend]]) -> Optional[Backend]:
    """Resolve a backend selection for production execution.

    ``None`` selects the historical eager path (returns ``None``); unknown
    names raise :class:`BackendError`; ``fused`` without numba falls back to
    the ``numpy`` reference backend with a one-time warning.
    """

    global _FALLBACK_WARNED
    if name is None:
        return None
    if isinstance(name, Backend):
        return name
    backend = get_backend(name)
    if name == "fused" and not numba_available():
        if not _FALLBACK_WARNED:
            logger.warning(
                "backend 'fused' requested but numba is not importable; "
                "falling back to the 'numpy' reference backend"
            )
            _FALLBACK_WARNED = True
        return get_backend("numpy")
    return backend
