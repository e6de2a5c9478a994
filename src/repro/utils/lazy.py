"""Lazy package exports (PEP 562): a submodule is imported on first use.

A package ``__init__`` declares what it re-exports and from where::

    __getattr__, __all__ = lazy_exports(__name__, {
        ".engine": ("CampaignEngine", "CampaignReport"),
        ".": ("nn", "data"),          # submodules exported as themselves
    })

so ``from repro.campaign import CampaignEngine`` imports only
``repro.campaign.engine`` (and what it imports), never the package's other
submodules.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], List[str]]:
    """``(__getattr__, __all__)`` for ``package``, which re-exports ``exports``.

    ``exports`` maps a submodule, relative to ``package`` (``".engine"``), to
    the names the package re-exports from it; under the key ``"."`` it lists
    submodules exported as themselves.  A resolved name is cached in the
    package namespace, so ``__getattr__`` runs once per name.
    """
    owners = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        if module == ".":
            value = importlib.import_module(f".{name}", package)
        else:
            value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__, list(owners)
