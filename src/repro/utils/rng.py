"""Deterministic random-number management.

Every stochastic component in the library (fault-map generation, dataset
synthesis, weight initialisation, data shuffling, fault-injection trials)
accepts either an integer seed or a :class:`numpy.random.Generator`.  The
helpers here normalise both forms and derive stable child seeds from a parent
seed.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator]


def new_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed-like value.

    ``None`` produces a non-deterministic generator, an ``int`` produces a
    seeded generator and an existing generator is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(base_seed: int, *components: Union[int, str]) -> int:
    """Derive a stable 63-bit child seed from a base seed and components.

    The derivation uses SHA-256 so that different component tuples give
    statistically independent child seeds, and the same tuple always gives
    the same child seed across processes and platforms.
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(base_seed)).encode("utf-8"))
    for component in components:
        hasher.update(b"/")
        hasher.update(str(component).encode("utf-8"))
    digest = hasher.digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF
