"""Checkpoint serialization for models and training state.

Checkpoints are stored as ``.npz`` archives holding the flat
``state_dict`` of a module.  The Reduce framework snapshots the pre-trained
model once and reloads it before retraining for every faulty chip, so cheap
and exact round-tripping matters.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.nn.module import Module

PathLike = Union[str, Path]


def state_dict_to_arrays(state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Validate and normalise a state dict into plain numpy arrays."""
    arrays: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for name, value in state.items():
        if value is None:
            continue
        arrays[str(name)] = np.asarray(value)
    return arrays


def save_checkpoint(module_or_state: Union[Module, Dict[str, np.ndarray]], path: PathLike) -> Path:
    """Save a module's (or raw) state dict to an ``.npz`` checkpoint."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    state = module_or_state.state_dict() if isinstance(module_or_state, Module) else module_or_state
    arrays = state_dict_to_arrays(state)
    np.savez(path, **arrays)
    return path


def load_checkpoint(path: PathLike) -> Dict[str, np.ndarray]:
    """Load a state dict saved by :func:`save_checkpoint`."""
    path = Path(path)
    if not path.exists():
        # np.savez appends .npz when missing; accept both spellings.
        alternative = path.with_suffix(path.suffix + ".npz")
        if alternative.exists():
            path = alternative
        else:
            raise FileNotFoundError(f"checkpoint not found: {path}")
    with np.load(path, allow_pickle=False) as archive:
        return {name: archive[name].copy() for name in archive.files}


def clone_state_dict(state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Deep-copy a state dict (used to snapshot pre-trained weights in memory)."""
    return OrderedDict((name, np.array(value, copy=True)) for name, value in state.items())
