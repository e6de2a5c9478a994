"""Fault-Aware Training / retraining (FAT), after Zhang et al. (VTS 2018).

FAT fine-tunes a pre-trained network *with the fault masks enforced*: the
weights mapped onto faulty PEs are clamped at zero throughout training, so
the remaining weights learn to compensate.  FAT recovers most of the accuracy
lost to fault-aware pruning but its retraining cost is what the Reduce
framework sets out to minimise.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro import nn
from repro.accelerator.fault_map import FaultMap
from repro.accelerator.systolic_array import SystolicArray
from repro.data.synthetic import DatasetBundle
from repro.mitigation.fap import build_fap_masks
from repro.training import Trainer, TrainingConfig, TrainingHistory

MaskDict = Dict[str, np.ndarray]


@dataclasses.dataclass(frozen=True)
class FatResult:
    """Outcome of one fault-aware retraining run."""

    history: TrainingHistory
    masks: MaskDict
    masked_fraction: float
    epochs_trained: float

    @property
    def final_accuracy(self) -> float:
        return self.history.final_accuracy


def fault_aware_retrain(
    model: nn.Module,
    fault_map_or_masks: Union[FaultMap, SystolicArray, MaskDict],
    bundle: DatasetBundle,
    epochs: float,
    config: Optional[TrainingConfig] = None,
    eval_checkpoints: Optional[Sequence[float]] = None,
    column_permutations: Optional[Dict[str, np.ndarray]] = None,
) -> FatResult:
    """Run FAP followed by FAT on ``model`` (modified in place).

    ``fault_map_or_masks`` may be a :class:`FaultMap`, a
    :class:`SystolicArray` or a pre-computed mask dictionary.  ``epochs`` may
    be fractional (e.g. ``0.05`` as in the paper's Fig. 2a).
    """
    if isinstance(fault_map_or_masks, dict):
        masks = fault_map_or_masks
    else:
        masks = build_fap_masks(model, fault_map_or_masks, column_permutations)
    trainer = Trainer(model, bundle.train, bundle.test, config=config, masks=masks)
    history = trainer.train(epochs, eval_checkpoints=eval_checkpoints)
    masked = sum(int(mask.sum()) for mask in masks.values())
    total = sum(mask.size for mask in masks.values())
    return FatResult(
        history=history,
        masks=masks,
        masked_fraction=masked / total if total else 0.0,
        epochs_trained=history.total_epochs,
    )
