"""Permanent-fault mitigation as per-chip mask sets: FAP, FAM and FAT.

A chip's mitigation is the set of per-layer boolean masks its weights are
clamped with (True = weight mapped onto a faulty PE, forced to zero); one
:class:`~repro.accelerator.batched.BatchedFaultTrainer` stack evaluates or
retrains any number of chips under their masks.

* :mod:`repro.mitigation.strategy` — mitigation *strategies* (``fat``,
  ``fap``, ``fam+fat``, ``bypass+fat``, ...) as a first-class, sweepable
  campaign axis.  :meth:`MitigationStrategy.chip_masks` builds a chip's
  masks: Fault-Aware Pruning (FAP, after Zhang et al.) is the plain
  periodic mapping of :func:`repro.accelerator.mapping.model_fault_masks`,
  and Fault-Aware Training (FAT) retrains with them enforced, whose cost
  Reduce minimises,
* :mod:`repro.mitigation.fam` — Fault-Aware Mapping (SalvageDNN-style
  saliency-driven column permutation before pruning),
* :mod:`repro.mitigation.saliency` — the weight-saliency metrics FAM ranks
  output channels by.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".strategy": (
        "DEFAULT_STRATEGY_NAME",
        "MitigationStrategy",
        "parse_strategy",
        "parse_strategy_list",
        "resolve_strategy",
    ),
    ".saliency": (
        "magnitude_saliency",
        "squared_saliency",
        "get_saliency_metric",
        "output_channel_saliency",
    ),
    ".fam": ("layer_column_permutation", "compute_column_permutations"),
})
