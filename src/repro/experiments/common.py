"""Experiment context: dataset + pre-trained model + accelerator, with caching.

Every figure runner starts from the same ingredients (Fig. 1 inputs): a
pre-trained DNN, a dataset, a systolic array and an accuracy constraint.
``ExperimentContext.from_preset`` builds them once; pre-training results are
cached in memory (keyed by the preset) so that running several figure
benchmarks in one session does not repeat the expensive pre-training step.

An optional *on-disk* cache layers underneath the in-memory one: when a
cache directory is configured (``disk_cache_dir=`` argument or the
``REPRO_CACHE_DIR`` environment variable),
the pre-trained state dict and clean accuracy are persisted per preset
fingerprint, so repeated CLI runs — and campaign workers spawned in fresh
processes — skip pre-training entirely.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro import nn
from repro.accelerator.batched import EvalPipeline
from repro.accelerator.systolic_array import SystolicArray
from repro.core.constraints import AccuracyConstraint
from repro.core.reduce import ReduceConfig, ReduceFramework
from repro.core.profiles import ResilienceProfile
from repro.data.synthetic import DatasetBundle, make_class_template_images
from repro.experiments.presets import ExperimentPreset
from repro.models.registry import build_model
from repro.nn.serialization import clone_state_dict
from repro.training import Trainer
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed

logger = get_logger("experiments.common")

# In-memory cache of pre-trained contexts, keyed by a preset fingerprint.
_CONTEXT_CACHE: Dict[str, "ExperimentContext"] = {}

# On-disk cache of pre-trained state dicts (same fingerprint key); resolved
# from the explicit argument, else REPRO_CACHE_DIR.
_DISK_CACHE_ENV = "REPRO_CACHE_DIR"


# Version of the training-substrate numerics baked into cached pre-trained
# states.  Bump whenever a change shifts training trajectories bit-for-bit
# (the campaign STORE_FORMAT_VERSION guards recorded *results* the same way;
# this guards the pre-trained *weights* they start from, so a warm disk
# cache from an older build can never seed new-version campaigns).
# Version 2: fused batch-norm backward + C-contiguous materialisation of
# degenerate 1x1 im2col lowerings (changes vgg-style pre-training).
# Version 3: pre-training runs on the stacked trainer, whose conv bias
# gradient sums a contiguous copy (changes 1x1-output convs with a bias).
TRAINING_NUMERICS_VERSION = 3


def preset_fingerprint(preset: ExperimentPreset) -> str:
    """Stable content fingerprint of a preset (cache key for its context).

    Includes :data:`TRAINING_NUMERICS_VERSION`, so pre-trained states cached
    on disk under one substrate-numerics version are never reused once the
    training arithmetic changes.
    """
    from repro.utils.config import config_to_dict
    import hashlib
    import json

    payload = json.dumps(
        {"numerics": TRAINING_NUMERICS_VERSION, "preset": config_to_dict(preset)},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def resolve_disk_cache_dir(explicit: Optional[Union[str, Path]] = None) -> Optional[Path]:
    """The disk cache directory in effect: the argument, else the env var."""
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(_DISK_CACHE_ENV)
    return Path(env) if env else None


def _disk_cache_paths(cache_dir: Path, fingerprint: str) -> Tuple[Path, Path]:
    return cache_dir / f"{fingerprint}.npz", cache_dir / f"{fingerprint}.json"


def _load_pretrained_from_disk(
    cache_dir: Path, fingerprint: str
) -> Optional[Tuple[Dict[str, np.ndarray], float]]:
    """Load a cached (state dict, clean accuracy) pair, or None on any miss."""
    import zipfile

    from repro.nn.serialization import load_checkpoint
    from repro.utils.config import load_json

    state_path, meta_path = _disk_cache_paths(cache_dir, fingerprint)
    if not state_path.exists() or not meta_path.exists():
        return None
    try:
        state = load_checkpoint(state_path)
        meta = load_json(meta_path)
        clean_accuracy = float(meta["clean_accuracy"])
    except (OSError, ValueError, KeyError, TypeError, zipfile.BadZipFile):
        logger.warning("ignoring unreadable disk-cache entry %s", state_path)
        return None
    return state, clean_accuracy


def _save_pretrained_to_disk(
    cache_dir: Path,
    fingerprint: str,
    preset: ExperimentPreset,
    state: Dict[str, np.ndarray],
    clean_accuracy: float,
) -> None:
    from repro.nn.serialization import save_checkpoint
    from repro.utils.config import save_json

    state_path, meta_path = _disk_cache_paths(cache_dir, fingerprint)
    # Write-then-rename so a killed process (or a concurrent worker) never
    # leaves a torn archive at the final path.
    tmp_path = state_path.with_name(f"{state_path.stem}.{os.getpid()}.tmp.npz")
    save_checkpoint(state, tmp_path)
    os.replace(tmp_path, state_path)
    save_json(
        {
            "preset": preset.name,
            "fingerprint": fingerprint,
            "clean_accuracy": clean_accuracy,
        },
        meta_path,
        atomic=True,
    )
    logger.info("cached pre-trained state for preset %r at %s", preset.name, state_path)


def build_dataset(preset: ExperimentPreset) -> DatasetBundle:
    """Build the synthetic dataset described by the preset."""
    spec = preset.dataset
    return make_class_template_images(
        num_classes=spec.num_classes,
        train_per_class=spec.train_per_class,
        test_per_class=spec.test_per_class,
        image_size=spec.image_size,
        channels=spec.channels,
        noise_std=spec.noise_std,
        shift_pixels=spec.shift_pixels,
        seed=spec.seed,
        name=f"{preset.name}-synthetic",
    )


@dataclasses.dataclass
class ExperimentContext:
    """The shared inputs of every experiment (Fig. 1 of the paper)."""

    preset: ExperimentPreset
    bundle: DatasetBundle
    model: nn.Module
    pretrained_state: Dict[str, np.ndarray]
    array: SystolicArray
    clean_accuracy: float
    _profile: Optional[ResilienceProfile] = None
    # Lazily-created eval configuration (the compute backend).  It lives on
    # the context — not on a framework — because :meth:`framework` returns a
    # fresh framework per call, and a campaign engine sets the backend once
    # for all of them.
    _eval_pipeline: Optional[EvalPipeline] = None

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_preset(
        cls,
        preset: ExperimentPreset,
        use_cache: bool = True,
        disk_cache_dir: Optional[Union[str, Path]] = None,
    ) -> "ExperimentContext":
        """Build (or fetch from the caches) the context for a preset.

        ``use_cache`` governs the in-memory cache; the on-disk cache of
        pre-trained state dicts is consulted whenever a cache directory is
        configured (see :func:`resolve_disk_cache_dir`).
        """
        fingerprint = preset_fingerprint(preset)
        if use_cache and fingerprint in _CONTEXT_CACHE:
            return _CONTEXT_CACHE[fingerprint]

        bundle = build_dataset(preset)
        model = build_model(
            preset.model.name,
            input_shape=bundle.input_shape,
            num_classes=bundle.num_classes,
            seed=preset.model.seed,
            **preset.model.kwargs,
        )
        cache_dir = resolve_disk_cache_dir(disk_cache_dir)
        cached = _load_pretrained_from_disk(cache_dir, fingerprint) if cache_dir else None
        if cached is not None:
            state, clean_accuracy = cached
            model.load_state_dict(state)
            logger.info(
                "loaded pre-trained %s for preset %r from disk cache (skipping pre-training)",
                preset.model.name,
                preset.name,
            )
        else:
            logger.info("pre-training %s on %s for %.1f epochs", preset.model.name, bundle.name, preset.pretrain_epochs)
            trainer = Trainer(model, bundle.train, bundle.test, config=preset.pretrain)
            # The final record is the test-set accuracy of the trained model;
            # a zero-epoch pre-training records only the initial one.
            history = trainer.train(
                preset.pretrain_epochs, include_initial=preset.pretrain_epochs <= 0
            )
            clean_accuracy = history.final_accuracy
            if cache_dir is not None:
                _save_pretrained_to_disk(
                    cache_dir, fingerprint, preset, model.state_dict(), clean_accuracy
                )
        context = cls(
            preset=preset,
            bundle=bundle,
            model=model,
            pretrained_state=clone_state_dict(model.state_dict()),
            array=SystolicArray(preset.array_rows, preset.array_cols),
            clean_accuracy=clean_accuracy,
        )
        if use_cache:
            _CONTEXT_CACHE[fingerprint] = context
        return context

    # -- derived objects -----------------------------------------------------------

    def constraint(self) -> AccuracyConstraint:
        return self.preset.constraint()

    def target_accuracy(self) -> float:
        return self.constraint().resolve(self.clean_accuracy)

    def reduce_config(self) -> ReduceConfig:
        return ReduceConfig(
            constraint=self.constraint(),
            resilience=self.preset.resilience_config(),
            retraining=self.preset.retraining,
        )

    @property
    def eval_pipeline(self) -> EvalPipeline:
        """The context-wide eval configuration (created on demand)."""
        if self._eval_pipeline is None:
            self._eval_pipeline = EvalPipeline()
        return self._eval_pipeline

    def framework(self) -> ReduceFramework:
        """A fresh :class:`ReduceFramework` over this context's inputs."""
        framework = ReduceFramework(
            self.model,
            self.pretrained_state,
            self.bundle,
            self.array,
            config=self.reduce_config(),
            eval_pipeline=self.eval_pipeline,
        )
        if self._profile is not None:
            framework.set_profile(self._profile)
        else:
            # Same model, weights and test set as from_preset's evaluation, so
            # seeding it here skips a redundant full test-set pass (e.g. for
            # fixed-policy campaigns that never run Step 1).
            framework.set_clean_accuracy(self.clean_accuracy)
        return framework

    def resilience_profile(self, force: bool = False) -> ResilienceProfile:
        """The (cached) Step-1 resilience profile for this context."""
        if self._profile is None or force:
            framework = ReduceFramework(
                self.model,
                self.pretrained_state,
                self.bundle,
                self.array,
                config=self.reduce_config(),
                eval_pipeline=self.eval_pipeline,
            )
            self._profile = framework.analyze_resilience()
        return self._profile

    def restore_pretrained(self) -> None:
        """Reset the shared model to the pre-trained weights."""
        self.model.load_state_dict(self.pretrained_state)


def clear_context_cache() -> None:
    """Drop every cached experiment context (mainly for tests)."""
    _CONTEXT_CACHE.clear()
