"""Shared test helpers (kept outside conftest so tests can import them)."""

from __future__ import annotations

import numpy as np


def numeric_gradient(func, x, eps=1e-4):
    """Central-difference numerical gradient of a scalar function of ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for index in np.ndindex(*x.shape):
        plus = x.copy()
        minus = x.copy()
        plus[index] += eps
        minus[index] -= eps
        grad[index] = (func(plus) - func(minus)) / (2.0 * eps)
    return grad


def serial_resilience_accuracies(analyzer):
    """Step-1 accuracies grid of ``analyzer``, one serial ``Trainer`` per cell.

    The reference the stacked :meth:`ResilienceAnalyzer.run` must equal bit
    for bit: every (rate, trial) cell restores the pre-trained weights,
    applies its fault map's FAP masks and retrains through the serial trainer
    under its own trial seed, recording [0.0] + the epoch checkpoints.  A
    fault rate of zero is the clean accuracy throughout.
    """
    import dataclasses

    from repro.mitigation.fap import build_fap_masks
    from repro.training import Trainer, evaluate_accuracy

    config = analyzer.config
    model = analyzer.model
    model.load_state_dict(analyzer.pretrained_state)
    clean = evaluate_accuracy(model, analyzer.bundle.test)
    grid = np.zeros(
        (len(config.fault_rates), config.trials_per_rate, 1 + len(config.epoch_checkpoints))
    )
    for rate_index, fault_rate in enumerate(config.fault_rates):
        for trial in range(config.trials_per_rate):
            if fault_rate == 0.0:
                grid[rate_index, trial] = clean
                continue
            trial_seed, fault_map = analyzer._trial_fault_map(fault_rate, trial)
            model.load_state_dict(analyzer.pretrained_state)
            trainer = Trainer(
                model,
                analyzer.bundle.train,
                analyzer.bundle.test,
                config=dataclasses.replace(config.training, seed=trial_seed),
                masks=build_fap_masks(model, fault_map),
            )
            history = trainer.train(
                config.max_epochs,
                eval_checkpoints=list(config.epoch_checkpoints),
                include_initial=True,
            )
            grid[rate_index, trial] = history.accuracies
    model.load_state_dict(analyzer.pretrained_state)
    return grid
