"""Golden tables of what ``fig3`` writes, and the script that rewrites them.

For ``fig3 --preset smoke`` and an 8-chip ``fig3 --preset fast`` a table
holds every store's manifest and rows (accuracies, epochs, fault rates,
masked fractions and line checksums), the Step-1 profile's accuracy array
and a SHA-256 digest of the pre-trained state dict.  Store rows read
accuracies, which a last-bit change of a retraining weight rarely moves, so
each table also digests the weights and losses of two short FAT stacks over
the first four chips: one shared data stream (Step 3's shape) and one seed
per chip (Step 1's).
``tests/test_golden.py`` regenerates them and compares exactly.

Bit identity holds on one BLAS build, so each table is keyed on an
environment digest: the numpy version plus the bytes of a canary stacked
GEMM.  An environment without its own table skips the comparison.

Rewrite (or add) this environment's table from the repository root with::

    PYTHONPATH=src python tests/golden/regenerate.py

A change that moves a row also moves a numerics version in the same diff
and names the moved rows in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent

#: ``(table key, preset name, chip count or None for the preset's own)``.
RUNS = (("smoke", "smoke", None), ("fast-8", "fast", 8))


def environment_digest() -> str:
    """numpy's version and a float32 stacked-GEMM canary, hashed.

    The canary runs the two GEMM shapes the stacked trainer issues: a wide
    shared-input ``(n, K) @ (K, B * N)`` product and a folded batched
    ``(B, n, K) @ (B, K, N)`` one.
    """
    rng = np.random.default_rng(20230417)
    x = rng.standard_normal((40, 150), dtype=np.float32)
    weight = rng.standard_normal((8, 16, 150), dtype=np.float32)
    folded = rng.standard_normal((8, 40, 150), dtype=np.float32)
    wide = x @ weight.transpose(2, 0, 1).reshape(150, -1)
    stacked = np.matmul(folded, weight.transpose(0, 2, 1))
    digest = hashlib.sha256(np.__version__.encode("utf-8"))
    digest.update(wide.tobytes())
    digest.update(stacked.tobytes())
    return digest.hexdigest()[:16]


def table_path(digest: str) -> Path:
    return GOLDEN_DIR / f"fig3-{digest}.json"


def state_digest(state: Dict[str, np.ndarray]) -> str:
    """SHA-256 over every parameter's name, dtype, shape and bytes."""
    digest = hashlib.sha256()
    for name in sorted(state):
        array = np.ascontiguousarray(state[name])
        digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def _fat_stack_digest(context, population, seeds) -> str:
    """Digest of a 0.25-epoch FAT stack's chip weights and train losses."""
    from repro.accelerator import BatchedFaultTrainer, model_fault_masks

    framework = context.framework()
    context.restore_pretrained()
    mask_sets = [model_fault_masks(context.model, chip.fault_map) for chip in population]
    trainer = BatchedFaultTrainer(
        context.model, mask_sets, context.bundle.train, context.bundle.test,
        config=framework._fat_training_config(), seeds=seeds,
    )
    histories = trainer.train(0.25, include_initial=False)
    digest = hashlib.sha256()
    for chip, history in enumerate(histories):
        digest.update(state_digest(trainer.chip_state_dict(chip)).encode("utf-8"))
        digest.update(np.float64(history.records[-1].train_loss).tobytes())
    return digest.hexdigest()


def _run_table(preset_name: str, num_chips, store_base: Path) -> Dict[str, Any]:
    from repro.experiments import ExperimentContext, get_preset
    from repro.experiments.fig3 import build_population, run_fig3

    context = ExperimentContext.from_preset(get_preset(preset_name), use_cache=False)
    run_fig3(context, num_chips=num_chips, campaign_dir=store_base)
    first_chips = list(build_population(context, num_chips))[:4]
    stores = {}
    for store in sorted(path for path in store_base.iterdir() if path.is_dir()):
        rows = (store / "results.jsonl").read_text().splitlines()
        stores[store.name] = {
            "manifest": json.loads((store / "manifest.json").read_text()),
            "rows": [json.loads(row) for row in rows],
        }
    return {
        "fat_shared_stream_sha256": _fat_stack_digest(context, first_chips, None),
        "fat_per_chip_seeds_sha256": _fat_stack_digest(context, first_chips, [0, 1, 2, 3]),
        "pretrained_state_sha256": state_digest(context.pretrained_state),
        "profile_accuracies": context.resilience_profile().accuracies.tolist(),
        "stores": stores,
    }


def golden_tables(workdir: Path) -> Dict[str, Any]:
    """Regenerate every table in ``workdir`` (fresh store directories)."""
    return {
        key: _run_table(preset, chips, Path(workdir) / key)
        for key, preset, chips in RUNS
    }


def main() -> int:
    digest = environment_digest()
    with tempfile.TemporaryDirectory() as workdir:
        tables = golden_tables(Path(workdir))
    payload = {"environment": {"digest": digest, "numpy": np.__version__}, **tables}
    path = table_path(digest)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
