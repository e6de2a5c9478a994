"""Golden-table gate: ``fig3``'s stores, Step-1 profile and pre-trained state.

Regenerates ``tests/golden/``'s tables for this environment (``fig3
--preset smoke`` and an 8-chip ``--preset fast``, plus two short FAT stacks
per preset) and compares them exactly,
so a change that moves any stored number fails here.  The tables are keyed on
the environment digest of ``tests/golden/regenerate.py``; an environment
without its own table skips.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from tests.golden.regenerate import environment_digest, golden_tables, table_path


def test_fig3_matches_the_golden_tables(tmp_path):
    digest = environment_digest()
    path = table_path(digest)
    if not path.exists():
        pytest.skip(
            f"no golden table for environment digest {digest} (numpy {np.__version__}); "
            "write one with: PYTHONPATH=src python tests/golden/regenerate.py"
        )
    expected = json.loads(path.read_text())
    assert expected["environment"]["digest"] == digest
    actual = golden_tables(tmp_path)
    for key, table in actual.items():
        golden = expected[key]
        for digest_key in (
            "pretrained_state_sha256", "fat_shared_stream_sha256", "fat_per_chip_seeds_sha256"
        ):
            assert table[digest_key] == golden[digest_key], f"{key}: {digest_key}"
        assert table["profile_accuracies"] == golden["profile_accuracies"], key
        assert sorted(table["stores"]) == sorted(golden["stores"]), key
        for store, content in table["stores"].items():
            assert content == golden["stores"][store], f"{key}: {store}"
