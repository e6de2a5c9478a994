"""Determinism tests for the pipelined evaluation path.

The pipelined eval path — background batch prefetch, step-deduplicated
checkpoint evaluation, and the sweep-wide shared lowering cache — is a pure
performance feature: every knob combination must produce bit-identical
results, stores and fingerprints.  These tests pin that contract at every level: the prefetcher
unit, the stacked population evaluation and trainer, whole campaigns (serial, ``--jobs 2 x
--fat-batch 4``, chaos kill and kill/resume) and multi-arm strategy sweeps,
where arms 2..K must *hit* the lowerings arm 1 computed (and Step-3
checkpoint evals must hit the lowerings triage computed).

The smoke preset is an MLP, which never exercises the im2col lowering cache,
so campaign-level tests run a conv variant of it (LeNet-5 on 12x12 images).
"""

from __future__ import annotations

import dataclasses
import json
import time

import numpy as np
import pytest

from repro import nn
from repro.accelerator import FaultMap, model_fault_masks
from repro.accelerator.batched import (
    BatchedFaultTrainer,
    EvalPipeline,
    LoweringCache,
    _LoweringPrefetcher,
    evaluate_chip_accuracies,
)
from repro.campaign import CampaignEngine
from repro.campaign.sweep import run_strategy_sweep
from repro.cli import main
from repro.core.chips import ChipPopulation
from repro.core.selection import FixedEpochPolicy
from repro.experiments import ExperimentContext, smoke_preset
from repro.experiments.presets import ModelSpec
from repro.observability import metrics
from repro.training import TrainingConfig, epochs_to_steps
from tests.helpers import ReferenceTrainer


def _conv_preset():
    """The smoke preset with a conv model, so eval passes im2col-lower.

    ``test_per_class=40`` gives the trainer's eval loader (batch size 128)
    more than one batch, so the background prefetcher genuinely runs during
    campaign evaluations instead of being a no-op on a single batch.
    """
    base = smoke_preset()
    return dataclasses.replace(
        base,
        name="smoke-conv",
        dataset=dataclasses.replace(base.dataset, image_size=12, test_per_class=40),
        model=ModelSpec(name="lenet5", kwargs={}),
    )


def _fresh_conv_context():
    return ExperimentContext.from_preset(_conv_preset(), use_cache=False)


@pytest.fixture(scope="module")
def conv_context():
    return _fresh_conv_context()


@pytest.fixture(scope="module")
def conv_population(conv_context):
    preset = conv_context.preset
    return ChipPopulation.generate(
        count=4,
        rows=preset.array_rows,
        cols=preset.array_cols,
        fault_rates=(0.05, 0.25),
        seed=123,
    )


@pytest.fixture
def enabled_metrics():
    metrics.enabled = True
    metrics.reset()
    try:
        yield metrics
    finally:
        metrics.enabled = False
        metrics.reset()


def _lowering_counters():
    snap = metrics.snapshot()
    return {
        key.split(".", 1)[1]: value["value"]
        for key, value in snap.items()
        if key.startswith("lowering_cache.") and value["type"] == "counter"
    }


def _small_cnn(bundle, rng_base=0):
    channels = bundle.input_shape[0]
    return nn.Sequential(
        nn.Conv2d(channels, 4, 3, padding=1, rng=rng_base),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Conv2d(4, 6, 3, padding=1, rng=rng_base + 1),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(6 * 2 * 2, bundle.num_classes, rng=rng_base + 2),
    )


def _cnn_mask_sets(bundle, num_chips=3):
    return [
        model_fault_masks(
            _small_cnn(bundle), FaultMap.random(16, 16, 0.05 + 0.04 * i, seed=i)
        )
        for i in range(num_chips)
    ]


def _assert_histories_equal(actual, expected):
    """Record-by-record history equality with NaN-aware loss comparison."""
    assert len(actual) == len(expected)
    for history, reference in zip(actual, expected):
        assert history.epochs == reference.epochs
        assert history.accuracies == reference.accuracies
        assert len(history.records) == len(reference.records)
        for record, ref in zip(history.records, reference.records):
            assert record.steps == ref.steps
            if np.isnan(ref.train_loss):
                assert np.isnan(record.train_loss)
            else:
                assert record.train_loss == ref.train_loss


class TestPrefetcherUnit:
    def test_prefetcher_populates_cache_in_background(self):
        cache = LoweringCache()
        prefetcher = _LoweringPrefetcher(cache)
        data = np.arange(12.0, dtype=np.float32).reshape(3, 4)

        def lower(batch):
            return batch * 2.0, 2, 2

        try:
            prefetcher.offer_recipe("conv1", 3, lower)
            prefetcher.submit(1, data)
            deadline = time.monotonic() + 5.0
            while len(cache) == 0 and time.monotonic() < deadline:
                time.sleep(0.001)
        finally:
            prefetcher.close()
        assert len(cache) == 1
        entry = cache.get_or_compute(
            ("conv1", 3, 1), lambda: pytest.fail("expected a cache hit")
        )
        np.testing.assert_array_equal(entry[0], data * 2.0)
        assert entry[1:] == (2, 2)

    def test_cached_batches_start_no_thread(self):
        """A warm cache leaves nothing to prefetch: no thread, no handoff."""
        cache = LoweringCache()
        cache.get_or_compute(("conv1", 3, 1), lambda: (np.zeros(1, np.float32), 1, 1))
        lowered = []

        def lower(batch):
            lowered.append(batch)
            return batch, 1, 1

        prefetcher = _LoweringPrefetcher(cache)
        prefetcher.offer_recipe("conv1", 3, lower)
        prefetcher.submit(1, np.zeros((3, 4), dtype=np.float32))
        assert prefetcher._thread is None
        prefetcher.submit(2, np.zeros((3, 4), dtype=np.float32))  # not cached yet
        assert prefetcher._thread is not None
        prefetcher.close()
        assert len(lowered) == 1
        assert ("conv1", 3, 2) in cache

    def test_submissions_without_recipe_are_dropped(self):
        cache = LoweringCache()
        prefetcher = _LoweringPrefetcher(cache)
        prefetcher.submit(0, np.zeros((2, 2), dtype=np.float32))
        prefetcher.close()  # never started: close is a no-op
        assert len(cache) == 0

    def test_first_recipe_wins(self):
        prefetcher = _LoweringPrefetcher(LoweringCache())
        first = lambda batch: (batch, 1, 1)  # noqa: E731
        prefetcher.offer_recipe("conv1", 8, first)
        prefetcher.offer_recipe("conv2", 16, lambda batch: (batch, 9, 9))
        assert prefetcher._recipe == ("conv1", 8, first)


class TestEvaluatorPrefetch:
    # Eval batches are ``batch_size`` = 4 rows.
    CONFIG = TrainingConfig(batch_size=4)

    def test_prefetch_on_off_accuracies_identical(self, image_bundle, enabled_metrics):
        model = _small_cnn(image_bundle)
        mask_sets = _cnn_mask_sets(image_bundle)
        num_batches = -(-len(image_bundle.test) // self.CONFIG.batch_size)
        assert num_batches > 1  # otherwise prefetch has nothing to overlap

        on = evaluate_chip_accuracies(
            model, image_bundle.test, mask_sets, self.CONFIG,
            lowering_cache=LoweringCache(), prefetch=True,
        )
        on_counters = _lowering_counters()
        metrics.reset()
        off = evaluate_chip_accuracies(
            model, image_bundle.test, mask_sets, self.CONFIG,
            lowering_cache=LoweringCache(), prefetch=False,
        )
        off_counters = _lowering_counters()

        assert on == off
        # The consuming thread observes every batch exactly once either way;
        # with prefetch on, any background computation lands under
        # ``prefetched`` (and turns the consumer's miss into a hit), never
        # double-counting a miss.
        assert on_counters.get("hits", 0) + on_counters.get("misses", 0) == num_batches
        assert off_counters.get("misses", 0) == num_batches
        assert "prefetched" not in off_counters

    def test_prefetch_disabled_spawns_no_thread(self, image_bundle, monkeypatch):
        import repro.accelerator.batched as batched_module

        started = []

        class RecordingPrefetcher(_LoweringPrefetcher):
            def __init__(self, cache):
                started.append(cache)
                super().__init__(cache)

        monkeypatch.setattr(batched_module, "_LoweringPrefetcher", RecordingPrefetcher)
        model = _small_cnn(image_bundle)
        mask_sets = _cnn_mask_sets(image_bundle)
        evaluate_chip_accuracies(
            model, image_bundle.test, mask_sets, self.CONFIG, prefetch=False
        )
        assert started == []
        evaluate_chip_accuracies(
            model, image_bundle.test, mask_sets, self.CONFIG, prefetch=True
        )
        assert len(started) == 1


class TestCheckpointEval:
    CONFIG = TrainingConfig(learning_rate=0.05, batch_size=16, seed=3)

    @pytest.mark.parametrize("backend", [None, "numpy"])
    def test_checkpoints_match_serial_histories(self, image_bundle, backend):
        """Live per-checkpoint evals reproduce serial histories and weights."""
        serial_histories, serial_states = [], []
        for masks in _cnn_mask_sets(image_bundle):
            model = _small_cnn(image_bundle)
            serial_histories.append(
                ReferenceTrainer(
                    model, image_bundle.train, image_bundle.test,
                    config=self.CONFIG, masks=masks,
                ).train(1.0, eval_checkpoints=[0.5, 1.0])
            )
            serial_states.append(model.state_dict())
        trainer = BatchedFaultTrainer(
            _small_cnn(image_bundle),
            _cnn_mask_sets(image_bundle),
            image_bundle.train,
            image_bundle.test,
            config=self.CONFIG,
            backend=backend,
        )
        histories = trainer.train(1.0, eval_checkpoints=[0.5, 1.0])
        _assert_histories_equal(histories, serial_histories)
        for chip, serial_state in enumerate(serial_states):
            state = trainer.chip_state_dict(chip)
            assert set(state) == set(serial_state)
            for name in serial_state:
                np.testing.assert_array_equal(state[name], serial_state[name])

    # 4 batches per epoch: both checkpoints quantize to optimizer step 1.
    SAME_STEP = (0.05, 0.1)

    def _serial_records(self, bundle, budget, checkpoints):
        return [
            ReferenceTrainer(
                _small_cnn(bundle), bundle.train, bundle.test,
                config=self.CONFIG, masks=masks,
            ).train(budget, eval_checkpoints=checkpoints, include_initial=False)
            for masks in _cnn_mask_sets(bundle)
        ]

    @pytest.mark.parametrize("in_stream", [False, True])
    def test_same_step_checkpoints_share_one_eval(
        self, image_bundle, in_stream, monkeypatch, enabled_metrics
    ):
        calls = []
        original = BatchedFaultTrainer.evaluate

        def counting(self):
            calls.append(self.steps_taken)
            return original(self)

        monkeypatch.setattr(BatchedFaultTrainer, "evaluate", counting)
        trainer = BatchedFaultTrainer(
            _small_cnn(image_bundle),
            _cnn_mask_sets(image_bundle),
            image_bundle.train,
            image_bundle.test,
            config=self.CONFIG,
        )
        steps = {epochs_to_steps(c, trainer.batches_per_epoch) for c in self.SAME_STEP}
        assert steps == {1}
        budget = max(self.SAME_STEP)
        histories = trainer.train(
            budget,
            eval_checkpoints=self.SAME_STEP,
            include_initial=False,
            in_stream=in_stream,
        )
        assert calls == [1]
        assert metrics.counter("fat.eval.checkpoints_deduped").value == 1
        if in_stream:
            # Each readout equals a separate serial run to that budget.
            expected = [
                self._serial_records(image_bundle, checkpoint, None)
                for checkpoint in self.SAME_STEP
            ]
            for chip, history in enumerate(histories):
                assert history.records == [
                    runs[chip].records[0] for runs in expected
                ]
        else:
            _assert_histories_equal(
                histories,
                self._serial_records(image_bundle, budget, self.SAME_STEP),
            )


class TestCampaignPrefetchDeterminism:
    def _run(self, context, population, store_base, **engine_kwargs):
        engine = CampaignEngine(context, store_base=store_base, **engine_kwargs)
        result = engine.run(population, FixedEpochPolicy(0.25))
        report = engine.last_report
        store_bytes = (report.store_dir / "results.jsonl").read_bytes()
        return result, report, store_bytes

    def test_prefetch_on_off_stores_bit_identical(
        self, conv_context, conv_population, tmp_path
    ):
        on, on_report, on_bytes = self._run(
            conv_context, conv_population, tmp_path / "on", jobs=1, prefetch=True
        )
        off, off_report, off_bytes = self._run(
            conv_context, conv_population, tmp_path / "off", jobs=1, prefetch=False
        )
        assert on.results == off.results
        assert on_bytes == off_bytes
        # Prefetch is not part of the work definition: same fingerprint, so
        # a store written with it off resumes a campaign run with it on.
        assert on_report.fingerprint == off_report.fingerprint

    def test_prefetch_under_jobs_and_fat_batch(
        self, conv_context, conv_population, tmp_path
    ):
        """--jobs 2 x --fat-batch 4 with prefetch on matches prefetch off."""
        on, _, on_bytes = self._run(
            conv_context,
            conv_population,
            tmp_path / "on",
            jobs=2,
            fat_batch=4,
            prefetch=True,
        )
        off, _, off_bytes = self._run(
            conv_context,
            conv_population,
            tmp_path / "off",
            jobs=2,
            fat_batch=4,
            prefetch=False,
        )
        assert on.results == off.results
        # A parallel store appends chunks in completion order, which varies
        # run to run with or without prefetch; the recorded lines themselves
        # must match byte for byte.
        assert sorted(on_bytes.splitlines()) == sorted(off_bytes.splitlines())

    def test_killed_then_resumed_with_prefetch(
        self, conv_context, conv_population, tmp_path
    ):
        full, report, _ = self._run(
            conv_context,
            conv_population,
            tmp_path,
            jobs=2,
            fat_batch=4,
            prefetch=True,
        )
        results_path = report.store_dir / "results.jsonl"
        lines = results_path.read_text().splitlines()
        results_path.write_text("\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2])

        resumed, resumed_report, _ = self._run(
            conv_context,
            conv_population,
            tmp_path,
            jobs=2,
            fat_batch=4,
            prefetch=True,
        )
        assert resumed_report.skipped == 2
        assert resumed_report.executed == len(conv_population) - 2
        assert resumed.results == full.results
        recorded = [
            json.loads(line)["chip_id"]
            for line in results_path.read_text().strip().splitlines()
        ]
        assert len(recorded) == len(set(recorded)) == len(conv_population)

    def test_chaos_worker_kill_with_prefetch(
        self, conv_context, conv_population, tmp_path
    ):
        baseline, _, _ = self._run(
            conv_context,
            conv_population,
            tmp_path / "plain",
            jobs=2,
            fat_batch=2,
            prefetch=False,
        )
        chaotic, chaotic_report, _ = self._run(
            conv_context,
            conv_population,
            tmp_path / "chaos",
            jobs=2,
            fat_batch=2,
            prefetch=True,
            chaos="seed=3,kill=1",
        )
        assert chaotic.results == baseline.results
        assert chaotic_report.failed == 0


class TestSweepLoweringReuse:
    def test_later_arms_hit_lowerings_of_the_first(
        self, conv_population, enabled_metrics
    ):
        """Arms 2..K re-use arm 1's eval-batch lowerings: extra hits, zero
        extra misses.  Prefetch is off so the hit/miss split is deterministic
        (background lowerings shift counts between ``misses``/``prefetched``).
        Counting starts after each context is built: pre-training's own eval
        prefetches, so its split is not deterministic."""
        policy = FixedEpochPolicy(0.25)
        context = _fresh_conv_context()
        metrics.reset()
        run_strategy_sweep(
            context,
            conv_population,
            policy,
            "fat",
            fat_batch=2,
            prefetch=False,
        )
        one_arm = _lowering_counters()
        context = _fresh_conv_context()
        metrics.reset()
        run_strategy_sweep(
            context,
            conv_population,
            policy,
            "fat,fam+fat",
            fat_batch=2,
            prefetch=False,
        )
        two_arms = _lowering_counters()
        assert one_arm.get("hits", 0) > 0
        assert two_arms["misses"] == one_arm["misses"]
        assert two_arms["hits"] > one_arm["hits"]

    def test_step3_checkpoint_eval_hits_triage_lowerings(
        self, conv_context, conv_population, enabled_metrics
    ):
        """Triage and Step-3 checkpoint evals share one lowering layout and
        one cache key per test batch: retraining after triage adds no cache
        entry and misses nothing.  Prefetch is off so the hit/miss split is
        deterministic."""
        framework = conv_context.framework()
        framework.eval_pipeline = EvalPipeline(prefetch=False)
        cache = framework.eval_pipeline.cache
        triage = framework.triage_population(conv_population)
        lowered = len(cache)
        assert lowered > 0
        metrics.reset()
        framework.retrain_chips_batched(
            list(conv_population), 0.25, accuracies_before=triage
        )
        counters = _lowering_counters()
        assert len(cache) == lowered
        assert counters.get("misses", 0) == 0
        assert counters["hits"] > 0

    def test_triage_hits_step1_lowerings(self, conv_population, enabled_metrics):
        """Step 1 evaluates through the context's eval pipeline, so triage
        afterwards adds no cache entry and misses nothing.  Prefetch is off
        so the hit/miss split is deterministic."""
        context = _fresh_conv_context()
        context.configure_eval_pipeline(prefetch=False)
        cache = context.eval_pipeline.cache
        assert len(cache) == 0
        context.resilience_profile()
        lowered = len(cache)
        assert lowered > 0
        metrics.reset()
        context.framework().triage_population(conv_population)
        counters = _lowering_counters()
        assert len(cache) == lowered
        assert counters.get("misses", 0) == 0
        assert counters["hits"] > 0

    def test_cache_bytes_gauge_tracks_shared_cache(
        self, conv_population, enabled_metrics
    ):
        context = _fresh_conv_context()
        run_strategy_sweep(
            context,
            conv_population,
            FixedEpochPolicy(0.25),
            "fat",
            fat_batch=2,
            prefetch=False,
        )
        cache = context.eval_pipeline.cache
        assert cache.nbytes > 0
        assert metrics.snapshot()["lowering_cache.bytes"]["value"] == cache.nbytes


class TestEvalPipelineConfig:
    def test_defaults(self):
        pipeline = EvalPipeline()
        assert pipeline.prefetch is True
        assert pipeline.cache.max_bytes == int(128.0 * 1024 * 1024)

    def test_configure_updates_in_place(self):
        pipeline = EvalPipeline()
        cache = pipeline.cache
        assert pipeline.configure(prefetch=False, lowering_cache_mb=1.0) is pipeline
        assert pipeline.prefetch is False
        assert pipeline.cache is cache  # same cache object, resized
        assert cache.max_bytes == 1024 * 1024

    def test_negative_cache_mb_rejected(self, smoke_context):
        with pytest.raises(ValueError):
            EvalPipeline(lowering_cache_mb=-1.0)
        with pytest.raises(ValueError):
            CampaignEngine(smoke_context, lowering_cache_mb=-1.0)

    def test_context_pipeline_is_shared_across_frameworks(self, smoke_context):
        pipeline = smoke_context.eval_pipeline
        assert smoke_context.framework().eval_pipeline is pipeline
        assert smoke_context.framework().eval_pipeline is pipeline


class TestCLIFlags:
    def test_negative_lowering_cache_mb_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--preset", "smoke", "--lowering-cache-mb", "-1"])
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_no_prefetch_campaign_runs(self, tmp_path, capsys):
        args = [
            "campaign",
            "--preset",
            "smoke",
            "--chips",
            "2",
            "--no-prefetch",
            "--lowering-cache-mb",
            "16",
            "--campaign-dir",
            str(tmp_path / "campaigns"),
        ]
        assert main(args) == 0
        assert capsys.readouterr().out
