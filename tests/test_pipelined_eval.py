"""Determinism tests for the shared evaluation path.

The eval path's throughput features — step-deduplicated checkpoint
evaluation, the sweep-wide shared lowering cache and the compute backend an
:class:`EvalPipeline` carries — must never change a result, store or
fingerprint.  These tests pin that contract at every level: the lowering
cache's keys, the stacked trainer, whole campaigns (``--jobs 2 x --fat-batch
4``, chaos kill and kill/resume) and multi-arm strategy sweeps, where arms
2..K must *hit* the lowerings arm 1 computed (and Step-3 checkpoint evals
must hit the lowerings triage computed) with exact hit/miss counts.

The smoke preset is an MLP, which never exercises the im2col lowering cache,
so campaign-level tests run a conv variant of it (LeNet-5 on 12x12 images).
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro import nn
from repro.accelerator import FaultMap, model_fault_masks
from repro.accelerator.batched import (
    BatchedFaultTrainer,
    EvalPipeline,
    evaluate_chip_accuracies,
)
from repro.backends import BackendError
from repro.campaign import CampaignEngine
from repro.campaign.sweep import run_strategy_sweep
from repro.cli import main
from repro.core.chips import ChipPopulation
from repro.core.selection import FixedEpochPolicy
from repro.experiments import ExperimentContext, run_compare, smoke_preset
from repro.experiments.presets import ModelSpec
from repro.observability import metrics
from repro.training import TrainingConfig, epochs_to_steps
from tests.helpers import ReferenceTrainer


def _conv_preset():
    """The smoke preset with a conv model, so eval passes im2col-lower.

    ``test_per_class=40`` gives the trainer's eval loader more than one
    batch, so every eval pass walks several lowering-cache keys.
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


class TestLoweringCacheKeys:
    CONFIG = TrainingConfig(batch_size=4)

    def test_shared_pipeline_never_serves_another_datasets_lowerings(
        self, image_bundle
    ):
        """Batch ``i`` of the train set is not batch ``i`` of the test set:
        a pipeline that lowered the test set must re-lower the train set."""
        model = _small_cnn(image_bundle)
        mask_sets = _cnn_mask_sets(image_bundle)
        shared = EvalPipeline()
        evaluate_chip_accuracies(
            model, image_bundle.test, mask_sets, self.CONFIG, eval_pipeline=shared
        )
        on_train = evaluate_chip_accuracies(
            model, image_bundle.train, mask_sets, self.CONFIG, eval_pipeline=shared
        )
        fresh = evaluate_chip_accuracies(
            model, image_bundle.train, mask_sets, self.CONFIG
        )
        assert on_train == fresh
        datasets = {id(key[0]) for key in shared.cache._entries}
        assert datasets == {id(image_bundle.test), id(image_bundle.train)}


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
            eval_pipeline=EvalPipeline(backend=backend),
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
    """Campaign-level determinism of the conv eval path.  The test names
    date from the removed background prefetch thread; each case now checks
    the lowering cache under parallel, killed and chaotic execution."""

    def _run(self, context, population, store_base, **engine_kwargs):
        engine = CampaignEngine(context, store_base=store_base, **engine_kwargs)
        result = engine.run(population, FixedEpochPolicy(0.25))
        report = engine.last_report
        store_bytes = (report.store_dir / "results.jsonl").read_bytes()
        return result, report, store_bytes

    def test_prefetch_under_jobs_and_fat_batch(
        self, conv_context, conv_population, tmp_path
    ):
        """--jobs 2 x --fat-batch 4 matches the in-process run."""
        parallel, parallel_report, parallel_bytes = self._run(
            conv_context,
            conv_population,
            tmp_path / "parallel",
            jobs=2,
            fat_batch=4,
        )
        serial, serial_report, serial_bytes = self._run(
            conv_context, conv_population, tmp_path / "serial", jobs=1
        )
        assert parallel.results == serial.results
        assert parallel_report.fingerprint == serial_report.fingerprint
        # A parallel store appends chunks in completion order, which varies
        # run to run; the recorded lines themselves must match byte for byte.
        assert sorted(parallel_bytes.splitlines()) == sorted(serial_bytes.splitlines())

    def test_killed_then_resumed_with_prefetch(
        self, conv_context, conv_population, tmp_path
    ):
        full, report, _ = self._run(
            conv_context,
            conv_population,
            tmp_path,
            jobs=2,
            fat_batch=4,
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
        )
        chaotic, chaotic_report, _ = self._run(
            conv_context,
            conv_population,
            tmp_path / "chaos",
            jobs=2,
            fat_batch=2,
            chaos="seed=3,kill=1",
        )
        assert chaotic.results == baseline.results
        assert chaotic_report.failed == 0


def _num_eval_batches(context):
    """Test batches of one eval pass: the lowering-cache keys per layer."""
    batch_size = context.framework()._fat_training_config().batch_size
    return -(-len(context.bundle.test) // batch_size)


class TestSweepLoweringReuse:
    def test_later_arms_hit_lowerings_of_the_first(
        self, conv_population, enabled_metrics
    ):
        """Arms 2..K re-use arm 1's eval-batch lowerings: extra hits, zero
        extra misses.  Counting starts after each context is built, so
        pre-training's evaluation (through its own private cache) is not
        counted."""
        policy = FixedEpochPolicy(0.25)
        context = _fresh_conv_context()
        batches = _num_eval_batches(context)
        metrics.reset()
        run_strategy_sweep(context, conv_population, policy, "fat", fat_batch=2)
        one_arm = _lowering_counters()
        context = _fresh_conv_context()
        metrics.reset()
        run_strategy_sweep(
            context, conv_population, policy, "fat,fam+fat", fat_batch=2
        )
        two_arms = _lowering_counters()
        # One arm: triage lowers every batch once (one pass over all four
        # chips), then Step 3's two 2-chip stacks each hit every batch once.
        assert one_arm == {"misses": batches, "hits": 2 * batches}
        # The second arm measures triage under its own (permuted) masks and
        # retrains two more stacks: three more passes, all hits.
        assert two_arms == {"misses": batches, "hits": 5 * batches}

    def test_step3_checkpoint_eval_hits_triage_lowerings(
        self, conv_context, conv_population, enabled_metrics
    ):
        """Triage and Step-3 checkpoint evals share one lowering layout and
        one cache key per test batch: retraining after triage adds no cache
        entry and misses nothing."""
        framework = conv_context.framework()
        framework.eval_pipeline = EvalPipeline()
        cache = framework.eval_pipeline.cache
        triage = framework.triage_population(conv_population)
        lowered = len(cache)
        assert lowered == _num_eval_batches(conv_context)
        metrics.reset()
        framework.retrain_chips_batched(
            list(conv_population), 0.25, accuracies_before=triage
        )
        # All four chips train in one stack: one checkpoint pass.
        assert _lowering_counters() == {"hits": lowered}
        assert len(cache) == lowered

    def test_triage_hits_step1_lowerings(self, conv_population, enabled_metrics):
        """Step 1 evaluates through the context's eval pipeline, so triage
        afterwards adds no cache entry and misses nothing."""
        context = _fresh_conv_context()
        cache = context.eval_pipeline.cache
        assert len(cache) == 0
        context.resilience_profile()
        lowered = len(cache)
        assert lowered == _num_eval_batches(context)
        metrics.reset()
        context.framework().triage_population(conv_population)
        # One triage pass over the four chips: every batch hits once.
        assert _lowering_counters() == {"hits": lowered}
        assert len(cache) == lowered

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
        )
        cache = context.eval_pipeline.cache
        assert cache.nbytes > 0
        assert metrics.snapshot()["lowering_cache.bytes"]["value"] == cache.nbytes
        # Shrinking the cap evicts, and the gauge follows.
        context.eval_pipeline.configure(lowering_cache_mb=0.0)
        assert cache.nbytes == 0
        assert metrics.snapshot()["lowering_cache.bytes"]["value"] == 0


class TestEvalPipelineConfig:
    def test_defaults(self):
        pipeline = EvalPipeline()
        assert pipeline.backend is None
        assert pipeline.cache.max_bytes == int(128.0 * 1024 * 1024)

    def test_configure_updates_in_place(self):
        pipeline = EvalPipeline()
        cache = pipeline.cache
        assert pipeline.configure(lowering_cache_mb=1.0) is pipeline
        assert pipeline.cache is cache  # same cache object, resized
        assert cache.max_bytes == 1024 * 1024

    def test_negative_cache_mb_rejected(self, smoke_context):
        with pytest.raises(ValueError):
            EvalPipeline(lowering_cache_mb=-1.0)
        with pytest.raises(ValueError):
            CampaignEngine(smoke_context, lowering_cache_mb=-1.0)

    def test_unknown_backend_rejected(self):
        with pytest.raises(BackendError, match="unknown backend 'bogus'"):
            EvalPipeline(backend="bogus")

    def test_engine_run_sets_the_context_backend(self, conv_population):
        """Every run sets the backend on the context's pipeline, so a later
        eager engine on the same context does not inherit a replay."""
        context = _fresh_conv_context()
        for backend in ("numpy", None):
            CampaignEngine(context, backend=backend).run(
                conv_population, FixedEpochPolicy(0.0)
            )
            assert context.eval_pipeline.backend == backend

    def test_prefetch_false_names_the_removal(self, smoke_context):
        with pytest.raises(ValueError, match="prefetch thread was removed"):
            CampaignEngine(smoke_context, prefetch=False)
        with pytest.raises(ValueError, match="prefetch thread was removed"):
            run_compare(smoke_context, "fat", num_chips=1, prefetch=False)

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
