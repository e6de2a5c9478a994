"""Determinism tests for the shared evaluation path.

The eval path's throughput features — step-deduplicated checkpoint
evaluation and the compute backend an :class:`EvalPipeline` carries — must
never change a result, store or fingerprint.  These tests pin that contract
at every level: the stacked trainer, whole campaigns (``--jobs 2 x
--fat-batch 4``, chaos kill and kill/resume) and multi-arm strategy sweeps,
where every eval pass lowers each of its test batches exactly once and keeps
none of them.

The smoke preset is an MLP, which never exercises the im2col lowering, so
campaign-level tests run a conv variant of it (LeNet-5 on 12x12 images).
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
    batch, so every eval pass lowers several batches.
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


def _eval_lowerings():
    """Eval-pass im2col lowerings so far (both LeNet convs), and no cache."""
    snap = metrics.snapshot()
    assert not [key for key in snap if key.startswith("lowering_cache.")]
    return snap.get("fat.eval.im2col_seconds", {}).get("count", 0)


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
    the eval path under parallel, killed and chaotic execution."""

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
    """Test batches of one eval pass."""
    batch_size = context.framework()._fat_training_config().batch_size
    return -(-len(context.bundle.test) // batch_size)


class TestSweepLowering:
    def test_every_eval_pass_lowers_its_own_batches(
        self, conv_population, enabled_metrics
    ):
        """Each eval pass lowers every test batch at both convs, and a second
        sweep arm re-lowers rather than reading the first arm's lowerings.
        Counting starts after the context is built, so pre-training's
        evaluation is not counted."""
        policy = FixedEpochPolicy(0.25)
        context = _fresh_conv_context()
        per_pass = 2 * _num_eval_batches(context)
        metrics.reset()
        run_strategy_sweep(context, conv_population, policy, "fat", fat_batch=2)
        one_arm = _eval_lowerings()
        context = _fresh_conv_context()
        metrics.reset()
        run_strategy_sweep(
            context, conv_population, policy, "fat,fam+fat", fat_batch=2
        )
        two_arms = _eval_lowerings()
        # One arm: one triage pass over all four chips, then one checkpoint
        # pass for each of Step 3's two 2-chip stacks.
        assert one_arm == 3 * per_pass
        # The second arm measures triage under its own (permuted) masks and
        # retrains two more stacks: three more passes.
        assert two_arms == 6 * per_pass


class TestEvalPipelineConfig:
    def test_defaults(self):
        pipeline = EvalPipeline()
        assert pipeline.backend is None
        assert [field.name for field in dataclasses.fields(pipeline)] == ["backend"]

    def test_negative_cache_mb_rejected(self, smoke_context):
        """Every cache cap names the removal, a negative one included."""
        for cap in (-1.0, 0.0, 128.0):
            with pytest.raises(ValueError, match="eval-lowering cache was removed"):
                CampaignEngine(smoke_context, lowering_cache_mb=cap)
            with pytest.raises(ValueError, match="eval-lowering cache was removed"):
                run_compare(smoke_context, "fat", num_chips=1, lowering_cache_mb=cap)
        assert CampaignEngine(smoke_context, lowering_cache_mb=None).backend is None

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
        """The flag is gone: any value, a negative one included, is a usage
        error."""
        for command in ("campaign", "compare"):
            for value in ("-1", "128"):
                with pytest.raises(SystemExit) as excinfo:
                    main([command, "--preset", "smoke", "--lowering-cache-mb", value])
                assert excinfo.value.code == 2
                err = capsys.readouterr().err
                assert "usage:" in err and "--lowering-cache-mb" in err
