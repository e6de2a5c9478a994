"""Exact-equivalence tests for the stacked population evaluation.

The contract of :func:`~repro.accelerator.batched.evaluate_chip_accuracies`
— the :class:`~repro.accelerator.batched.BatchedFaultTrainer` eval forward
over chip chunks — is that evaluating B chips in one stacked sweep returns
exactly what B serial ``apply masks -> evaluate_accuracy`` passes return.
Logits are compared to float32 ``atol=1e-6`` (the shared-prefix wide GEMM may
differ from the serial 2-D GEMM within float32 rounding on BLAS builds with
width-dependent kernel selection; on the build used in development they are
bit-identical) and the derived accuracies must match exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.accelerator import (
    BatchedFaultTrainer,
    FaultMap,
    evaluate_chip_accuracies,
    model_fault_masks,
)
from repro.accelerator.batched import EvalPipeline
from repro.backends.numpy_backend import CompiledGraph
from repro.data.dataloader import DataLoader
from repro.experiments import build_dataset, fast_preset
from repro.models import MLP, build_model
from repro.training import TrainingConfig, apply_weight_masks, evaluate_accuracy
from tests.helpers import recorded_evaluate, reference_retrain_chip

# Eval batches are ``batch_size`` rows: 4 here, so the 32-image test set walks
# eight batches.
SMALL_BATCHES = TrainingConfig(batch_size=4)


def _serial_accuracies(model, pretrained, mask_sets, dataset):
    accuracies = []
    for masks in mask_sets:
        model.load_state_dict(pretrained)
        apply_weight_masks(model, masks)
        accuracies.append(evaluate_accuracy(model, dataset))
    model.load_state_dict(pretrained)
    return accuracies


def _serial_logits(model, pretrained, masks, inputs):
    model.load_state_dict(pretrained)
    apply_weight_masks(model, masks)
    model.eval()
    with nn.no_grad():
        logits = model(inputs).data.copy()
    model.load_state_dict(pretrained)
    return logits


def _stacked_logits(model, mask_sets, dataset, inputs):
    """``(B, n, classes)`` logits of the trainer's stacked eval forward."""
    trainer = BatchedFaultTrainer(model, mask_sets, dataset, dataset)
    model.eval()
    try:
        with nn.no_grad(), trainer._patched():
            return trainer._eval_forward_all_chips(inputs.data).copy()
    finally:
        model.train()


def _small_cnn(image_bundle):
    channels = image_bundle.input_shape[0]
    return nn.Sequential(
        nn.Conv2d(channels, 4, 3, padding=1, rng=0),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Conv2d(4, 6, 3, padding=1, rng=1),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(6 * 2 * 2, image_bundle.num_classes, rng=2),
    )


@pytest.fixture
def conv_setup(image_bundle):
    model = _small_cnn(image_bundle)
    pretrained = model.state_dict()
    maps = [FaultMap.random(16, 16, 0.05 + 0.05 * i, seed=i) for i in range(6)]
    mask_sets = [model_fault_masks(model, fault_map) for fault_map in maps]
    return model, pretrained, maps, mask_sets


class TestBatchedEquivalence:
    def test_accuracies_match_serial_exactly(self, conv_setup, image_bundle):
        model, pretrained, _, mask_sets = conv_setup
        serial = _serial_accuracies(model, pretrained, mask_sets, image_bundle.test)
        batched = evaluate_chip_accuracies(model, image_bundle.test, mask_sets)
        assert batched == serial

    def test_logits_match_serial(self, conv_setup, image_bundle):
        model, pretrained, _, mask_sets = conv_setup
        inputs, _ = next(iter(DataLoader(image_bundle.test, batch_size=16)))
        batched = _stacked_logits(model, mask_sets, image_bundle.test, inputs)
        assert batched.shape[0] == len(mask_sets)
        for index, masks in enumerate(mask_sets):
            serial = _serial_logits(model, pretrained, masks, inputs)
            np.testing.assert_allclose(batched[index], serial, rtol=0.0, atol=1e-6)

    def test_chip_chunking_is_transparent(self, conv_setup, image_bundle):
        model, _, _, mask_sets = conv_setup
        full = evaluate_chip_accuracies(
            model, image_bundle.test, mask_sets, chip_chunk=len(mask_sets)
        )
        for chunk in (1, 2, 4, len(mask_sets) + 3):
            chunked = evaluate_chip_accuracies(
                model, image_bundle.test, mask_sets, chip_chunk=chunk
            )
            assert chunked == full

    def test_mlp_first_linear_shared_prefix(self, blob_bundle):
        model = MLP(8, blob_bundle.num_classes, hidden_sizes=(16, 12), seed=1)
        pretrained = model.state_dict()
        maps = [FaultMap.random(8, 8, 0.1 + 0.1 * i, seed=10 + i) for i in range(4)]
        mask_sets = [model_fault_masks(model, fault_map) for fault_map in maps]
        serial = _serial_accuracies(model, pretrained, mask_sets, blob_bundle.test)
        batched = evaluate_chip_accuracies(model, blob_bundle.test, mask_sets)
        assert batched == serial

    def test_model_state_is_untouched(self, conv_setup, image_bundle):
        model, pretrained, _, mask_sets = conv_setup
        was_training = model.training
        evaluate_chip_accuracies(model, image_bundle.test, mask_sets, chip_chunk=4)
        assert model.training == was_training
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, pretrained[name])
        # The patched forwards must have been removed again.
        for _, module in model.named_modules():
            assert "forward" not in module.__dict__


class TestLoweringCache:
    def test_shared_cache_lowers_each_batch_once_across_chunks(
        self, conv_setup, image_bundle, monkeypatch
    ):
        """evaluate_chip_accuracies shares the shared-prefix im2col_t across
        chip chunks: the test set is lowered once for the whole population."""
        import repro.accelerator.batched as batched_module

        model, pretrained, _, mask_sets = conv_setup
        calls = []
        real = batched_module.im2col_t

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        # Only the first (shared-prefix) conv lowers through ``im2col_t`` in
        # an eval pass; the folded second conv lowers per chip stack.
        monkeypatch.setattr(batched_module, "im2col_t", counting)
        num_batches = -(-len(image_bundle.test) // SMALL_BATCHES.batch_size)
        cached = evaluate_chip_accuracies(
            model, image_bundle.test, mask_sets, SMALL_BATCHES, chip_chunk=2
        )
        # 3 chunks x num_batches forwards, but the first-layer lowering runs
        # only num_batches times: later chunks hit the cache.
        assert len(calls) == num_batches
        # Values are identical to a single-chunk pass.
        uncached = evaluate_chip_accuracies(
            model, image_bundle.test, mask_sets, SMALL_BATCHES, chip_chunk=6
        )
        assert cached == uncached

    def test_cache_respects_byte_budget(self, conv_setup, image_bundle):
        """Inserts stop at the budget; results are unchanged (just uncached)."""
        model, _, _, mask_sets = conv_setup
        unbounded = evaluate_chip_accuracies(
            model, image_bundle.test, mask_sets, SMALL_BATCHES, chip_chunk=2
        )
        pipeline = EvalPipeline(lowering_cache_mb=0.0)
        cache = pipeline.cache
        bounded = evaluate_chip_accuracies(
            model,
            image_bundle.test,
            mask_sets,
            SMALL_BATCHES,
            chip_chunk=2,
            eval_pipeline=pipeline,
        )
        assert len(cache) == 0  # budget of zero: nothing cached
        assert cache.nbytes == 0
        assert bounded == unbounded

    def test_cache_evicts_lru_past_the_cap(self, conv_setup, image_bundle):
        """A cap below the working set keeps the cache bounded, not broken."""
        model, _, _, mask_sets = conv_setup
        unbounded_pipeline = EvalPipeline()
        unbounded_cache = unbounded_pipeline.cache
        unbounded = evaluate_chip_accuracies(
            model, image_bundle.test, mask_sets, SMALL_BATCHES, chip_chunk=2,
            eval_pipeline=unbounded_pipeline,
        )
        assert len(unbounded_cache) > 1
        # Cap to one largest entry: every later insert evicts the previous.
        one_entry = max(
            entry[0].nbytes for entry in unbounded_cache._entries.values()
        )
        pipeline = EvalPipeline()
        cache = pipeline.cache
        cache.set_max_bytes(one_entry)
        bounded = evaluate_chip_accuracies(
            model, image_bundle.test, mask_sets, SMALL_BATCHES, chip_chunk=2,
            eval_pipeline=pipeline,
        )
        assert bounded == unbounded
        assert len(cache) >= 1
        assert cache.nbytes <= one_entry

    def test_set_max_bytes_shrinks_in_place(self, conv_setup, image_bundle):
        model, _, _, mask_sets = conv_setup
        pipeline = EvalPipeline()
        cache = pipeline.cache
        evaluate_chip_accuracies(
            model, image_bundle.test, mask_sets, SMALL_BATCHES, chip_chunk=2,
            eval_pipeline=pipeline,
        )
        assert cache.nbytes > 0
        cache.set_max_bytes(0)
        assert len(cache) == 0
        assert cache.nbytes == 0

    def test_loader_batch_size_keys_the_cache(self, conv_setup, image_bundle):
        """A caller-supplied loader slicing the data differently from the
        config's eval batch never reads another batch size's lowerings."""
        model, pretrained, _, mask_sets = conv_setup
        pipeline = EvalPipeline()
        by_dataset = evaluate_chip_accuracies(
            model, image_bundle.test, mask_sets, SMALL_BATCHES, eval_pipeline=pipeline
        )
        loader = DataLoader(image_bundle.test, batch_size=8, shuffle=False)
        by_loader = evaluate_chip_accuracies(
            model, loader, mask_sets, SMALL_BATCHES, eval_pipeline=pipeline
        )
        assert by_loader == by_dataset
        assert by_dataset == _serial_accuracies(
            model, pretrained, mask_sets, image_bundle.test
        )

    def test_cache_ignored_for_inputs_of_unknown_identity(self, conv_setup, image_bundle):
        """Training steps see shuffled batches, so they never touch the cache."""
        model, _, _, mask_sets = conv_setup
        pipeline = EvalPipeline()
        trainer = BatchedFaultTrainer(
            model, mask_sets[:2], image_bundle.train, image_bundle.test,
            config=SMALL_BATCHES, eval_pipeline=pipeline,
        )
        trainer._train_steps(2)
        assert len(pipeline.cache) == 0


@pytest.fixture(scope="module")
def fast_setup():
    """The ``fast`` preset's LeNet, test set and retraining config, 8 chips."""
    preset = fast_preset()
    bundle = build_dataset(preset)
    model = build_model(
        preset.model.name,
        input_shape=bundle.input_shape,
        num_classes=bundle.num_classes,
        seed=preset.model.seed,
    )
    maps = [
        FaultMap.random(preset.array_rows, preset.array_cols, 0.02 + 0.03 * i, seed=i)
        for i in range(8)
    ]
    mask_sets = [model_fault_masks(model, fault_map) for fault_map in maps]
    return preset, bundle, model, mask_sets


class TestEvalBatchInvariance:
    """At ``fast`` shapes the eval batch is a throughput knob, not a result.

    Every eval loader gives the same per-chip accuracies, and a replayed eval
    chain gives the eager chain's exact logits.  Across eval batch sizes the
    logits agree only to float32 rounding: BLAS picks its GEMM kernel by
    matrix shape, so even the plain model's last ``Linear`` differs in the
    last bits between batches of 40 and 200 on the build used in development.
    """

    EVAL_BATCHES = (1, 7, 40, 160, 200)

    def _trained(self, fast_setup, seeds, backend):
        preset, bundle, model, mask_sets = fast_setup
        trainer = BatchedFaultTrainer(
            model, mask_sets, bundle.train, bundle.test,
            config=preset.retraining, eval_pipeline=EvalPipeline(backend=backend),
            seeds=seeds,
        )
        # Two steps make every chip's stacks its own (and, with per-chip
        # seeds, train each chip on its own batches).
        trainer._train_steps(2)
        return trainer

    @staticmethod
    def _evaluate(trainer, dataset, eval_batch):
        """Accuracies and ``(B, n, classes)`` logits of one eval pass."""
        trainer.eval_data = DataLoader(dataset, batch_size=eval_batch, shuffle=False)
        accuracies, logits = recorded_evaluate(trainer)
        return accuracies, np.concatenate(logits, axis=1)

    @pytest.mark.parametrize("seeds", [None, list(range(100, 108))], ids=["shared", "per-chip"])
    def test_accuracies_invariant_and_replay_bit_identical(
        self, fast_setup, seeds, monkeypatch
    ):
        replays = []
        replay = CompiledGraph.__call__

        def counting(graph, inputs):
            replays.append(inputs[0].shape[0])
            return replay(graph, inputs)

        monkeypatch.setattr(CompiledGraph, "__call__", counting)
        test = fast_setup[1].test
        eager = self._trained(fast_setup, seeds, backend=None)
        replayed = self._trained(fast_setup, seeds, backend="numpy")
        reference_accuracies, reference_logits = self._evaluate(eager, test, 40)
        assert reference_logits.shape == (8, 200, 10)
        for eval_batch in self.EVAL_BATCHES:
            accuracies, logits = self._evaluate(eager, test, eval_batch)
            assert accuracies == reference_accuracies
            np.testing.assert_allclose(logits, reference_logits, rtol=0.0, atol=1e-5)
            replay_accuracies, replay_logits = self._evaluate(replayed, test, eval_batch)
            assert replay_accuracies == accuracies
            np.testing.assert_array_equal(
                replay_logits.view(np.uint32), logits.view(np.uint32)
            )
        # The five same-shape batches of a 40-image pass replay after the
        # first capture: replay is on the default eval's path.
        assert replays.count(40) >= 4

    def test_default_eval_keys_the_lowering_cache_by_batch_size(self, fast_setup):
        preset, bundle, model, mask_sets = fast_setup
        pipeline = EvalPipeline()
        BatchedFaultTrainer(
            model, mask_sets, bundle.train, bundle.test,
            config=preset.retraining, eval_pipeline=pipeline,
        ).evaluate()
        batch_size = preset.retraining.batch_size
        num_batches = -(-len(bundle.test) // batch_size)
        assert list(pipeline.cache._entries) == [
            (bundle.test, "features.0", batch_size, index) for index in range(num_batches)
        ]


class TestBatchedValidation:
    def test_empty_mask_sets_rejected(self, conv_setup, image_bundle):
        model = conv_setup[0]
        with pytest.raises(ValueError):
            evaluate_chip_accuracies(model, image_bundle.test, [])

    def test_mismatched_keys_rejected(self, conv_setup, image_bundle):
        model, _, _, mask_sets = conv_setup
        broken = dict(mask_sets[1])
        broken.pop(next(iter(broken)))
        with pytest.raises(ValueError):
            evaluate_chip_accuracies(model, image_bundle.test, [mask_sets[0], broken])

    def test_unknown_layer_rejected(self, conv_setup, image_bundle):
        model = conv_setup[0]
        with pytest.raises(KeyError):
            evaluate_chip_accuracies(
                model,
                image_bundle.test,
                [{"no.such.layer": np.zeros((1, 1), dtype=bool)}],
            )

    def test_wrong_mask_shape_rejected(self, conv_setup, image_bundle):
        model, _, _, mask_sets = conv_setup
        name = next(iter(mask_sets[0]))
        broken = dict(mask_sets[0])
        broken[name] = np.zeros((1, 2), dtype=bool)
        with pytest.raises(ValueError):
            evaluate_chip_accuracies(model, image_bundle.test, [broken])


class TestFrameworkTriage:
    def test_triage_matches_serial_accuracy_before(self, smoke_context):
        from repro.core.chips import ChipPopulation
        from repro.utils.rng import derive_seed

        framework = smoke_context.framework()
        population = ChipPopulation.generate(
            count=5,
            rows=smoke_context.array.rows,
            cols=smoke_context.array.cols,
            fault_rates=(0.05, 0.25),
            seed=derive_seed(123, "triage-test"),
        )
        triage = framework.triage_population(population)
        assert set(triage) == {chip.chip_id for chip in population}
        for chip in population:
            serial = reference_retrain_chip(framework, chip, epochs=0.0)
            assert triage[chip.chip_id] == serial.accuracy_before
            # A zero-epoch chip fed the triage value needs no training pass
            # and must reproduce the serial result exactly.
            shortcut = reference_retrain_chip(
                framework, chip, epochs=0.0, accuracy_before=triage[chip.chip_id]
            )
            assert shortcut == serial
