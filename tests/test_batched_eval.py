"""Exact-equivalence tests for the stacked population evaluation.

The contract of :func:`~repro.accelerator.batched.evaluate_chip_accuracies`
— the :class:`~repro.accelerator.batched.BatchedFaultTrainer` eval forward
over one stack of chips — is that evaluating B chips in one stacked sweep returns
exactly what B serial ``apply masks -> serial_forward(model, x)`` passes return
(``tests/helpers.py``: ``serial_evaluate_accuracy``).
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
    SystolicArray,
    evaluate_chip_accuracies,
    model_fault_masks,
)
from repro.accelerator.batched import EvalPipeline, LoweringCache
from repro.backends.numpy_backend import CompiledGraph
from repro.core.chips import ChipPopulation
from repro.core.reduce import TRIAGE_CHIP_CHUNK, ReduceFramework
from repro.data.dataloader import DataLoader
from repro.experiments import build_dataset, fast_preset
from repro.models import MLP, build_model
from repro.training import TrainingConfig
from tests.helpers import (
    recorded_evaluate,
    reference_retrain_chip,
    serial_evaluate_accuracy,
)
from tests.serial import apply_weight_masks, no_grad, serial_forward

# Eval batches are ``batch_size`` rows: 4 here, so the 32-image test set walks
# eight batches.
SMALL_BATCHES = TrainingConfig(batch_size=4)


def _serial_accuracies(model, pretrained, mask_sets, dataset):
    accuracies = []
    for masks in mask_sets:
        model.load_state_dict(pretrained)
        apply_weight_masks(model, masks)
        accuracies.append(serial_evaluate_accuracy(model, dataset))
    model.load_state_dict(pretrained)
    return accuracies


def _serial_logits(model, pretrained, masks, inputs):
    model.load_state_dict(pretrained)
    apply_weight_masks(model, masks)
    with no_grad():
        logits = serial_forward(model, inputs).data.copy()
    model.load_state_dict(pretrained)
    return logits


def _stacked_logits(model, mask_sets, dataset, inputs):
    """``(B, n, classes)`` logits of the trainer's stacked eval forward."""
    trainer = BatchedFaultTrainer(model, mask_sets, dataset, dataset)
    return trainer._eval_logits(inputs.data).copy()


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
        """Triage splits ``TRIAGE_CHIP_CHUNK + 1`` chips into two stacks;
        every chip reads what its own stack of one reads."""
        model, pretrained, _, _ = conv_setup
        framework = ReduceFramework(model, pretrained, image_bundle, SystolicArray(16, 16))
        chips = list(ChipPopulation.generate(
            TRIAGE_CHIP_CHUNK + 1, 16, 16, fault_rates=(0.05, 0.3), seed=5
        ))
        chunked = framework.triage_population(chips)
        assert list(chunked) == [chip.chip_id for chip in chips]
        for chip in chips:
            assert framework.triage_population([chip]) == {chip.chip_id: chunked[chip.chip_id]}

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
        evaluate_chip_accuracies(model, image_bundle.test, mask_sets)
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, pretrained[name])
        # No layer's forward is replaced, not even for the pass.
        for _, module in model.named_modules():
            assert "forward" not in module.__dict__


def _count_eval_lowerings(monkeypatch):
    """Keys of every shared-prefix eval lowering, in call order."""
    keys = []
    real = LoweringCache.get_or_compute

    def counting(self, key, compute, record=True):
        keys.append(key)
        return real(self, key, compute, record)

    monkeypatch.setattr(LoweringCache, "get_or_compute", counting)
    return keys


class TestLoweringCache:
    def test_every_chunk_lowers_every_batch(
        self, conv_setup, image_bundle, monkeypatch
    ):
        """Each chip chunk's eval pass lowers the whole test set itself at the
        shared-prefix conv, and the pass-through cache keeps none of it."""
        model, _, _, mask_sets = conv_setup
        keys = _count_eval_lowerings(monkeypatch)
        num_batches = -(-len(image_bundle.test) // SMALL_BATCHES.batch_size)
        chunked = [
            accuracy
            for chunk in (mask_sets[:2], mask_sets[2:4], mask_sets[4:])
            for accuracy in evaluate_chip_accuracies(
                model, image_bundle.test, chunk, SMALL_BATCHES
            )
        ]
        # 3 chunks x num_batches forwards, each lowering its own batch.
        assert keys == ["0"] * (3 * num_batches)
        assert LoweringCache.nbytes == 0
        one_chunk = evaluate_chip_accuracies(
            model, image_bundle.test, mask_sets, SMALL_BATCHES
        )
        assert chunked == one_chunk

    def test_cache_respects_byte_budget(self, conv_setup, image_bundle):
        """The pass-through cache's budget is zero bytes: it stores nothing,
        and results equal a fresh pipeline's."""
        model, _, _, mask_sets = conv_setup
        fresh = evaluate_chip_accuracies(model, image_bundle.test, mask_sets, SMALL_BATCHES)
        shared = evaluate_chip_accuracies(
            model, image_bundle.test, mask_sets, SMALL_BATCHES, eval_pipeline=EvalPipeline(),
        )
        assert shared == fresh
        assert LoweringCache().nbytes == 0

    def test_loader_batch_size_keys_the_cache(self, conv_setup, image_bundle):
        """A caller-supplied loader slicing the data differently from the
        config's eval batch gives the same accuracies as the config's."""
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

    def test_cache_ignored_for_inputs_of_unknown_identity(
        self, conv_setup, image_bundle, monkeypatch
    ):
        """Training steps lower inside the conv itself (the columns are saved
        for backward), never through the eval lowering."""
        model, _, _, mask_sets = conv_setup
        keys = _count_eval_lowerings(monkeypatch)
        trainer = BatchedFaultTrainer(
            model, mask_sets[:2], image_bundle.train, image_bundle.test,
            config=SMALL_BATCHES,
        )
        trainer._train_steps(2)
        assert keys == []


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

    def test_default_eval_lowers_training_size_batches(self, fast_setup, monkeypatch):
        """The default eval lowers the first conv once per training-size
        batch: ``(K, batch_size * out_h * out_w)`` columns each."""
        import repro.accelerator.batched as batched_module

        preset, bundle, model, mask_sets = fast_setup
        widths = []
        real = batched_module.im2col_t

        def recording(*args, **kwargs):
            cols, out_h, out_w = real(*args, **kwargs)
            widths.append(cols.shape[1] // (out_h * out_w))
            return cols, out_h, out_w

        monkeypatch.setattr(batched_module, "im2col_t", recording)
        keys = _count_eval_lowerings(monkeypatch)
        BatchedFaultTrainer(
            model, mask_sets, bundle.train, bundle.test, config=preset.retraining,
        ).evaluate()
        batch_size = preset.retraining.batch_size
        num_batches = -(-len(bundle.test) // batch_size)
        assert keys == ["features.0"] * num_batches
        assert widths == [batch_size] * num_batches


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
