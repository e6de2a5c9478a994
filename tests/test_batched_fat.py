"""Exact-equivalence tests for batched multi-chip fault-aware retraining.

The contract of :class:`~repro.accelerator.batched.BatchedFaultTrainer` is
that retraining B chips in one stacked batched loop is *bit-identical* to B
serial reference runs (``tests/helpers.py``: ``ReferenceTrainer``) with the
same config: same
per-chip weights, same per-step losses, same checkpoint accuracies.  These
tests pin that on the BLAS build in use, across optimizers, model families
(MLP / CNN), dropout and label smoothing, and then up through the framework
(``retrain_chips_batched``) and the campaign engine's coalescing phase, where
the serial per-chip ``reference_retrain_chip`` is the reference.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import nn
from repro.accelerator import FaultMap, model_fault_masks
from repro.accelerator.batched import BatchedFaultTrainer, UnsupportedModelError
from repro.campaign import CampaignEngine, execute_job_chunk, plan_job_chunks
from repro.core.chips import ChipPopulation
from repro.core.selection import FixedEpochPolicy, RetrainingPolicy
from repro.data import make_blob_classification, make_class_template_images
from repro.models import MLP, LeNet5
from repro.training import TrainingConfig, epochs_to_steps
from tests.helpers import ReferenceTrainer, reference_retrain_chip, triaged_jobs


def _mlp_factory(bundle):
    return lambda: MLP(8, bundle.num_classes, hidden_sizes=(24, 16), seed=0)


def _cnn_factory(bundle):
    channels = bundle.input_shape[0]

    def make():
        return nn.Sequential(
            nn.Conv2d(channels, 4, 3, padding=1, rng=0),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Conv2d(4, 6, 3, padding=1, rng=1),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Flatten(),
            nn.Linear(6 * 2 * 2, bundle.num_classes, rng=2),
        )

    return make


def _mask_sets(make_model, num_chips=4, rows=16, cols=16):
    maps = [FaultMap.random(rows, cols, 0.05 + 0.04 * i, seed=i) for i in range(num_chips)]
    return [model_fault_masks(make_model(), fault_map) for fault_map in maps]


def _serial_runs(
    make_model, pretrained, mask_sets, bundle, config, epochs, checkpoints, seeds=None
):
    runs = []
    for chip, masks in enumerate(mask_sets):
        model = make_model()
        model.load_state_dict(pretrained)
        chip_config = config if seeds is None else dataclasses.replace(config, seed=seeds[chip])
        trainer = ReferenceTrainer(
            model, bundle.train, bundle.test, config=chip_config, masks=masks
        )
        history = trainer.train(epochs, eval_checkpoints=checkpoints)
        runs.append((history, model.state_dict()))
    return runs


def _assert_batched_equals_serial(
    make_model, bundle, mask_sets, config, epochs, checkpoints=None, seeds=None
):
    model = make_model()
    pretrained = model.state_dict()
    serial = _serial_runs(
        make_model, pretrained, mask_sets, bundle, config, epochs, checkpoints, seeds
    )
    model.load_state_dict(pretrained)
    batched = BatchedFaultTrainer(
        model, mask_sets, bundle.train, bundle.test, config=config, seeds=seeds
    )
    histories = batched.train(epochs, eval_checkpoints=checkpoints)
    assert len(histories) == len(mask_sets)
    for chip, (serial_history, serial_state) in enumerate(serial):
        history = histories[chip]
        assert history.epochs == serial_history.epochs
        assert history.accuracies == serial_history.accuracies
        serial_losses = [record.train_loss for record in serial_history.records]
        batched_losses = [record.train_loss for record in history.records]
        for serial_loss, batched_loss in zip(serial_losses, batched_losses):
            if np.isnan(serial_loss):
                assert np.isnan(batched_loss)
            else:
                assert batched_loss == serial_loss
        state = batched.chip_state_dict(chip)
        assert set(state) == set(serial_state)
        for name in serial_state:
            np.testing.assert_array_equal(state[name], serial_state[name])
    # The shared model itself must be untouched by batched training.
    for name, value in model.state_dict().items():
        np.testing.assert_array_equal(value, pretrained[name])
    for _, module in model.named_modules():
        assert "forward" not in module.__dict__


class TestTrainerEquivalence:
    def test_mlp_sgd_momentum_with_checkpoints(self, blob_bundle):
        make = _mlp_factory(blob_bundle)
        _assert_batched_equals_serial(
            make,
            blob_bundle,
            _mask_sets(make, num_chips=5),
            TrainingConfig(learning_rate=0.05, batch_size=16, seed=3),
            epochs=1.5,
            checkpoints=[0.5, 1.0],
        )

    @pytest.mark.parametrize("optimizer", ["adam", "adamw"])
    def test_mlp_adaptive_optimizers(self, blob_bundle, optimizer):
        make = _mlp_factory(blob_bundle)
        _assert_batched_equals_serial(
            make,
            blob_bundle,
            _mask_sets(make),
            TrainingConfig(
                optimizer=optimizer,
                learning_rate=0.003,
                batch_size=16,
                seed=3,
                weight_decay=0.01,
            ),
            epochs=1.0,
        )

    def test_cnn_through_stacked_conv_backward(self, image_bundle):
        make = _cnn_factory(image_bundle)
        _assert_batched_equals_serial(
            make,
            image_bundle,
            _mask_sets(make),
            TrainingConfig(learning_rate=0.02, batch_size=16, seed=5),
            epochs=1.0,
            checkpoints=[0.5],
        )

    def test_dropout_stream_matches_serial(self, blob_bundle):
        def make():
            return MLP(8, blob_bundle.num_classes, hidden_sizes=(32,), dropout=0.5, seed=4)

        _assert_batched_equals_serial(
            make,
            blob_bundle,
            _mask_sets(make, num_chips=3),
            TrainingConfig(learning_rate=0.05, batch_size=16, seed=7),
            epochs=1.0,
        )

    def test_label_smoothing_composition(self, blob_bundle):
        make = _mlp_factory(blob_bundle)
        _assert_batched_equals_serial(
            make,
            blob_bundle,
            _mask_sets(make),
            TrainingConfig(learning_rate=0.05, batch_size=16, seed=3, label_smoothing=0.1),
            epochs=1.0,
        )

    def test_masks_stay_enforced_on_every_chip(self, blob_bundle):
        make = _mlp_factory(blob_bundle)
        mask_sets = _mask_sets(make, num_chips=3)
        model = make()
        trainer = BatchedFaultTrainer(
            model,
            mask_sets,
            blob_bundle.train,
            blob_bundle.test,
            config=TrainingConfig(learning_rate=0.1, batch_size=16, seed=0),
        )
        trainer.train(1.0, include_initial=False)
        for chip, masks in enumerate(mask_sets):
            state = trainer.chip_state_dict(chip)
            for name, mask in masks.items():
                np.testing.assert_array_equal(
                    state[f"{name}.weight"][mask], np.zeros(int(mask.sum()))
                )

    def test_single_chip_batch_matches_serial(self, blob_bundle):
        make = _mlp_factory(blob_bundle)
        _assert_batched_equals_serial(
            make,
            blob_bundle,
            _mask_sets(make, num_chips=1),
            TrainingConfig(learning_rate=0.05, batch_size=16, seed=3),
            epochs=0.5,
        )

    def test_batchnorm1d_model_matches_serial(self, blob_bundle):
        def make():
            return nn.Sequential(
                nn.Linear(8, 16, rng=0),
                nn.BatchNorm1d(16),
                nn.ReLU(),
                nn.Linear(16, blob_bundle.num_classes, rng=1),
            )

        _assert_batched_equals_serial(
            make,
            blob_bundle,
            _mask_sets(make, num_chips=3),
            TrainingConfig(learning_rate=0.05, batch_size=16, seed=3),
            epochs=1.0,
            checkpoints=[0.5],
        )

    def test_batchnorm2d_cnn_matches_serial(self, image_bundle):
        """Training-mode BatchNorm2d/1d through the stacked path.

        The per-chip-fold batch statistics, the fused analytic backward, the
        per-chip running-statistics updates and the eval-mode per-chip
        normalisation must all be bit-identical to the serial trainer —
        state_dict comparison covers running_mean/running_var too.
        """
        channels = image_bundle.input_shape[0]

        def make():
            return nn.Sequential(
                nn.Conv2d(channels, 4, 3, padding=1, bias=False, rng=0),
                nn.BatchNorm2d(4),
                nn.ReLU(),
                nn.MaxPool2d(2),
                nn.Conv2d(4, 6, 3, padding=1, bias=False, rng=1),
                nn.BatchNorm2d(6),
                nn.ReLU(),
                nn.MaxPool2d(2),
                nn.Flatten(),
                nn.Linear(6 * 2 * 2, 8, rng=2),
                nn.BatchNorm1d(8),
                nn.ReLU(),
                nn.Linear(8, image_bundle.num_classes, rng=3),
            )

        _assert_batched_equals_serial(
            make,
            image_bundle,
            _mask_sets(make, num_chips=3),
            TrainingConfig(learning_rate=0.05, batch_size=16, seed=3),
            epochs=1.0,
            checkpoints=[0.5],
        )

    def test_vgg11_mini_trains_through_stacked_path(self, image_bundle):
        """The flagship training-mode-BatchNorm workload: no serial fallback.

        ``vgg11_mini`` exercises the degenerate 1x1-spatial tail convolutions
        (whose K-major lowering is layout-sensitive) on top of a BatchNorm
        after every convolution.
        """
        from repro.models import vgg11_mini

        def make():
            return vgg11_mini(
                input_shape=image_bundle.input_shape,
                num_classes=image_bundle.num_classes,
                seed=0,
            )

        _assert_batched_equals_serial(
            make,
            image_bundle,
            _mask_sets(make, num_chips=2, rows=32, cols=32),
            TrainingConfig(learning_rate=0.02, batch_size=16, seed=5),
            epochs=0.5,
            checkpoints=[0.25],
        )


    def test_masks_free_stack_of_one_equals_reference(self, lenet_bundle):
        """``Trainer``'s pre-training stack: ``[{}]`` on a LeNet-5 config."""
        make = lambda: LeNet5(lenet_bundle.input_shape, lenet_bundle.num_classes, seed=0)  # noqa: E731
        _assert_batched_equals_serial(
            make,
            lenet_bundle,
            [{}],
            TrainingConfig(learning_rate=0.08, batch_size=16, weight_decay=1e-4, seed=0),
            epochs=3.0,
            checkpoints=[1.0, 2.0],
        )

    def test_vgg_style_one_by_one_output_conv_with_bias(self, image_bundle):
        """A biased conv on a 1x1 feature map, as in VGG11's last convs.

        At 1x1 outputs the serial backward's channel-major gradient is a
        strided view; its bias sum must round like the stacked conv's sum of
        a contiguous copy.
        """
        channels = image_bundle.input_shape[0]

        def make():
            return nn.Sequential(
                nn.Conv2d(channels, 4, 3, padding=1, rng=0),
                nn.ReLU(),
                nn.MaxPool2d(2),
                nn.Conv2d(4, 8, 3, padding=1, rng=1),
                nn.ReLU(),
                nn.MaxPool2d(4),
                nn.Conv2d(8, 16, 3, padding=1, rng=2),
                nn.ReLU(),
                nn.Conv2d(16, 16, 3, padding=1, rng=3),
                nn.ReLU(),
                nn.Flatten(),
                nn.Linear(16, image_bundle.num_classes, rng=4),
            )

        _assert_batched_equals_serial(
            make,
            image_bundle,
            _mask_sets(make, num_chips=3),
            TrainingConfig(learning_rate=0.05, batch_size=16, seed=5),
            epochs=1.0,
            checkpoints=[0.5],
        )


class TestInStreamReadouts:
    """In-stream readouts are trajectory-neutral.

    Reading a smaller budget off a longer pass must not move the pass: every
    readout equals a separate run to that budget, and the end state equals
    the uninterrupted run's.  A loader restart at any readout breaks this.
    """

    # 6 batches per epoch: 0.05 and 0.1 both quantize to step 1, and 2.0
    # reads past an epoch boundary.
    BUDGETS = (0.05, 0.1, 0.25, 1.0, 2.0)

    def test_readouts_equal_separate_runs(self, blob_bundle):
        make = _mlp_factory(blob_bundle)
        mask_sets = _mask_sets(make, num_chips=3)
        config = TrainingConfig(learning_rate=0.05, batch_size=16, seed=3)
        model = make()
        pretrained = model.state_dict()

        def fresh():
            return BatchedFaultTrainer(
                model, mask_sets, blob_bundle.train, blob_bundle.test, config=config
            )

        trainer = fresh()
        steps = [epochs_to_steps(b, trainer.batches_per_epoch) for b in self.BUDGETS]
        assert steps[0] == steps[1]
        assert steps[-1] > trainer.batches_per_epoch
        histories = trainer.train(
            max(self.BUDGETS),
            eval_checkpoints=self.BUDGETS,
            include_initial=False,
            in_stream=True,
        )
        for index, budget in enumerate(self.BUDGETS):
            separate = fresh()
            expected = separate.train(budget, include_initial=False)
            for chip, history in enumerate(histories):
                assert history.records[index] == expected[chip].records[0]
        # ``separate`` ran the largest budget last: same end state.
        serial = _serial_runs(
            make, pretrained, mask_sets, blob_bundle, config, max(self.BUDGETS), None
        )
        for chip, (serial_history, serial_state) in enumerate(serial):
            assert histories[chip].records[-1] == serial_history.records[-1]
            state = trainer.chip_state_dict(chip)
            separate_state = separate.chip_state_dict(chip)
            for name in serial_state:
                np.testing.assert_array_equal(state[name], separate_state[name])
                np.testing.assert_array_equal(state[name], serial_state[name])


def _bn_cnn_factory(bundle):
    channels = bundle.input_shape[0]

    def make():
        return nn.Sequential(
            nn.Conv2d(channels, 4, 3, padding=1, bias=False, rng=0),
            nn.BatchNorm2d(4),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Flatten(),
            nn.Linear(4 * 4 * 4, 8, rng=1),
            nn.BatchNorm1d(8),
            nn.ReLU(),
            nn.Linear(8, bundle.num_classes, rng=2),
        )

    return make


@pytest.fixture(scope="module")
def lenet_bundle():
    """12x12 images: the smallest input LeNet-5 accepts."""
    return make_class_template_images(
        num_classes=4, train_per_class=12, test_per_class=6, image_size=12,
        channels=1, noise_std=0.3, shift_pixels=0, seed=2,
    )


class TestPerChipSeeds:
    """``seeds=``: one data stream per chip, bit-identical to serial runs
    whose configs carry those seeds (mini-batch order and dropout noise)."""

    SEEDS = [11, 12, 13]

    def test_lenet_matches_serial_runs_with_those_seeds(self, lenet_bundle):
        make = lambda: LeNet5(lenet_bundle.input_shape, lenet_bundle.num_classes, seed=0)  # noqa: E731
        _assert_batched_equals_serial(
            make,
            lenet_bundle,
            _mask_sets(make, num_chips=3),
            TrainingConfig(learning_rate=0.02, batch_size=16, seed=5),
            epochs=1.0,
            checkpoints=[0.25, 0.5],
            seeds=self.SEEDS,
        )

    def test_batchnorm_cnn_matches_serial_runs_with_those_seeds(self, image_bundle):
        make = _bn_cnn_factory(image_bundle)
        _assert_batched_equals_serial(
            make,
            image_bundle,
            _mask_sets(make, num_chips=3),
            TrainingConfig(learning_rate=0.05, batch_size=16, seed=3),
            epochs=1.0,
            checkpoints=[0.5],
            seeds=self.SEEDS,
        )

    def test_dropout_mlp_matches_serial_runs_with_those_seeds(self, blob_bundle):
        def make():
            return MLP(8, blob_bundle.num_classes, hidden_sizes=(32, 16), dropout=0.3, seed=4)

        _assert_batched_equals_serial(
            make,
            blob_bundle,
            _mask_sets(make, num_chips=3),
            TrainingConfig(learning_rate=0.05, batch_size=16, seed=7),
            epochs=1.5,
            checkpoints=[0.5, 1.0],
            seeds=self.SEEDS,
        )

    def test_equal_seeds_lower_the_shared_first_layer_once_per_step(
        self, image_bundle, monkeypatch
    ):
        """All-equal seeds keep the shared prefix: one first-layer ``im2col_t``
        per training step; distinct seeds fold every chip's own batch, so
        the first layer lowers through the stacked (folded) path instead."""
        import repro.accelerator.batched as batched_module

        calls = []
        original = batched_module.im2col_t

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(batched_module, "im2col_t", spy)
        make = _cnn_factory(image_bundle)
        mask_sets = _mask_sets(make, num_chips=3)
        config = TrainingConfig(learning_rate=0.02, batch_size=16, seed=5)
        shared = BatchedFaultTrainer(
            make(), mask_sets, image_bundle.train, image_bundle.test,
            config=config, seeds=[9, 9, 9],
        )
        shared._train_steps(5)
        assert len(calls) == 5
        assert all(shape[0] <= config.batch_size for shape in calls)
        calls.clear()
        per_chip = BatchedFaultTrainer(
            make(), mask_sets, image_bundle.train, image_bundle.test,
            config=config, seeds=[9, 10, 11],
        )
        per_chip._train_steps(5)
        assert calls == []

    def test_equal_seeds_override_the_config_seed(self, blob_bundle):
        """A stack whose chips share one seed trains on that seed's stream,
        whatever ``config.seed`` says (Step 1's one-cell stacks rely on it)."""
        make = _mlp_factory(blob_bundle)
        mask_sets = _mask_sets(make, num_chips=2)
        config = TrainingConfig(learning_rate=0.05, batch_size=16, seed=3)
        runs = []
        for seed, seeds in ((3, None), (0, [3, 3])):
            trainer = BatchedFaultTrainer(
                make(), mask_sets, blob_bundle.train, blob_bundle.test,
                config=dataclasses.replace(config, seed=seed), seeds=seeds,
            )
            trainer.train(1.0, include_initial=False)
            runs.append([trainer.chip_state_dict(chip) for chip in range(2)])
        for default_state, explicit_state in zip(*runs):
            for name in default_state:
                np.testing.assert_array_equal(default_state[name], explicit_state[name])

    def test_seed_count_must_match_chips(self, blob_bundle):
        make = _mlp_factory(blob_bundle)
        with pytest.raises(ValueError, match="seeds"):
            BatchedFaultTrainer(
                make(), _mask_sets(make, num_chips=2), blob_bundle.train,
                blob_bundle.test, seeds=[1, 2, 3],
            )

    def test_distinct_seeds_need_a_dataset(self, blob_bundle):
        from repro.data import DataLoader

        make = _mlp_factory(blob_bundle)
        loader = DataLoader(blob_bundle.train, batch_size=16, shuffle=True, seed=0)
        with pytest.raises(ValueError, match="Dataset"):
            BatchedFaultTrainer(
                make(), _mask_sets(make, num_chips=2), loader,
                blob_bundle.test, seeds=[1, 2],
            )


class TestTrainerValidation:
    def test_empty_mask_sets_rejected(self, blob_bundle):
        with pytest.raises(ValueError):
            BatchedFaultTrainer(
                MLP(8, blob_bundle.num_classes, seed=0),
                [],
                blob_bundle.train,
                blob_bundle.test,
            )

    def test_mismatched_mask_keys_rejected(self, blob_bundle):
        make = _mlp_factory(blob_bundle)
        mask_sets = _mask_sets(make, num_chips=2)
        broken = dict(mask_sets[1])
        broken.pop(next(iter(broken)))
        with pytest.raises(ValueError):
            BatchedFaultTrainer(make(), [mask_sets[0], broken], blob_bundle.train, blob_bundle.test)

    def test_unknown_mask_layer_rejected(self, blob_bundle):
        with pytest.raises(KeyError):
            BatchedFaultTrainer(
                MLP(8, blob_bundle.num_classes, seed=0),
                [{"no.such.layer": np.zeros((1, 1), dtype=bool)}],
                blob_bundle.train,
                blob_bundle.test,
            )

    def test_unknown_parametric_layer_raises_unsupported(self, blob_bundle):
        class Scale(nn.Module):
            def __init__(self):
                super().__init__()
                self.weight = nn.Parameter(np.ones(8, dtype=np.float32))

            def forward(self, x):
                return x * self.weight

        model = nn.Sequential(Scale(), nn.Linear(8, blob_bundle.num_classes, rng=0))
        masks = {"1": np.zeros((blob_bundle.num_classes, 8), dtype=bool)}
        with pytest.raises(UnsupportedModelError):
            BatchedFaultTrainer(model, [masks], blob_bundle.train, blob_bundle.test)

    def test_masked_batchnorm_layer_rejected(self, blob_bundle):
        model = nn.Sequential(
            nn.Linear(8, 16, rng=0),
            nn.BatchNorm1d(16),
            nn.ReLU(),
            nn.Linear(16, blob_bundle.num_classes, rng=1),
        )
        masks = {"1": np.zeros((16,), dtype=bool)}
        with pytest.raises(ValueError, match="batch norm"):
            BatchedFaultTrainer(model, [masks], blob_bundle.train, blob_bundle.test)

    def test_empty_train_loader_rejected(self):
        bundle = make_blob_classification(
            num_classes=2, features=4, train_per_class=1, test_per_class=1, seed=0
        )
        from repro.data import DataLoader

        empty_loader = DataLoader(bundle.train, batch_size=64, drop_last=True)
        model = MLP(4, 2, hidden_sizes=(8,), seed=0)
        masks = [{"body.0": np.zeros((8, 4), dtype=bool)}]
        with pytest.raises(ValueError, match="no batches"):
            BatchedFaultTrainer(model, masks, empty_loader, bundle.test)


class TestPerChipGradClip:
    def test_matches_serial_clip_per_slice(self, rng):
        chips = 3
        stacks = [
            nn.Parameter(rng.standard_normal((chips, 6, 5)).astype(np.float32)),
            nn.Parameter(rng.standard_normal((chips, 6)).astype(np.float32)),
        ]
        grads = [rng.standard_normal(p.data.shape).astype(np.float32) * 4 for p in stacks]
        for param, grad in zip(stacks, grads):
            param.grad = grad.copy()
        norms = nn.clip_grad_norm_per_chip(stacks, max_norm=1.5, num_chips=chips)
        for chip in range(chips):
            serial_params = []
            for grad in grads:
                p = nn.Parameter(np.zeros(grad.shape[1:], dtype=np.float32))
                p.grad = grad[chip].copy()
                serial_params.append(p)
            serial_norm = nn.clip_grad_norm(serial_params, 1.5)
            assert norms[chip] == serial_norm
            for stacked, serial in zip(stacks, serial_params):
                np.testing.assert_array_equal(stacked.grad[chip], serial.grad)

    @staticmethod
    def _stacked_grads(rng, chips, zero_chip=None):
        """LeNet-like stacked grads; the first parameter has 150 elements per
        chip, so its per-chip sum crosses the 128-element pairwise block."""
        shapes = [(chips, 6, 1, 5, 5), (chips, 6), (chips, 10, 96), (chips, 10)]
        grads = []
        for shape in shapes:
            grad = rng.standard_normal(shape).astype(np.float32)
            grad[rng.random(shape) < 0.1] = -0.0
            if zero_chip is not None:
                grad[zero_chip] = 0.0
            grads.append(grad)
        return grads

    @pytest.mark.parametrize(
        "max_norm, zero_chip",
        [
            (1.0, None),  # every chip clipped
            (1e9, None),  # no chip clipped
            (None, None),  # mixed: the median chip norm
            (None, 2),  # mixed, with one all-zero chip
            (1.0, 0),  # clipped chips next to an all-zero one
        ],
    )
    def test_bitwise_matches_per_chip_loop(self, rng, max_norm, zero_chip):
        from tests.helpers import reference_clip_grad_norm_per_chip

        chips = 5
        grads = self._stacked_grads(rng, chips, zero_chip)
        # Scale chips apart so a median threshold clips some and not others.
        for grad in grads:
            grad *= np.arange(1, chips + 1, dtype=np.float32).reshape((chips,) + (1,) * (grad.ndim - 1))
        if max_norm is None:
            squares = sum((g.astype(np.float64) ** 2).reshape(chips, -1).sum(axis=1) for g in grads)
            max_norm = float(np.median(np.sqrt(squares)))

        def params_of(values):
            params = []
            for value in values:
                param = nn.Parameter(np.zeros_like(value))
                param.grad = value.copy()
                params.append(param)
            return params

        got_params, ref_params = params_of(grads), params_of(grads)
        norms = nn.clip_grad_norm_per_chip(got_params, max_norm=max_norm, num_chips=chips)
        ref_norms = reference_clip_grad_norm_per_chip(ref_params, max_norm, chips)
        np.testing.assert_array_equal(norms, ref_norms)
        assert norms.dtype == np.float64 and norms.shape == (chips,)
        if zero_chip is not None:
            assert norms[zero_chip] == 0.0
        for got, ref in zip(got_params, ref_params):
            assert got.grad.dtype == np.float32
            np.testing.assert_array_equal(got.grad.view(np.uint32), ref.grad.view(np.uint32))
        clipped = ref_norms > max_norm
        changed = [
            any(not np.array_equal(p.grad[chip], g[chip]) for p, g in zip(got_params, grads))
            for chip in range(chips)
        ]
        assert changed == list(clipped)

    def test_validation(self):
        param = nn.Parameter(np.zeros((2, 3), dtype=np.float32))
        param.grad = np.ones((2, 3), dtype=np.float32)
        with pytest.raises(ValueError):
            nn.clip_grad_norm_per_chip([param], max_norm=1.0, num_chips=0)
        with pytest.raises(ValueError):
            nn.clip_grad_norm_per_chip([param], max_norm=0.0, num_chips=2)
        with pytest.raises(ValueError):
            nn.clip_grad_norm_per_chip([param], max_norm=1.0, num_chips=5)


@pytest.fixture(scope="module")
def fat_population(smoke_context):
    preset = smoke_context.preset
    return ChipPopulation.generate(
        count=5,
        rows=preset.array_rows,
        cols=preset.array_cols,
        fault_rates=(0.05, 0.3),
        seed=321,
    )


@pytest.fixture(scope="module")
def twelve_chips(smoke_context):
    preset = smoke_context.preset
    return ChipPopulation.generate(
        count=12,
        rows=preset.array_rows,
        cols=preset.array_cols,
        fault_rates=(0.05, 0.3),
        seed=654,
    )


class _TablePolicy(RetrainingPolicy):
    """A retraining policy that reads each chip's budget off a table."""

    name = "table"

    def __init__(self, budgets):
        self.budgets = budgets

    def epochs_for_chip(self, chip):
        return self.budgets[chip.chip_id]


def _count_trainers(monkeypatch):
    """Count the ``BatchedFaultTrainer`` stacks the framework constructs."""
    import repro.core.reduce as reduce_module

    built = []

    class CountingTrainer(BatchedFaultTrainer):
        def __init__(self, model, mask_sets, *args, **kwargs):
            built.append(len(mask_sets))
            super().__init__(model, mask_sets, *args, **kwargs)

    monkeypatch.setattr(reduce_module, "BatchedFaultTrainer", CountingTrainer)
    return built


class TestFrameworkBatchedFat:
    def test_retrain_chips_batched_matches_serial(self, smoke_context, fat_population):
        framework = smoke_context.framework()
        chips = list(fat_population)
        serial = [reference_retrain_chip(framework, chip, 0.5) for chip in chips]
        before = framework.triage_population(chips)
        batched = framework.retrain_chips_batched(chips, 0.5, before)
        assert batched == serial

    def test_chunking_is_transparent(self, smoke_context, fat_population):
        framework = smoke_context.framework()
        chips = list(fat_population)
        before = framework.triage_population(chips)
        full = framework.retrain_chips_batched(chips, 0.25, before)
        halves = framework.retrain_chips_batched(
            chips[:2], 0.25, before
        ) + framework.retrain_chips_batched(chips[2:], 0.25, before)
        assert halves == full

    def test_one_call_is_one_stack(self, smoke_context, twelve_chips, monkeypatch):
        """The caller sizes the stack: twelve chips train as one stack of
        twelve, equal to two calls of six and to the serial reference."""
        framework = smoke_context.framework()
        chips = list(twelve_chips)
        serial = [reference_retrain_chip(framework, chip, 0.25) for chip in chips]
        before = framework.triage_population(chips)
        built = _count_trainers(monkeypatch)
        whole = framework.retrain_chips_batched(chips, 0.25, before)
        assert built == [12]
        halves = framework.retrain_chips_batched(
            chips[:6], 0.25, before
        ) + framework.retrain_chips_batched(chips[6:], 0.25, before)
        assert built == [12, 6, 6]
        assert whole == halves == serial

    def test_missing_initial_accuracy_is_rejected(
        self, smoke_context, fat_population, monkeypatch
    ):
        from repro.mitigation import MitigationStrategy

        framework = smoke_context.framework()
        chips = list(fat_population)
        before = framework.triage_population(chips[1:3])
        masks_built = []
        real = MitigationStrategy.chip_masks

        def counting(self, model, fault_map):
            masks_built.append(fault_map)
            return real(self, model, fault_map)

        monkeypatch.setattr(MitigationStrategy, "chip_masks", counting)
        with pytest.raises(ValueError) as error:
            framework.retrain_chips_batched(chips, 0.25, before)
        for chip in (chips[0], *chips[3:]):
            assert chip.chip_id in str(error.value)
        for chip in chips[1:3]:
            assert chip.chip_id not in str(error.value)
        assert masks_built == []

    def test_engine_matches_retrain_chip(self, smoke_context, fat_population):
        """The engine's rows equal each chip retrained alone, whatever the
        stack size, with chips asking for different budgets."""
        framework = smoke_context.framework()
        budgets = dict(zip(
            (chip.chip_id for chip in fat_population), (0.5, 0.25, 0.0, 0.5, 0.25)
        ))
        policy = _TablePolicy(budgets)
        serial = [
            reference_retrain_chip(framework, chip, budgets[chip.chip_id])
            for chip in fat_population
        ]
        for fat_batch in (8, 1):
            engine = CampaignEngine(smoke_context, fat_batch=fat_batch)
            assert engine.run(fat_population, policy).results == serial

    @pytest.mark.parametrize("strategy", ["fat", "fam+fat", "bypass+fat"])
    def test_engine_triages_once(
        self, smoke_context, fat_population, monkeypatch, strategy
    ):
        """A campaign run measures every initial accuracy in one triage
        pass, then retrains stacks of at most ``fat_batch`` chips."""
        framework = smoke_context.framework()
        policy = FixedEpochPolicy(0.25)
        serial = [
            reference_retrain_chip(framework, chip, 0.25, strategy=strategy)
            for chip in fat_population
        ]
        triaged = []
        real = type(framework).triage_population

        def counting(self, chips, *args, **kwargs):
            triaged.append(len(list(chips)))
            return real(self, chips, *args, **kwargs)

        monkeypatch.setattr(type(framework), "triage_population", counting)
        built = _count_trainers(monkeypatch)
        for fat_batch in (1, 8):
            triaged.clear()
            built.clear()
            result = CampaignEngine(smoke_context, fat_batch=fat_batch).run(
                fat_population, policy, strategy=strategy
            )
            assert triaged == [len(fat_population)]
            assert built and max(built) <= fat_batch
            assert result.results == serial

    def test_several_budgets_per_chip_equal_one_call_per_budget(
        self, smoke_context, fat_population
    ):
        framework = smoke_context.framework()
        chips = list(fat_population)
        before = framework.triage_population(chips)
        budgets = (0.5, 0.0, 0.25, 0.5)
        entries = [chip for chip in chips for _ in budgets]
        merged = framework.retrain_chips_batched(
            entries, [budget for _ in chips for budget in budgets], before
        )
        per_budget = {
            budget: framework.retrain_chips_batched(chips, budget, before)
            for budget in set(budgets)
        }
        assert merged == [
            per_budget[budget][index]
            for index in range(len(chips))
            for budget in budgets
        ]
        with pytest.raises(ValueError, match="budgets"):
            framework.retrain_chips_batched(chips, [0.25], before)

    def test_zero_epoch_chips_skip_training(
        self, smoke_context, fat_population, monkeypatch
    ):
        framework = smoke_context.framework()
        chips = list(fat_population)
        serial = [reference_retrain_chip(framework, chip, 0.0) for chip in chips]
        # With every accuracy_before supplied by triage, zero-epoch chips are
        # pure lookups: no trainer is built, and the rows equal the serial
        # shortcut.
        triage = framework.triage_population(chips)
        built = _count_trainers(monkeypatch)
        results = framework.retrain_chips_batched(chips, 0.0, triage)
        assert built == []
        assert results == serial
        assert all(result.epochs_trained == 0.0 for result in results)


class TestStrategyBatchedFat:
    """Serial-vs-batched bit-identity for strategy-tagged retraining.

    A strategy's masks (plain FAP, or FAM's saliency-permuted masks) are just
    another per-chip mask set stacked into the batched trainer's
    keep-multipliers, so ``retrain_chips_batched(strategy=...)`` must equal
    the per-chip serial path bit for bit — including the hybrid bypass
    strategy, whose bypassable chips never enter training at all.
    """

    @pytest.mark.parametrize("strategy", ["fap+fat", "fam+fat"])
    def test_strategy_batched_matches_serial(
        self, smoke_context, fat_population, strategy
    ):
        framework = smoke_context.framework()
        chips = list(fat_population)
        serial = [
            reference_retrain_chip(framework, chip, 0.5, strategy=strategy) for chip in chips
        ]
        before = framework.triage_population(chips, strategy=strategy)
        batched = framework.retrain_chips_batched(chips, 0.5, before, strategy=strategy)
        assert batched == serial
        assert all(result.strategy == strategy for result in batched)

    @pytest.mark.parametrize("strategy", ["fap+fat", "fam+fat"])
    def test_strategy_chunking_is_transparent(
        self, smoke_context, fat_population, strategy
    ):
        framework = smoke_context.framework()
        chips = list(fat_population)
        before = framework.triage_population(chips, strategy=strategy)
        full = framework.retrain_chips_batched(chips, 0.25, before, strategy=strategy)
        halves = framework.retrain_chips_batched(
            chips[:2], 0.25, before, strategy=strategy
        ) + framework.retrain_chips_batched(chips[2:], 0.25, before, strategy=strategy)
        assert halves == full

    def test_bypass_hybrid_batched_matches_serial(self, smoke_context):
        from repro.accelerator import FaultMap
        from repro.core.chips import Chip, ChipPopulation

        preset = smoke_context.preset
        rows, cols = preset.array_rows, preset.array_cols
        # Mix bypassable chips (sparse faults) with chips where every row and
        # column is hit (bypass infeasible -> FAT fallback).
        chips = [
            Chip("sparse-0", FaultMap.from_indices(rows, cols, [(1, 2), (5, 2)])),
            Chip(
                "dense-0",
                FaultMap.from_indices(rows, cols, [(i, i) for i in range(rows)]),
            ),
            Chip("sparse-1", FaultMap.from_indices(rows, cols, [(3, 4)])),
            Chip(
                "dense-1",
                FaultMap.from_indices(
                    rows, cols, [(i, (i + 1) % cols) for i in range(rows)]
                ),
            ),
        ]
        framework = smoke_context.framework()
        serial = [
            reference_retrain_chip(framework, chip, 0.25, strategy="bypass+fat") for chip in chips
        ]
        before = framework.triage_population(chips, strategy="bypass+fat")
        batched = framework.retrain_chips_batched(
            chips, 0.25, before, strategy="bypass+fat"
        )
        assert batched == serial
        by_id = {result.chip_id: result for result in batched}
        assert by_id["sparse-0"].epochs_trained == 0.0
        assert by_id["sparse-0"].accuracy_after == framework.clean_accuracy
        assert by_id["dense-0"].epochs_trained == 0.25

    def test_engine_strategy_coalescing_matches_per_job(
        self, smoke_context, fat_population
    ):
        policy = FixedEpochPolicy(0.25)
        coalesced = CampaignEngine(smoke_context, jobs=1, fat_batch=4).run(
            fat_population, policy, strategy="fam+fat"
        )
        per_job = CampaignEngine(smoke_context, jobs=1, fat_batch=1).run(
            fat_population, policy, strategy="fam+fat"
        )
        framework = smoke_context.framework()
        serial = [
            reference_retrain_chip(framework, chip, 0.25, strategy="fam+fat")
            for chip in fat_population
        ]
        assert coalesced.results == per_job.results == serial
        assert all(result.strategy == "fam+fat" for result in coalesced.results)


class TestEngineCoalescing:
    def test_fat_batch_results_identical_to_per_job(self, smoke_context, fat_population):
        policy = FixedEpochPolicy(0.25)
        coalesced = CampaignEngine(smoke_context, jobs=1, fat_batch=4).run(
            fat_population, policy
        )
        per_job = CampaignEngine(smoke_context, jobs=1, fat_batch=1).run(
            fat_population, policy
        )
        framework = smoke_context.framework()
        serial = [reference_retrain_chip(framework, chip, 0.25) for chip in fat_population]
        assert coalesced.results == per_job.results == serial

    def test_jobs_batched_execution_helper(self, smoke_context, fat_population):
        framework = smoke_context.framework()
        jobs = triaged_jobs(framework, fat_population, FixedEpochPolicy(0.25))
        plan = plan_job_chunks(jobs, fat_batch=3)
        assert [len(chunk) for chunk in plan] == [3, 2]
        batched = [
            result for chunk in plan for result in execute_job_chunk(framework, chunk)
        ]
        serial = [reference_retrain_chip(framework, job.chip, job.epochs) for job in jobs]
        assert batched == serial

    def test_mixed_budget_jobs_share_one_pass(self, smoke_context, fat_population):
        """Jobs may ask one stack for several budgets (one job per policy):
        it trains once, to the largest, and each job reads its own budget."""
        framework = smoke_context.framework()
        jobs = triaged_jobs(framework, fat_population, FixedEpochPolicy(0.25))
        mixed = [
            jobs[0],
            dataclasses.replace(jobs[1], epochs=0.5),
            dataclasses.replace(jobs[0], epochs=0.5, policy_name="other"),
            dataclasses.replace(jobs[1], epochs=0.0, policy_name="other"),
        ]
        expected = [reference_retrain_chip(framework, job.chip, job.epochs) for job in mixed]
        assert execute_job_chunk(framework, mixed) == expected
        with pytest.raises(ValueError, match="target"):
            execute_job_chunk(
                framework, [jobs[0], dataclasses.replace(jobs[1], target_accuracy=0.5)]
            )
        untriaged = dataclasses.replace(jobs[1], accuracy_before=None)
        with pytest.raises(ValueError, match="accuracy_before") as error:
            execute_job_chunk(framework, [jobs[0], untriaged])
        assert untriaged.chip_id in str(error.value)

    def test_invalid_fat_batch_rejected(self, smoke_context):
        with pytest.raises(ValueError):
            CampaignEngine(smoke_context, fat_batch=0)

    def test_jobs_workers_run_batched_groups_identically(
        self, smoke_context, fat_population
    ):
        """--jobs N x --fat-batch B composes: workers execute whole stacked
        chunks and the results stay bit-identical to serial per-chip runs."""
        policy = FixedEpochPolicy(0.25)
        parallel_batched = CampaignEngine(smoke_context, jobs=2, fat_batch=3).run(
            fat_population, policy
        )
        framework = smoke_context.framework()
        serial = [reference_retrain_chip(framework, chip, 0.25) for chip in fat_population]
        assert parallel_batched.results == serial

    def test_each_checkpoint_eval_lowers_its_batches(
        self, smoke_context, monkeypatch
    ):
        """Every evaluation lowers each eval batch once and keeps nothing."""
        import repro.accelerator.batched as batched_module
        from repro.accelerator import FaultMap, model_fault_masks
        from repro.accelerator.batched import BatchedFaultTrainer

        context = smoke_context
        # The smoke preset is an MLP (no conv), so build a conv workload at
        # the same scale from the context's bundle.
        model = nn.Sequential(
            nn.Conv2d(context.bundle.input_shape[0], 4, 3, padding=1, rng=0),
            nn.ReLU(),
            nn.Flatten(),
            nn.Linear(4 * 8 * 8, context.bundle.num_classes, rng=1),
        )
        mask_sets = [
            model_fault_masks(model, FaultMap.random(16, 16, 0.05 + 0.05 * i, seed=i))
            for i in range(2)
        ]
        trainer = BatchedFaultTrainer(
            model,
            mask_sets,
            context.bundle.train,
            context.bundle.test,
            config=TrainingConfig(learning_rate=0.05, batch_size=32, seed=0),
        )
        calls = []
        real = batched_module.im2col_t

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(batched_module, "im2col_t", counting)
        first = trainer.evaluate()
        lowered_first_pass = len(calls)
        num_batches = -(-len(context.bundle.test) // 32)
        assert lowered_first_pass == num_batches
        second = trainer.evaluate()
        assert len(calls) == 2 * lowered_first_pass
        assert second == first

    def test_store_resume_with_coalescing(self, smoke_context, fat_population, tmp_path):
        policy = FixedEpochPolicy(0.25)
        engine = CampaignEngine(smoke_context, jobs=1, fat_batch=3, store_base=tmp_path)
        full = engine.run(fat_population, policy)
        assert engine.last_report.executed == len(fat_population)

        resumed_engine = CampaignEngine(
            smoke_context, jobs=1, fat_batch=3, store_base=tmp_path
        )
        resumed = resumed_engine.run(fat_population, policy)
        assert resumed_engine.last_report.executed == 0
        assert resumed.results == full.results
