"""Tests for the training loop: fractional epochs, checkpoints, mask enforcement."""

import numpy as np
import pytest

from repro import nn
from repro.accelerator import BatchedFaultTrainer
from repro.data import DataLoader
from repro.models import MLP
from repro.training import (
    Trainer,
    TrainingConfig,
    TrainingHistory,
    epochs_to_steps,
    evaluate_accuracy,
    meets_target,
)
from tests.helpers import ReferenceTrainer
from tests.serial import apply_weight_masks


class TestTrainingConfig:
    def test_defaults_valid(self):
        config = TrainingConfig()
        assert config.optimizer == "sgd"

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(optimizer="lbfgs")
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)

    def test_build_optimizer_variants(self):
        params = MLP(4, 2, hidden_sizes=(), seed=0).parameters()
        assert isinstance(TrainingConfig(optimizer="sgd").build_optimizer(params), nn.SGD)
        assert isinstance(TrainingConfig(optimizer="adam").build_optimizer(params), nn.Adam)
        assert isinstance(TrainingConfig(optimizer="adamw").build_optimizer(params), nn.AdamW)


class TestEpochAccounting:
    def test_epochs_to_steps(self):
        assert epochs_to_steps(0.0, 10) == 0
        assert epochs_to_steps(0.05, 10) == 1  # at least one step for tiny amounts
        assert epochs_to_steps(1.0, 10) == 10
        assert epochs_to_steps(2.5, 10) == 25
        with pytest.raises(ValueError):
            epochs_to_steps(-1.0, 10)
        with pytest.raises(ValueError):
            epochs_to_steps(1.0, 0)


class TestEvaluation:
    def test_accuracy_in_unit_range(self, blob_bundle):
        model = MLP(blob_bundle.input_shape[0], blob_bundle.num_classes, hidden_sizes=(16,), seed=0)
        assert 0.0 <= evaluate_accuracy(model, blob_bundle.test) <= 1.0

    def test_accepts_dataloader(self, blob_bundle):
        model = MLP(blob_bundle.input_shape[0], blob_bundle.num_classes, hidden_sizes=(16,), seed=0)
        loader = DataLoader(blob_bundle.test, batch_size=8)
        assert 0.0 <= evaluate_accuracy(model, loader) <= 1.0

    def test_empty_eval_set_gives_zero(self):
        from repro.data.dataset import TensorDataset

        empty = TensorDataset(np.zeros((0, 8), dtype=np.float32), np.zeros((0,), dtype=np.int64))
        model = MLP(8, 3, hidden_sizes=(8,), seed=0)
        assert evaluate_accuracy(model, empty) == 0.0


class TestMaskHelpers:
    def test_apply_weight_masks(self):
        model = MLP(6, 3, hidden_sizes=(4,), seed=0)
        masks = {"body.0": np.zeros((4, 6), dtype=bool)}
        masks["body.0"][0, :] = True
        apply_weight_masks(model, masks)
        np.testing.assert_allclose(model.body[0].weight.data[0], np.zeros(6))
        assert not np.allclose(model.body[0].weight.data[1], 0)

    def test_apply_none_is_noop(self):
        model = MLP(6, 3, hidden_sizes=(4,), seed=0)
        before = model.body[0].weight.data.copy()
        apply_weight_masks(model, None)
        np.testing.assert_allclose(model.body[0].weight.data, before)

    def test_unknown_layer_raises(self):
        model = MLP(6, 3, hidden_sizes=(4,), seed=0)
        with pytest.raises(KeyError):
            apply_weight_masks(model, {"nope": np.zeros((4, 6), dtype=bool)})

    def test_shape_mismatch_raises(self):
        model = MLP(6, 3, hidden_sizes=(4,), seed=0)
        with pytest.raises(ValueError):
            apply_weight_masks(model, {"body.0": np.zeros((2, 2), dtype=bool)})


class TestTrainer:
    def _make(self, bundle, lr=0.1):
        model = MLP(bundle.input_shape[0], bundle.num_classes, hidden_sizes=(24,), seed=0)
        config = TrainingConfig(learning_rate=lr, batch_size=16, seed=0)
        return model, Trainer(model, bundle.train, bundle.test, config=config)

    def test_training_improves_accuracy(self, blob_bundle):
        model, trainer = self._make(blob_bundle)
        history = trainer.train(3.0)
        assert history.records[0].eval_accuracy < history.final_accuracy
        assert history.final_accuracy > 0.8
        assert history.total_epochs == pytest.approx(3.0)

    def test_fractional_epoch_runs_at_least_one_step(self, blob_bundle):
        model, trainer = self._make(blob_bundle)
        history = trainer.train(0.05)
        assert history.records[-1].steps >= 1
        assert history.total_epochs == pytest.approx(0.05)

    def test_checkpoints_recorded_in_order(self, blob_bundle):
        model, trainer = self._make(blob_bundle)
        history = trainer.train(1.0, eval_checkpoints=[0.25, 0.5])
        assert history.epochs == [0.0, 0.25, 0.5, 1.0]
        assert all(
            later.steps >= earlier.steps
            for earlier, later in zip(history.records, history.records[1:])
        )

    def test_zero_epochs_only_evaluates(self, blob_bundle):
        model, trainer = self._make(blob_bundle)
        history = trainer.train(0.0)
        assert len(history.records) == 1
        assert history.records[0].steps == 0

    def test_masks_enforced_throughout_training(self, blob_bundle):
        model = MLP(blob_bundle.input_shape[0], blob_bundle.num_classes, hidden_sizes=(24,), seed=0)
        mask = np.zeros((24, blob_bundle.input_shape[0]), dtype=bool)
        mask[::2, :] = True
        trainer = BatchedFaultTrainer(
            model, [{"body.0": mask}], blob_bundle.train, blob_bundle.test,
            config=TrainingConfig(learning_rate=0.1, batch_size=16, seed=0),
        )
        # Masked at construction (FAP applied).
        np.testing.assert_allclose(trainer.chip_state_dict(0)["body.0.weight"][mask], 0.0)
        trainer.train(1.0)
        weight = trainer.chip_state_dict(0)["body.0.weight"]
        np.testing.assert_allclose(weight[mask], 0.0)
        # Unmasked weights must have been updated.
        assert not np.allclose(weight[~mask], 0.0)

    def test_negative_epochs_rejected(self, blob_bundle):
        _, trainer = self._make(blob_bundle)
        with pytest.raises(ValueError):
            trainer.train(-1.0)

    def test_repeated_increments_equal_the_reference(self, blob_bundle):
        """``train(delta)`` calls continue the same stack of one (the
        adaptive baseline's loop): each one restarts the loader, keeps the
        optimizer state, and ends on exactly the weights the serial
        reference leaves in its model."""
        mask = np.zeros((24, blob_bundle.input_shape[0]), dtype=bool)
        mask[::3, ::2] = True
        config = TrainingConfig(learning_rate=0.05, batch_size=16, seed=4)
        deltas = (0.05, 0.2, 0.5, 1.0)

        def model():
            return MLP(
                blob_bundle.input_shape[0], blob_bundle.num_classes,
                hidden_sizes=(24,), seed=0,
            )

        stack = BatchedFaultTrainer(
            model(), [{"body.0": mask}], blob_bundle.train, blob_bundle.test, config=config
        )
        records = [stack.evaluate()[0]]
        for delta in deltas:
            records.extend(stack.train(delta, include_initial=False)[0].records)
        steps, epochs, state = stack.steps_taken, stack.epochs_taken, stack.chip_state_dict(0)

        reference_model = model()
        reference = ReferenceTrainer(
            reference_model, blob_bundle.train, blob_bundle.test,
            config=config, masks={"body.0": mask},
        )
        ref_records = [reference.evaluate()]
        for delta in deltas:
            ref_records.extend(reference.train(delta, include_initial=False).records)
        ref_steps, ref_epochs = reference.steps_taken, reference.epochs_taken
        ref_state = reference_model.state_dict()
        assert records == ref_records
        assert (steps, epochs) == (ref_steps, ref_epochs)
        assert set(state) == set(ref_state)
        for name in ref_state:
            np.testing.assert_array_equal(state[name], ref_state[name])


class TestEmptyLoaderGuard:
    def test_empty_dataset_rejected_at_construction(self, blob_bundle):
        from repro.data.dataset import TensorDataset

        empty = TensorDataset(
            np.zeros((0, 8), dtype=np.float32), np.zeros((0,), dtype=np.int64)
        )
        model = MLP(8, blob_bundle.num_classes, hidden_sizes=(8,), seed=0)
        with pytest.raises(ValueError, match="no batches"):
            Trainer(model, empty, blob_bundle.test, config=TrainingConfig(batch_size=16))

    def test_one_batch_loader_still_trains(self, blob_bundle):
        model = MLP(8, blob_bundle.num_classes, hidden_sizes=(8,), seed=0)
        loader = DataLoader(blob_bundle.train, batch_size=10_000, shuffle=False)
        trainer = Trainer(model, loader, blob_bundle.test)
        history = trainer.train(1.0, include_initial=False)
        assert history.records[-1].steps == 1


class TestEvaluationRngIsolation:
    def _train_history(self, blob_bundle, interleave):
        model = MLP(8, blob_bundle.num_classes, hidden_sizes=(16,), seed=2)
        config = TrainingConfig(learning_rate=0.05, batch_size=16, seed=9)
        train_loader = DataLoader(blob_bundle.train, batch_size=16, shuffle=True, seed=9)
        trainer = Trainer(model, train_loader, blob_bundle.test, config=config)
        histories = []
        for _ in range(3):
            histories.append(trainer.train(0.5, include_initial=False))
            if interleave:
                # Evaluating through the *shuffled training loader* must not
                # advance its RNG (it used to, changing every later batch).
                evaluate_accuracy(model, train_loader)
        return [h.final_accuracy for h in histories], model.state_dict()

    def test_interleaved_evaluation_does_not_change_training(self, blob_bundle):
        plain_accs, plain_state = self._train_history(blob_bundle, interleave=False)
        mixed_accs, mixed_state = self._train_history(blob_bundle, interleave=True)
        assert plain_accs == mixed_accs
        for name in plain_state:
            np.testing.assert_array_equal(plain_state[name], mixed_state[name])

    def test_shuffled_loader_rng_untouched_by_evaluation(self, blob_bundle):
        from repro.training import evaluate_accuracy

        loader = DataLoader(blob_bundle.train, batch_size=16, shuffle=True, seed=11)
        model = MLP(8, blob_bundle.num_classes, hidden_sizes=(8,), seed=0)
        evaluate_accuracy(model, loader)
        first_after_eval = next(iter(loader))[1]
        fresh = DataLoader(blob_bundle.train, batch_size=16, shuffle=True, seed=11)
        np.testing.assert_array_equal(first_after_eval, next(iter(fresh))[1])


class TestTrainingHistory:
    def test_history_queries(self, blob_bundle):
        model = MLP(blob_bundle.input_shape[0], blob_bundle.num_classes, hidden_sizes=(24,), seed=0)
        history = Trainer(
            model, blob_bundle.train, blob_bundle.test,
            config=TrainingConfig(learning_rate=0.1, batch_size=16, seed=0),
        ).train(2.0, eval_checkpoints=[0.5, 1.0])
        assert history.epochs == [0.0, 0.5, 1.0, 2.0]
        assert history.accuracies == [record.eval_accuracy for record in history.records]
        assert history.final_accuracy == history.records[-1].eval_accuracy
        assert history.total_epochs == 2.0

    def test_meets_target_follows_the_constraint_rule(self):
        """Clean 0.2 minus a 0.02 drop resolves to 0.18000000000000002, and
        ``meets_target`` still counts 0.18 as meeting it."""
        from repro.core import AccuracyConstraint

        target = AccuracyConstraint.within_drop_of_clean(0.02).resolve(0.2)
        assert target > 0.18
        assert meets_target(0.18, target)
        np.testing.assert_array_equal(
            meets_target(np.array([0.17, 0.18, 0.19]), target), [False, True, True]
        )

    def test_empty_history_raises(self):
        from repro.training import TrainingHistory

        history = TrainingHistory()
        with pytest.raises(ValueError):
            _ = history.final_accuracy
        assert history.total_epochs == 0.0


class TestSeedDeterminism:
    def _run(self, blob_bundle, seed):
        model = MLP(8, blob_bundle.num_classes, hidden_sizes=(32,), seed=4)
        config = TrainingConfig(learning_rate=0.05, batch_size=16, seed=seed)
        trainer = Trainer(model, blob_bundle.train, blob_bundle.test, config=config)
        history = trainer.train(1.0, include_initial=False)
        return history.records[-1].train_loss, model.state_dict()

    def test_same_seed_same_trajectory(self, blob_bundle):
        """The trainer seed fixes the mini-batch order, so two runs with the
        same config are bit-identical."""
        loss_a, state_a = self._run(blob_bundle, seed=7)
        loss_b, state_b = self._run(blob_bundle, seed=7)
        assert loss_a == loss_b
        for name in state_a:
            np.testing.assert_array_equal(state_a[name], state_b[name])

    def test_different_seed_different_trajectory(self, blob_bundle):
        loss_a, state_a = self._run(blob_bundle, seed=7)
        loss_b, state_b = self._run(blob_bundle, seed=8)
        assert any(
            not np.array_equal(state_a[name], state_b[name]) for name in state_a
        )
