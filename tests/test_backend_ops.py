"""Backend equivalence tests: captured op graphs vs eager execution.

Three layers of guarantees are pinned down here:

* **Per-op** — every op in the IR vocabulary (im2col, stacked GEMM, bias,
  the layer program's ReLU, max-pool and linear entries, keep-multiplier
  mask) captured once and replayed on fresh inputs is *bit-identical* under
  the ``numpy`` backend.
* **Substrate** — the stacked trainer's eval forward and training loop
  produce the same logits/accuracies/losses/weights through the backend as
  eagerly, bit for bit.
* **End-to-end** — a fast-preset campaign through the ``numpy`` backend
  writes a ``results.jsonl`` byte-identical to the eager campaign and shares
  its content-addressed store fingerprint.
"""

import numpy as np
import pytest

from repro import nn
from repro.accelerator import FaultMap, model_fault_masks
from repro.accelerator.batched import (
    BatchedFaultTrainer,
    EvalPipeline,
    _keep_multiplier_kernel,
    _program_layer,
)
from repro.backends import (
    BackendError,
    NumpyBackend,
    capture_graph,
    get_backend,
    recorded,
    resolve_backend,
)
from repro.data import make_class_template_images
from repro.nn import functional as F
from repro.observability import metrics
from repro.training import TrainingConfig
from tests.helpers import recorded_evaluate

BACKENDS = ("numpy",)


def _assert_backend_matches(replayed, expected):
    """Replay must be bit-identical to eager execution."""
    assert replayed.shape == expected.shape
    assert replayed.dtype == expected.dtype
    assert replayed.tobytes() == expected.tobytes()


def _capture(inputs, fn):
    with capture_graph(inputs) as session:
        out = fn(*inputs)
    graph = session.finish(out)
    assert graph is not None, "chain was not captured"
    return graph


def _roundtrip(backend_name, make_inputs, fn):
    """Capture ``fn`` on one input set, replay on a second, compare to eager."""
    a = make_inputs(np.random.default_rng(11))
    b = make_inputs(np.random.default_rng(23))
    compiled = get_backend(backend_name).compile(_capture(a, fn))
    expected = fn(*[x.copy() for x in b])
    replayed = compiled([x.copy() for x in b])
    _assert_backend_matches(replayed, expected)
    # Fixed inputs -> fixed outputs: replaying the same graph twice must be
    # byte-stable.
    again = compiled([x.copy() for x in b])
    assert again.tobytes() == replayed.tobytes()


# ---------------------------------------------------------------------------
# Per-op equivalence over the captured IR vocabulary
# ---------------------------------------------------------------------------


class TestPerOpEquivalence:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_relu(self, backend_name):
        _roundtrip(
            backend_name,
            lambda rng: (rng.standard_normal((5, 7)).astype(np.float32),),
            lambda x: _program_layer("relu", nn.ReLU()).forward(x, None),
        )

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_max_pool(self, backend_name):
        _roundtrip(
            backend_name,
            lambda rng: (rng.standard_normal((2, 3, 8, 8)).astype(np.float32),),
            lambda x: _program_layer("pool", nn.MaxPool2d(2)).forward(x, None),
        )

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_im2col_t(self, backend_name):
        _roundtrip(
            backend_name,
            lambda rng: (rng.standard_normal((2, 3, 6, 6)).astype(np.float32),),
            lambda x: recorded(
                "eval.im2col",
                (x,),
                lambda a: F.im2col_t(a, (3, 3), (1, 1), (1, 1))[0],
            ),
        )

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_stacked_gemm(self, backend_name):
        _roundtrip(
            backend_name,
            lambda rng: (
                rng.standard_normal((4, 5, 18)).astype(np.float32),
                rng.standard_normal((18, 50)).astype(np.float32),
            ),
            lambda w, c: recorded("eval.gemm", (w, c), np.matmul),
        )

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_stacked_bias(self, backend_name):
        _roundtrip(
            backend_name,
            lambda rng: (
                rng.standard_normal((4, 5, 50)).astype(np.float32),
                rng.standard_normal((4, 5)).astype(np.float32),
            ),
            lambda g, b: recorded(
                "eval.bias", (g, b), lambda G, B: G + B[:, :, None]
            ),
        )

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_linear_layer(self, backend_name):
        stack = BatchedFaultTrainer(nn.Sequential(nn.Linear(10, 4, rng=0)), [{}], None, None)
        _roundtrip(
            backend_name,
            lambda rng: (rng.standard_normal((6, 10)).astype(np.float32),),
            lambda x: stack._forward(x, None),
        )

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_keep_multiplier_mask(self, backend_name):
        # The mask kernel is in-place: capture and replay must both mutate
        # their operand and the mutated values must match eager exactly.
        def fn(values, keep):
            return recorded(
                "mask.keep_multiplier", (values, keep), _keep_multiplier_kernel
            )

        rng = np.random.default_rng(3)
        a = (
            rng.standard_normal((3, 4, 4)).astype(np.float32),
            (rng.random((3, 4, 4)) > 0.2).astype(np.float32),
        )
        b_values = rng.standard_normal((3, 4, 4)).astype(np.float32)
        b_keep = (rng.random((3, 4, 4)) > 0.3).astype(np.float32)

        compiled = get_backend(backend_name).compile(_capture(a, fn))
        expected = _keep_multiplier_kernel(b_values.copy(), b_keep)
        replay_values = b_values.copy()
        replayed = compiled((replay_values, b_keep))
        _assert_backend_matches(replayed, expected)
        # The in-place contract: the operand itself carries the result.
        assert replay_values.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Substrate equivalence: batched evaluator and trainer
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def backend_bundle():
    return make_class_template_images(
        num_classes=4,
        train_per_class=16,
        test_per_class=8,
        image_size=8,
        channels=2,
        noise_std=0.3,
        shift_pixels=0,
        seed=1,
    )


def _make_cnn(bundle):
    channels = bundle.input_shape[0]
    return nn.Sequential(
        nn.Conv2d(channels, 4, 3, padding=1, bias=False, rng=0),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(4 * 4 * 4, 8, rng=1),
        nn.ReLU(),
        nn.Linear(8, bundle.num_classes, rng=2),
    )


def _mask_sets(model_factory, num_chips=3):
    maps = [FaultMap.random(16, 16, 0.05 + 0.04 * i, seed=i) for i in range(num_chips)]
    return [model_fault_masks(model_factory(), fault_map) for fault_map in maps]


class TestEvaluatorEquivalence:
    # Eval batches are ``batch_size`` = 4 rows: eight same-shape batches over
    # the 32-image test set, so a single pass already replays seven times.
    CONFIG = TrainingConfig(batch_size=4)

    def _trainer(self, bundle, backend=None):
        return BatchedFaultTrainer(
            _make_cnn(bundle),
            _mask_sets(lambda: _make_cnn(bundle)),
            bundle.test,
            bundle.test,
            config=self.CONFIG,
            eval_pipeline=EvalPipeline(backend=backend),
        )

    def test_numpy_backend_bit_identical(self, backend_bundle):
        expected_acc, expected_logits = recorded_evaluate(self._trainer(backend_bundle))
        replayed = self._trainer(backend_bundle, backend="numpy")
        recorded_evaluate(replayed)  # captures batch 0 eagerly
        hits = metrics.counter("backend.graph_cache.hits", backend="numpy")
        hits_before = hits.value
        replay_acc, replay_logits = recorded_evaluate(replayed)  # every batch replays
        assert hits.value == hits_before + len(expected_logits)
        assert replay_acc == expected_acc
        assert len(replay_logits) == len(expected_logits) == 8
        for replay, expected in zip(replay_logits, expected_logits):
            assert replay.tobytes() == expected.tobytes()


def _nan_aware_equal(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return bool(np.all((a == b) | (np.isnan(a) & np.isnan(b))))


class TestTrainerEquivalence:
    def _run(self, bundle, backend):
        model = _make_cnn(bundle)
        trainer = BatchedFaultTrainer(
            model,
            _mask_sets(lambda: _make_cnn(bundle)),
            bundle.train,
            bundle.test,
            config=TrainingConfig(learning_rate=0.05, batch_size=16, seed=3),
            eval_pipeline=EvalPipeline(backend=backend),
        )
        histories = trainer.train(1.0, eval_checkpoints=[0.5])
        states = [trainer.chip_state_dict(chip) for chip in range(3)]
        return histories, states

    def test_numpy_backend_bit_identical(self, backend_bundle):
        eager_hist, eager_states = self._run(backend_bundle, None)
        numpy_hist, numpy_states = self._run(backend_bundle, "numpy")
        for a, b in zip(eager_hist, numpy_hist):
            assert a.accuracies == b.accuracies
            assert _nan_aware_equal(
                [r.train_loss for r in a.records], [r.train_loss for r in b.records]
            )
        for sa, sb in zip(eager_states, numpy_states):
            assert sa.keys() == sb.keys()
            for key in sa:
                assert sa[key].tobytes() == sb[key].tobytes()


# ---------------------------------------------------------------------------
# Resolution and typed errors
# ---------------------------------------------------------------------------


class TestRegistry:
    """Backend lookup by name: ``numpy`` or eager, nothing else."""

    def test_unknown_backend_raises_typed_error(self):
        with pytest.raises(BackendError, match="unknown backend"):
            get_backend("bogus")
        with pytest.raises(BackendError, match="unknown backend"):
            resolve_backend("fused")

    def test_resolve_none_is_eager(self):
        assert resolve_backend(None) is None

    def test_resolve_numpy(self):
        assert resolve_backend("numpy").name == "numpy"
        assert resolve_backend("numpy") is get_backend("numpy")
        backend = NumpyBackend()
        assert resolve_backend(backend) is backend


class TestTypedErrors:
    def test_signature_mismatch_raises_backend_error(self):
        x = np.ones((2, 3), dtype=np.float32)
        compiled = get_backend("numpy").compile(
            _capture((x,), lambda a: _program_layer("relu", nn.ReLU()).forward(a, None))
        )
        with pytest.raises(BackendError, match="captured for"):
            compiled((np.ones((2, 3), dtype=np.float64),))

    def test_recorded_non_array_output_rejected(self):
        x = np.ones(4, dtype=np.float32)
        with pytest.raises(BackendError, match="expected ndarray"):
            with capture_graph((x,)):
                recorded("bad.op", (x,), lambda a: float(a.sum()))


# ---------------------------------------------------------------------------
# End-to-end: fast-preset campaign byte-identity
# ---------------------------------------------------------------------------


class TestCampaignByteIdentity:
    def test_numpy_backend_results_match_eager(self, tmp_path):
        from repro.campaign import CampaignEngine
        from repro.core.selection import FixedEpochPolicy
        from repro.experiments import ExperimentContext, build_population
        from repro.experiments.presets import fast_preset

        context = ExperimentContext.from_preset(fast_preset())
        population = build_population(context, num_chips=4)

        def run(backend, base):
            base.mkdir()
            engine = CampaignEngine(
                context, store_base=base, backend=backend, fat_batch=4
            )
            engine.run(population, FixedEpochPolicy(0.25))
            store_dir = next(base.iterdir())
            return store_dir.name, (store_dir / "results.jsonl").read_bytes()

        eager_fp, eager_results = run(None, tmp_path / "eager")
        numpy_fp, numpy_results = run("numpy", tmp_path / "numpy")
        # The numpy replay is bit-identical, so it shares the eager campaign's
        # content-addressed store fingerprint and its results byte for byte.
        assert numpy_fp == eager_fp
        assert numpy_results == eager_results
