"""Memory release: finished stacked trainers and capture intermediates die.

The cycle collector is disabled in every test here, so an object survives
``del`` exactly when something still refers to it, through a reference cycle
included.  A stacked trainer that ran a captured eval must be freed by
reference counting alone (its chain cache's graphs must not lead back to it),
and a capture session must not pin the intermediates the eager chain drops.

Each trainer test runs with the ``numpy`` backend: the cycle exists for
every trainer that has a chain cache.

An eval pass lowers its own test batches and frees them: nothing it lowered
is still allocated when it returns.

Campaign jobs hold the population's own chips, and the store fingerprint
serializes one job's fault map at a time.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro import nn
from repro.accelerator import FaultMap, model_fault_masks
from repro.accelerator import batched
from repro.accelerator.batched import (
    BatchedFaultTrainer,
    EvalPipeline,
    evaluate_chip_accuracies,
)
from repro.backends import capture_graph, get_backend, recorded
from repro.backends.numpy_backend import CompiledGraph
from repro.campaign import ChipJob, build_jobs, campaign_fingerprint
from repro.core.chips import ChipPopulation
from repro.core.selection import FixedEpochPolicy
from repro.experiments import fast_preset
from repro.training import TrainingConfig

BACKENDS = ("numpy",)
# Eval batches are ``batch_size`` = 4 rows over the 32-image test set: eight
# same-shape batches, so an eval pass captures once and replays seven times.
CONFIG = TrainingConfig(batch_size=4)


@pytest.fixture(autouse=True)
def no_cycle_collector():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _make_cnn(bundle):
    channels = bundle.input_shape[0]
    return nn.Sequential(
        nn.Conv2d(channels, 8, 3, padding=1, bias=False, rng=0),
        nn.BatchNorm2d(8),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(8 * 4 * 4, 128, rng=1),
        nn.ReLU(),
        nn.Linear(128, bundle.num_classes, rng=2),
    )


def _mask_sets(model, num_chips):
    maps = [FaultMap.random(16, 16, 0.05 + 0.01 * i, seed=i) for i in range(num_chips)]
    return [model_fault_masks(model, fault_map) for fault_map in maps]


def _count_replays(monkeypatch):
    calls = []
    replay = CompiledGraph.__call__

    def counting(self, inputs):
        calls.append(self.graph.signature)
        return replay(self, inputs)

    monkeypatch.setattr(CompiledGraph, "__call__", counting)
    return calls


@pytest.mark.parametrize("backend", BACKENDS)
def test_trainer_freed_after_evaluate(image_bundle, backend, monkeypatch):
    replays = _count_replays(monkeypatch)
    model = _make_cnn(image_bundle)
    trainer = BatchedFaultTrainer(
        model, _mask_sets(model, 3), image_bundle.train, image_bundle.test,
        config=CONFIG, eval_pipeline=EvalPipeline(backend=backend),
    )
    trainer.evaluate()
    assert replays, "the eval pass never replayed a captured graph"
    alive = weakref.ref(trainer)
    del trainer
    assert alive() is None


@pytest.mark.parametrize("backend", BACKENDS)
def test_trainer_freed_after_in_stream_train(image_bundle, backend, monkeypatch):
    replays = _count_replays(monkeypatch)
    model = _make_cnn(image_bundle)
    trainer = BatchedFaultTrainer(
        model, _mask_sets(model, 3), image_bundle.train, image_bundle.test,
        config=CONFIG, eval_pipeline=EvalPipeline(backend=backend),
    )
    trainer.train(1.0, eval_checkpoints=[0.5, 1.0], in_stream=True)
    # Three evaluations (initial, 0.5, 1.0) of eight batches each: one
    # capture, then every later batch replays the compiled graph.
    assert len(replays) == 23
    alive = weakref.ref(trainer)
    del trainer
    assert alive() is None


@pytest.mark.parametrize("backend", BACKENDS)
def test_population_eval_frees_every_chunk(image_bundle, backend, monkeypatch):
    model = _make_cnn(image_bundle)
    chip_chunk = 4
    mask_sets = _mask_sets(model, 3 * chip_chunk + 1)  # four chunks
    trainers = []

    class TrackedTrainer(BatchedFaultTrainer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            trainers.append(weakref.ref(self))

    monkeypatch.setattr(batched, "BatchedFaultTrainer", TrackedTrainer)

    def run():
        return evaluate_chip_accuracies(
            model, image_bundle.test, mask_sets, config=CONFIG,
            chip_chunk=chip_chunk, eval_pipeline=EvalPipeline(backend=backend),
        )

    expected = run()  # warm up lazily created process state
    tracemalloc.start()
    try:
        # One chunk's working set: its trainer's stacks, alive while it runs.
        before = tracemalloc.get_traced_memory()[0]
        chunk = TrackedTrainer(
            model, mask_sets[:chip_chunk], image_bundle.test, image_bundle.test,
            config=CONFIG, eval_pipeline=EvalPipeline(backend=backend),
        )
        chunk.evaluate()
        one_chunk = tracemalloc.get_traced_memory()[0] - before
        del chunk
        trainers.clear()

        before = tracemalloc.get_traced_memory()[0]
        accuracies = run()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert accuracies == expected
    assert len(trainers) == 4
    assert [ref for ref in trainers if ref() is not None] == []
    assert after - before <= one_chunk


@pytest.mark.parametrize("backend", BACKENDS)
def test_eval_keeps_no_lowering(image_bundle, backend):
    """Traced memory after ``evaluate()`` and ``evaluate_chip_accuracies()``
    is back near where it started.  One pass lowers ``K * P`` float32 columns
    at the first conv (18 x 2048 here, 147 KB); a trainer keeps only its
    captured graphs, and a population evaluation keeps nothing."""
    model = _make_cnn(image_bundle)
    mask_sets = _mask_sets(model, 3)
    conv = model[0]
    _, height, width = image_bundle.input_shape
    lowered = (
        conv.weight.data[0].size * len(image_bundle.test) * height * width * 4
    )

    def trainer(pipeline):
        return BatchedFaultTrainer(
            model, mask_sets, image_bundle.train, image_bundle.test,
            config=CONFIG, eval_pipeline=pipeline,
        )

    trainer(EvalPipeline(backend=backend)).evaluate()  # warm up process state
    tracemalloc.start()
    try:
        pipeline = EvalPipeline(backend=backend)
        evaluating = trainer(pipeline)
        before = tracemalloc.get_traced_memory()[0]
        evaluating.evaluate()
        after_evaluate = tracemalloc.get_traced_memory()[0] - before

        pipeline = EvalPipeline(backend=backend)
        before = tracemalloc.get_traced_memory()[0]
        evaluate_chip_accuracies(
            model, image_bundle.test, mask_sets, config=CONFIG,
            eval_pipeline=pipeline,
        )
        after_population = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert after_evaluate < lowered / 4, (after_evaluate, lowered)
    assert after_population < lowered / 4, (after_population, lowered)


@pytest.mark.parametrize("backend", BACKENDS)
def test_capture_frees_dropped_intermediates(backend):
    dropped = []

    def chain(x):
        doubled = recorded("double", (x,), lambda v: v * np.float32(2.0))
        dropped.append(weakref.ref(doubled))
        shifted = recorded("shift", (doubled,), lambda v: v + np.float32(1.0))
        del doubled
        return nn.functional.relu(nn.Tensor(shifted)).data

    rng = np.random.default_rng(0)
    captured_on = rng.standard_normal((4, 8)).astype(np.float32)
    with capture_graph((captured_on,)) as session:
        output = chain(captured_on)
        assert dropped[0]() is None, "capture pinned an intermediate"
    graph = session.finish(output)
    assert graph is not None
    assert graph.ops() == ("double", "shift", "relu")

    compiled = get_backend(backend).compile(graph)
    fresh = rng.standard_normal((4, 8)).astype(np.float32)
    replayed = compiled((fresh,))
    eager = chain(fresh.copy())
    assert replayed.dtype == eager.dtype
    np.testing.assert_array_equal(replayed.view(np.uint32), eager.view(np.uint32))


def test_jobs_hold_the_population_chips(smoke_context):
    preset = smoke_context.preset
    population = ChipPopulation.generate(
        4, preset.array_rows, preset.array_cols, fault_rates=(0.05, 0.25), seed=4
    )
    framework = smoke_context.framework()
    for epochs in (0.25, 0.5):  # every policy's jobs share the same chips
        jobs = build_jobs(framework, population, FixedEpochPolicy(epochs))
        assert len(jobs) == len(population)
        for job, chip in zip(jobs, population):
            assert job.chip is chip


def _traced_peak(fn):
    """tracemalloc high-water mark of ``fn()`` above what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_fingerprint_serializes_one_chip_at_a_time():
    """Over 128 64x64 chips at fault rate 0.3, one serialized chip (its
    ``to_dict()``) peaks at about 115 KB.  Hashing one ``json.dumps`` of the
    whole payload peaked at 3.99 MB (about 34 chips); the streaming hash
    peaks at about 0.30 MB (under 3 chips)."""
    population = ChipPopulation.generate(128, 64, 64, fault_rates=0.3, seed=5)
    jobs = [
        ChipJob(chip=chip, epochs=1.0, target_accuracy=0.9, policy_name="p")
        for chip in population
    ]
    preset = fast_preset()
    one_chip = _traced_peak(population[0].to_dict)
    peak = _traced_peak(lambda: campaign_fingerprint(preset, "p", 0.9, jobs))
    assert peak < 4 * one_chip, (peak, one_chip)
