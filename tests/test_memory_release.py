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

A training step's cache (its kernels' saved activations and lowerings) dies
with the step: the next forward, an in-stream readout and a checkpoint
evaluation never see it, so a stack's peak holds one step's however many
steps it runs.

Campaign jobs hold the population's own chips, and the store fingerprint
serializes one job's fault map at a time.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro import nn
from repro.accelerator import FaultMap, SystolicArray, model_fault_masks
from repro.accelerator import batched
from repro.accelerator.batched import (
    BatchedFaultTrainer,
    EvalPipeline,
    _program_layer,
    evaluate_chip_accuracies,
)
from repro.backends import capture_graph, get_backend, recorded
from repro.backends.numpy_backend import CompiledGraph
from repro.campaign import ChipJob, build_jobs, campaign_fingerprint
from repro.core.chips import ChipPopulation
from repro.core.reduce import TRIAGE_CHIP_CHUNK, ReduceConfig, ReduceFramework
from repro.core.selection import FixedEpochPolicy
from repro.experiments import build_dataset, fast_preset
from repro.models import build_model
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
def test_triage_frees_every_chunk(image_bundle, backend, monkeypatch):
    """Triage of ``TRIAGE_CHIP_CHUNK + 1`` chips runs two stacks, and each
    stack's trainer is freed before the call returns."""
    model = _make_cnn(image_bundle)
    framework = ReduceFramework(
        model, model.state_dict(), image_bundle, SystolicArray(16, 16),
        config=ReduceConfig(retraining=CONFIG), eval_pipeline=EvalPipeline(backend=backend),
    )
    chips = list(ChipPopulation.generate(
        TRIAGE_CHIP_CHUNK + 1, 16, 16, fault_rates=(0.05, 0.25), seed=0
    ))
    trainers = []

    class TrackedTrainer(BatchedFaultTrainer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            trainers.append(weakref.ref(self))

    monkeypatch.setattr(batched, "BatchedFaultTrainer", TrackedTrainer)

    expected = framework.triage_population(chips)  # warm up lazily created process state
    first_chunk = [model_fault_masks(model, chip.fault_map)
                   for chip in chips[:TRIAGE_CHIP_CHUNK]]
    tracemalloc.start()
    try:
        # One chunk's working set: its trainer's stacks, alive while it runs.
        before = tracemalloc.get_traced_memory()[0]
        chunk = TrackedTrainer(
            model, first_chunk, image_bundle.test, image_bundle.test,
            config=CONFIG, eval_pipeline=EvalPipeline(backend=backend),
        )
        chunk.evaluate()
        one_chunk = tracemalloc.get_traced_memory()[0] - before
        del chunk
        trainers.clear()

        before = tracemalloc.get_traced_memory()[0]
        accuracies = framework.triage_population(chips)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert accuracies == expected
    assert len(trainers) == 2
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
        return _program_layer("relu", nn.ReLU()).forward(shifted, None)

    rng = np.random.default_rng(0)
    captured_on = rng.standard_normal((4, 8)).astype(np.float32)
    with capture_graph((captured_on,)) as session:
        output = chain(captured_on)
        assert dropped[0]() is None, "capture pinned an intermediate"
    graph = session.finish(output)
    assert graph is not None
    assert tuple(node.op for node in graph.nodes) == ("double", "shift", "relu")

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


def _fast_lenet_stack(seeds):
    """A fast-preset LeNet stack of four chips at fault rate 0.1."""
    preset = fast_preset()
    bundle = build_dataset(preset)
    model = build_model(
        preset.model.name, bundle.input_shape, bundle.num_classes,
        seed=preset.model.seed, **preset.model.kwargs,
    )
    mask_sets = [
        model_fault_masks(model, FaultMap.random(
            preset.array_rows, preset.array_cols, 0.1, seed=chip
        ))
        for chip in range(4)
    ]
    return BatchedFaultTrainer(
        model, mask_sets, bundle.train, bundle.test,
        config=preset.retraining, seeds=seeds,
    )


# Step 1's shape (one seed per cell, segment checkpoints) and Step 3's
# (one shared stream, in-stream readouts).
STACKS = {
    "per-chip-seeds": ([0, 1, 2, 3], False),
    "shared-in-stream": (None, True),
}


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_step_graph_dies_before_the_next_forward(stack):
    seeds, in_stream = STACKS[stack]
    trainer = _fast_lenet_stack(seeds)
    # Per training step: weak references to every kernel context (its saved
    # activations and lowerings) that its forward put in the step's cache.
    step_caches = []
    forwards = []
    readouts = []

    def live_steps():
        return [step for step, refs in enumerate(step_caches)
                if any(ref() is not None for ref in refs)]

    program_forward = trainer._forward

    def checked_forward(x, cache):
        forwards.append(live_steps())
        out = program_forward(x, cache)
        if cache is not None:
            step_caches.append([weakref.ref(ctx) for ctx, _ in cache])
        return out

    evaluate = trainer.evaluate

    def checked_evaluate():
        readouts.append(live_steps())
        return evaluate()

    trainer._forward = checked_forward
    trainer.evaluate = checked_evaluate
    # Ten batches per epoch: checkpoints at steps 1, 2, 3 and 6.
    trainer.train(0.6, eval_checkpoints=[0.1, 0.2, 0.3], in_stream=in_stream)

    assert len(step_caches) == 6
    assert len(readouts) == 5  # the initial accuracy and four checkpoints
    # Steps whose cache or saved contexts were still alive: at each forward
    # (training steps and eval batches alike) and at each readout's
    # evaluation.
    assert [live for live in forwards if live] == []
    assert [live for live in readouts if live] == []


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_step_memory_does_not_grow_with_steps(stack):
    """A stack's traced peak over six steps stays near one step's: each step
    frees its graph before the next forward, and the ratio reads about 1.03
    (per-chip seeds) and 1.01 (shared).  Holding step k's graph through step
    k + 1 raised it to 1.77 and 1.54."""
    seeds, _ = STACKS[stack]
    trainer = _fast_lenet_stack(seeds)
    trainer._train_steps(1)  # warm up the optimizer state and loaders
    one_step = _traced_peak(lambda: trainer._train_steps(1))
    six_steps = _traced_peak(lambda: trainer._train_steps(6))
    assert six_steps <= 1.3 * one_step, (six_steps, one_step)
