"""Whole-process benchmark of ``repro-reduce``.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fleet-fat --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck

One run measures one workload (see ``workload.WORKLOADS``) for ``--seconds``:
it starts fresh workload processes one after another, each with an empty
campaign directory, no pre-train disk cache and BLAS pinned to one thread,
times each from spawn to exit, checks every output, and prints the medians.
The chip population comes from ``--seed``; every process of a run gets the
same one, so their committed rows must be identical.

Before each workload process a short fixed probe (:func:`host_probe`) times
the host.  Each process's timings are divided by its host slowdown (its
probe ÷ :data:`PROBE_REFERENCE_S`) before the median is taken, so that a
busy neighbour on a shared host does not read as a regression; the raw
timings and the probes are printed, and reported as ``bench.*`` layer metrics.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced processes with traced ones (layer wrappers from ``spans.py``) and
reports the per-layer metrics instead; before measuring it runs the
self-check.  ``--selfcheck`` runs only that check: every workload once, traced,
on the ``fast`` preset with 6 chips, asserting that every metric is emitted
with its unit and every wrapped function was found and called.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workload import PRESET, WORKLOADS  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_runs"

#: Fewest workload processes one measurement takes, whatever ``--seconds``.
MIN_PROCESSES = 3
#: A workload process still running after this long is killed.
PROCESS_TIMEOUT_S = 120.0
#: Stop starting processes once a run has taken this long.
RUN_CEILING_S = 130.0
#: Chips per workload in the self-check.  It keeps the ``fast`` preset: the
#: ``smoke`` preset's MLP has no convolution, so it never reaches the
#: lowering cache; ``fast`` with a few chips reaches every wrapped function
#: in seconds.
SELFCHECK_CHIPS = 6
#: Host-probe time of the reference host speed (see :func:`host_probe`).
PROBE_REFERENCE_S = 0.2

#: End-to-end metrics and their units.
END_TO_END: Dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "chips_per_s": "chips/s",
    "peak_rss_mb": "MB",
    "retrain_epochs": "epochs",
    "constraint_met_frac": "ratio",
    "mean_acc_after": "ratio",
    "completed_frac": "ratio",
}


class ProcessResult:
    """One workload process: its timings, outputs and correctness verdict."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.setup_s = 0.0
        self.peak_rss_mb = 0.0
        self.cpu_s = 0.0
        self.probe_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digest = ""
        self.payload: Dict[str, Any] = {}
        self.dump: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def slowdown(self) -> float:
        """Host-probe time before this process ÷ the reference (>1: slow host)."""
        return self.probe_s / PROBE_REFERENCE_S


#: One BLAS and OpenMP thread, in the workload processes and in this one
#: (where the host probe runs).
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


def child_env(tmp: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED_THREADS)
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "TMPDIR": str(tmp),
    })
    return env


def host_probe() -> float:
    """Seconds a fixed mix of single-thread float32 GEMMs and interpreter work takes.

    The mix resembles a workload process (stacked GEMMs driven from Python).
    It runs in this process just before each workload process, so it sees the
    host speed of that moment: on a shared host it slows when the program
    does, and the timing metrics are scaled by it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    lhs = rng.standard_normal((256, 576), dtype=np.float32)
    rhs = rng.standard_normal((576, 64), dtype=np.float32)
    started = time.perf_counter()
    for _ in range(600):
        lhs @ rhs
    total = 0
    for value in range(1_000_000):
        total += value
    return time.perf_counter() - started


def _reap_group(pgid: int) -> None:
    """Kill what is left of a process group and wait until it is gone."""
    deadline = time.monotonic() + 10.0
    sent = False
    while True:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        if time.monotonic() > deadline or not sent:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
            sent = True
        time.sleep(0.01)


def _digest(rows: List[List[Any]]) -> str:
    """Canonical digest of committed rows (order-insensitive within a run)."""
    canonical = sorted(json.dumps([repr(v) if isinstance(v, float) else v for v in row])
                       for row in rows)
    return hashlib.sha256("\n".join(canonical).encode("utf-8")).hexdigest()


def check_outputs(result: ProcessResult, spec: Dict[str, Any], campaign_dir: Path) -> None:
    """Append every violated output invariant to ``result.problems``."""
    payload = result.payload
    rows = payload["rows"]
    if len(rows) + payload["failed_chips"] != result.attempted:
        result.problems.append(
            f"{len(rows)} results + {payload['failed_chips']} quarantined "
            f"!= {result.attempted} attempted")
    target = payload["target_accuracy"]
    for _, chip_id, _, allocated, trained, before, after, meets in rows:
        if not (0.0 <= before <= 1.0 and 0.0 <= after <= 1.0):
            result.problems.append(f"{chip_id}: accuracy outside [0, 1]")
        if trained < 0 or allocated < 0:
            result.problems.append(f"{chip_id}: negative epochs")
        if meets != (after >= target - 1e-12):
            result.problems.append(f"{chip_id}: constraint flag disagrees with accuracy")
    if spec["command"] == "fig3":
        return  # in-memory campaigns: no stores (the CLI default for fig3)
    from repro.campaign import discover_stores

    stores = discover_stores(campaign_dir)
    if len(stores) != payload["arms"]:
        result.problems.append(f"{len(stores)} stores for {payload['arms']} campaigns")
    stored: List[List[Any]] = []
    for store in stores:
        report = store.verify()
        if not report.is_clean:
            result.problems.append(f"store not clean: {report.describe()}")
        for r in store.completed().values():
            stored.append([r.chip_id, r.strategy, r.epochs_allocated, r.epochs_trained,
                           r.accuracy_before, r.accuracy_after, bool(r.meets_constraint)])
    if _digest(stored) != _digest([row[1:] for row in rows]):
        result.problems.append("store rows differ from the returned campaign rows")


def run_process(workload: str, seed: int, traced: bool,
                chips: Optional[int] = None) -> ProcessResult:
    """Run one workload process in fresh directories and check its outputs."""
    spec = WORKLOADS[workload]
    chips = chips if chips is not None else spec["chips"]
    result = ProcessResult()
    if spec["command"] == "fig3":
        from repro.experiments import get_preset

        arms = 2 + len(get_preset(PRESET).fixed_policy_epochs)  # reduce-max/-mean
    elif spec["command"] == "compare":
        arms = len(spec["strategies"].split(","))
    else:
        arms = 1
    result.attempted = chips * arms
    result.probe_s = host_probe()
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    try:
        tmp = work / "tmp"
        tmp.mkdir()
        out, dump = work / "result.json", work / "spans.json"
        started = time.monotonic()
        command = [
            sys.executable, str(HERE / "workload.py"), "--workload", workload,
            "--seed", str(seed), "--chips", str(chips),
            "--campaign-dir", str(work / "campaigns"), "--out", str(out),
            "--spawned-at", repr(started),
        ] + (["--spans", str(dump)] if traced else [])
        with (work / "process.log").open("wb") as log:
            process = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT,
                                       stdin=subprocess.DEVNULL, env=child_env(tmp),
                                       cwd=ROOT, start_new_session=True)
            killer = threading.Timer(PROCESS_TIMEOUT_S, _reap_group, (process.pid,))
            killer.start()
            try:
                _, status, usage = os.wait4(process.pid, 0)
            finally:
                killer.cancel()
            result.wall_s = time.monotonic() - started
            process.returncode = os.waitstatus_to_exitcode(status)
            _reap_group(process.pid)
        # ru_maxrss of a reaped child covers its own waited-for children too.
        result.peak_rss_mb = usage.ru_maxrss / 1024.0
        result.cpu_s = usage.ru_utime + usage.ru_stime
        if process.returncode != 0 or not out.exists():
            tail = (work / "process.log").read_text(errors="replace")[-2000:]
            result.problems.append(f"exit code {process.returncode}: {tail}")
            result.failed = result.attempted
            return result
        result.payload = json.loads(out.read_text())
        result.setup_s = result.payload["context_ready"] - started
        if traced:
            result.dump = json.loads(dump.read_text())
        check_outputs(result, spec, work / "campaigns")
        result.digest = _digest(result.payload["rows"])
        result.failed = (result.attempted if result.problems
                         else result.attempted - len(result.payload["rows"]))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(workload: str, results: List[ProcessResult]) -> Dict[str, float]:
    """End-to-end metrics over the untraced processes of one run.

    Each process's timings are divided by its host slowdown before the median.
    """
    good = [r for r in results if r.ok]
    timed = good or results
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    values = {
        "wall_s": statistics.median(r.wall_s / r.slowdown for r in timed),
        "setup_s": statistics.median(r.setup_s / r.slowdown for r in timed),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in timed),
        "completed_frac": 1.0 - failed / attempted,
        "chips_per_s": statistics.median(
            len(r.payload.get("rows", ())) * r.slowdown / r.wall_s for r in timed),
        "retrain_epochs": 0.0,
        "constraint_met_frac": 0.0,
        "mean_acc_after": 0.0,
    }
    if good:
        payload = good[0].payload
        rows = payload["rows"]
        if workload == "paper-fig3":
            # The paper's cost and constraint readout: the reduce-max policy.
            reduce_max = payload["readout"]["reduce-max"]
            values["retrain_epochs"] = reduce_max["total_epochs"]
            values["constraint_met_frac"] = reduce_max["frac_meeting"]
        else:
            values["retrain_epochs"] = sum(row[4] for row in rows)
            values["constraint_met_frac"] = sum(row[7] for row in rows) / len(rows)
        values["mean_acc_after"] = statistics.fmean(row[6] for row in rows)
    return values


def per_layer(traced: List[ProcessResult], untraced: List[ProcessResult]) -> Dict[str, float]:
    """Per-layer metrics: medians over the traced processes of one run."""
    samples = [spans.layer_metrics(r.dump, r.wall_s) for r in traced if r.ok]
    if not samples:
        return {name: 0.0 for name in spans.LAYER_UNITS}
    values = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    values["bench.trace_overhead_frac"] = (
        statistics.median(r.wall_s for r in traced)
        / statistics.median(r.wall_s for r in untraced) - 1.0)
    values["bench.wall_raw_s"] = statistics.median(r.wall_s for r in untraced)
    values["bench.host_probe_s"] = statistics.median(r.probe_s for r in untraced + traced)
    return values


def environment(seed: int) -> Dict[str, Any]:
    """Interpreter, numpy and BLAS versions, CPU count and seed of the run."""
    info: Dict[str, Any] = {"python": platform.python_version(), "nproc": os.cpu_count(),
                            "seed": seed, "blas_threads": 1}
    try:
        import numpy

        info["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError) as error:  # older show_config
        info.setdefault("numpy", "unknown")
        info["blas"] = f"unknown ({type(error).__name__})"
    return info


def measure(workload: str, seed: int, seconds: float, traced_run: bool,
            ) -> Tuple[List[ProcessResult], List[ProcessResult]]:
    """Run processes for ``seconds`` (at least ``MIN_PROCESSES`` of each kind)."""
    untraced: List[ProcessResult] = []
    traced: List[ProcessResult] = []
    started = time.monotonic()
    while True:
        elapsed = time.monotonic() - started
        enough = len(untraced) >= MIN_PROCESSES and (
            not traced_run or len(traced) >= MIN_PROCESSES)
        # Start another process only if it is expected to end within budget.
        expected = statistics.median(r.wall_s for r in untraced + traced) if untraced else 0.0
        if (enough and elapsed + expected > seconds) or elapsed >= RUN_CEILING_S:
            break
        tracing = traced_run and len(traced) < len(untraced)
        result = run_process(workload, seed, tracing)
        (traced if tracing else untraced).append(result)
    return untraced, traced


def verify_run(results: List[ProcessResult]) -> List[str]:
    """Problems across all processes of a run (per-process and digest).

    Processes that disagree on the digest all count as failed.
    """
    problems = [p for r in results for p in r.problems]
    digests = {r.digest for r in results if r.ok}
    if len(digests) > 1:
        problems.append(f"committed rows differ between processes: {len(digests)} digests")
        for r in results:
            r.failed = r.attempted
    return problems


def selfcheck() -> List[str]:
    """Small-scale check that the harness still sees every layer."""
    problems: List[str] = []
    called: Dict[str, int] = {}
    for workload in WORKLOADS:
        traced = [run_process(workload, 0, True, SELFCHECK_CHIPS)]
        problems += [f"{workload}: {p}" for p in verify_run(traced)]
        if problems:
            continue
        e2e = end_to_end(workload, traced)
        layers = per_layer(traced, traced)
        for name in END_TO_END:
            if name not in e2e:
                problems.append(f"{workload}: end-to-end metric {name} missing")
        for name in spans.LAYER_UNITS:
            if name not in layers:
                problems.append(f"{workload}: per-layer metric {name} missing")
        for key, count in traced[0].dump["called"].items():
            called[key] = called.get(key, 0) + count
    if not problems:
        for key in spans.target_keys():
            if called.get(key):
                continue
            if key in spans.IDLE_TARGETS:
                print(f"selfcheck: note: {key} was not called (its layer reports 0)")
            else:
                problems.append(f"never called: {key}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description="Whole-process benchmark of repro-reduce.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from the root of a source "
              "checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED_THREADS)  # before anything here imports numpy
    sys.path.insert(0, str(SRC))
    if args.selfcheck or args.trace:
        problems = selfcheck()
        for problem in problems:
            print(f"selfcheck: {problem}", file=sys.stderr)
        print(f"selfcheck: {'FAILED' if problems else 'ok'}")
        if args.selfcheck:
            return 1 if problems else 0
    else:
        problems = []
    if args.workload is None:
        parser.error("--workload is required")

    print(f"environment: {json.dumps(environment(args.seed), sort_keys=True)}")
    untraced, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    everything = untraced + traced
    for index, r in enumerate(everything):
        print(f"  process {index} ({'traced' if r.dump else 'untraced'}): "
              f"wall={r.wall_s:.4f}s cpu={r.cpu_s:.4f}s setup={r.setup_s:.4f}s rss={r.peak_rss_mb:.1f}MB "
              f"probe={r.probe_s:.4f}s {'ok' if r.ok else 'FAILED'}")
    problems += verify_run(everything)
    e2e = end_to_end(args.workload, untraced)
    print(f"workload {args.workload}: {len(untraced)} untraced and {len(traced)} traced "
          f"processes, medians over untraced; each process's timings divided by "
          f"its host slowdown (probe ÷ {PROBE_REFERENCE_S} s; median "
          f"{statistics.median(r.slowdown for r in untraced):.4f})")
    for name, unit in END_TO_END.items():
        print(f"  {name} = {e2e[name]:.6g} {unit}")
    print(f"  failed_frac = {1.0 - e2e['completed_frac']:.6g} ratio")
    good = [r for r in everything if r.ok]
    if args.workload == "paper-fig3" and good:
        for policy, point in good[0].payload["readout"].items():
            print(f"  fig3 {policy}: total_epochs={point['total_epochs']:.4g} "
                  f"meeting={point['frac_meeting']:.4f}")
    if args.trace:
        metrics = per_layer(traced, untraced)
        if traced and traced[0].ok:
            name, value = spans.largest_self_time(traced[0].dump)
            print(f"  largest self time: {name} {value:.4f} s")
        units = spans.LAYER_UNITS
    else:
        metrics, units = e2e, END_TO_END
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)
    print(f"correctness: {'FAILED' if problems else 'ok'}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in everything),
        "failed": sum(r.failed for r in everything),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
