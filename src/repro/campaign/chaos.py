"""Deterministic chaos harness for campaign fault recovery.

Fault-tolerance code that is only exercised by real 3 a.m. failures is
unverified code.  This module turns the failure modes chunk execution must
survive into a *seeded, planned* fault schedule so every recovery path runs
in tests and CI:

* ``kill`` — the worker SIGKILLs itself at the start of a planned chunk
  attempt (an OOM-killer stand-in; the coordinator must see the dropped
  link, reassign the chunk and fork a replacement local worker).
* ``hang`` — the worker sleeps ``hang_s`` seconds before executing a planned
  chunk (a wedged-BLAS stand-in; the chunk deadline must fire, or the sleep
  ends and the chunk completes late — either way the campaign finishes).
* ``exc`` — a transient :class:`ChaosError` is raised on the first attempt of
  a planned chunk (the retry path without losing the worker).
* ``poison`` — :class:`ChaosError` on *every* attempt of a planned chunk
  (the quarantine path: retries are capped, the chunk is reported failed and
  the campaign degrades gracefully).
* ``torn`` — after a planned parent-side store append, a torn trailing
  fragment is written to ``results.jsonl`` (a power-cut stand-in; the store's
  torn-tail repair must absorb it).

A schedule is a pure function of ``(spec, number of plan chunks)``: the spec
string carries an explicit seed, planned chunk indices are drawn with
``random.Random(seed)``, and kill/hang/exc faults fire only on a chunk's
first attempt — so a chaos campaign always terminates and (except for
``poison`` chunks) commits bit-identical rows to an undisturbed run.

Spec grammar (``--chaos SPEC``)::

    SPEC    := ENTRY ("," ENTRY)*
    ENTRY   := KEY "=" VALUE
    KEY     := "seed" | "kill" | "hang" | "exc" | "poison" | "torn" | "hang_s"

``seed`` (default 0) seeds the planner; ``kill``/``hang``/``exc``/``poison``/
``torn`` (defaults 0) are fault counts; ``hang_s`` (default 30.0, > 0) is the
injected hang duration in seconds.  Example: ``seed=7,kill=2,hang=1,hang_s=5``.
"""

from __future__ import annotations

import dataclasses
import os
import random
import signal
import time
from typing import Dict, Optional

from repro.observability import metrics, trace
from repro.utils.logging import get_logger

logger = get_logger("campaign.chaos")

_COUNT_KEYS = ("kill", "hang", "exc", "poison", "torn")


class ChaosError(RuntimeError):
    """The injected (transient or poison) chunk-execution failure."""


@dataclasses.dataclass(frozen=True)
class ChaosSpec:
    """Parsed chaos specification (fault counts + seed + hang duration)."""

    seed: int = 0
    kill: int = 0
    hang: int = 0
    exc: int = 0
    poison: int = 0
    torn: int = 0
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        for key in _COUNT_KEYS:
            if getattr(self, key) < 0:
                raise ValueError(f"chaos count {key!r} must be non-negative")
        if self.hang_s <= 0:
            raise ValueError("chaos hang_s must be positive")

    @classmethod
    def parse(cls, spec: str) -> "ChaosSpec":
        """Parse the ``key=value,...`` spec grammar (raises ``ValueError``)."""
        if not isinstance(spec, str) or not spec.strip():
            raise ValueError("chaos spec must be a non-empty string")
        values: Dict[str, object] = {}
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            key, sep, raw = entry.partition("=")
            key = key.strip()
            raw = raw.strip()
            if not sep or not raw:
                raise ValueError(
                    f"malformed chaos entry {entry!r}: expected key=value"
                )
            if key == "hang_s":
                try:
                    values[key] = float(raw)
                except ValueError:
                    raise ValueError(f"chaos hang_s must be a number, got {raw!r}")
            elif key == "seed" or key in _COUNT_KEYS:
                try:
                    values[key] = int(raw)
                except ValueError:
                    raise ValueError(f"chaos {key} must be an integer, got {raw!r}")
            else:
                known = ("seed",) + _COUNT_KEYS + ("hang_s",)
                raise ValueError(
                    f"unknown chaos key {key!r}; expected one of {', '.join(known)}"
                )
        return cls(**values)  # type: ignore[arg-type]

    @property
    def total_faults(self) -> int:
        return self.kill + self.hang + self.exc + self.poison

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        parts += [f"{k}={getattr(self, k)}" for k in _COUNT_KEYS if getattr(self, k)]
        if self.hang:
            parts.append(f"hang_s={self.hang_s:g}")
        return ",".join(parts)

    def schedule(self, num_chunks: int) -> "ChaosSchedule":
        """Plan the fault points for a campaign of ``num_chunks`` chunks.

        Chunk faults are assigned to distinct chunk indices (counts beyond
        the number of chunks are dropped with a warning — chaos must never
        turn into an unplanned infinite fault source).  Torn-write points are
        drawn over the *first half* of the append sequence so a later append
        always runs the store's torn-tail repair before the campaign ends.
        """
        rng = random.Random(self.seed)
        actions: Dict[int, str] = {}
        wanted = [
            action
            for action, count in (
                ("kill", self.kill),
                ("hang", self.hang),
                ("exc", self.exc),
                ("poison", self.poison),
            )
            for _ in range(count)
        ]
        if num_chunks > 0 and wanted:
            if len(wanted) > num_chunks:
                logger.warning(
                    "chaos: %d faults requested but only %d chunks; dropping %d",
                    len(wanted),
                    num_chunks,
                    len(wanted) - num_chunks,
                )
                wanted = wanted[:num_chunks]
            indices = rng.sample(range(num_chunks), len(wanted))
            actions = dict(zip(indices, wanted))
        torn_window = max(1, num_chunks // 2)
        torn_points = (
            set(rng.sample(range(torn_window), min(self.torn, torn_window)))
            if self.torn and num_chunks > 0
            else set()
        )
        return ChaosSchedule(spec=self, actions=actions, torn_points=torn_points)


@dataclasses.dataclass
class ChaosSchedule:
    """A planned fault schedule for one campaign run.

    ``actions`` maps plan-chunk index -> fault action; ``torn_points`` are
    parent-side append indices after which a torn fragment is written.  The
    schedule stays in the parent: the coordinator puts each attempt's
    planned action into that attempt's chunk frame, so which worker (or
    respawned replacement) executes a chunk never changes which faults fire.
    """

    spec: ChaosSpec
    actions: Dict[int, str]
    torn_points: "set[int]"
    _appends_seen: int = dataclasses.field(default=0, compare=False)

    def action_for(self, chunk_index: int, attempt: int) -> Optional[str]:
        """The fault to inject for this chunk attempt (``None`` = none).

        First-attempt-only for everything except ``poison``, so retried
        chunks always succeed and chaos campaigns terminate.
        """
        action = self.actions.get(chunk_index)
        if action is None:
            return None
        if action == "poison":
            return action
        return action if attempt == 0 else None

    def maybe_inject(
        self, chunk_index: int, attempt: int, allow_process_faults: bool = True
    ) -> None:
        """Inject the planned fault for this chunk attempt, if any.

        ``allow_process_faults=False`` (the in-process ``--jobs 1`` executor)
        downgrades ``kill``/``hang`` to no-ops: killing or stalling the only
        process is not a recoverable fault, it is the driver's own death.
        """
        action = self.action_for(chunk_index, attempt)
        if action is None:
            return
        if action in ("kill", "hang") and not allow_process_faults:
            return
        inject_fault(action, chunk_index, attempt, self.spec.hang_s)

    def maybe_tear(self, store) -> None:
        """After a parent-side append, maybe write a torn trailing fragment.

        Counts appends internally; when the count hits a planned torn point,
        a partial JSON fragment with no newline is appended to the results
        file — exactly what a power cut mid-append leaves behind.
        """
        index = self._appends_seen
        self._appends_seen += 1
        if index not in self.torn_points:
            return
        logger.warning("chaos: tearing trailing write after append %d", index)
        metrics.counter("chaos.torn_writes_injected").inc()
        with store.results_path.open("a", encoding="utf-8") as handle:
            handle.write('{"chip_id": "chaos-torn-fragment", "accuracy_af')


def inject_fault(action: str, chunk_index: int, attempt: int, hang_s: float) -> None:
    """Fire one planned fault in the executing process.

    Socket workers call this with the action the coordinator planned into
    the chunk frame; the in-process executor reaches it through
    :meth:`ChaosSchedule.maybe_inject`.
    """
    if action == "kill":
        logger.warning(
            "chaos: SIGKILL of pid %d on chunk %d attempt %d",
            os.getpid(),
            chunk_index,
            attempt,
        )
        trace.flush()
        os.kill(os.getpid(), signal.SIGKILL)
    elif action == "hang":
        logger.warning(
            "chaos: hanging pid %d for %.1fs on chunk %d attempt %d",
            os.getpid(),
            hang_s,
            chunk_index,
            attempt,
        )
        metrics.counter("chaos.hangs_injected").inc()
        time.sleep(hang_s)
    elif action in ("exc", "poison"):
        metrics.counter("chaos.exceptions_injected").inc()
        raise ChaosError(
            f"injected {action} failure on chunk {chunk_index} attempt {attempt}"
        )


def resolve_chaos(spec) -> Optional[ChaosSpec]:
    """Normalize a chaos argument: ``None`` | spec string | ``ChaosSpec``."""
    if spec is None:
        return None
    if isinstance(spec, ChaosSpec):
        return spec
    return ChaosSpec.parse(str(spec))
