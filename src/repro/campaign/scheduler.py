"""Campaign scheduler: the coordinator that runs every multi-worker campaign.

The :class:`CampaignCoordinator` serves plan chunks (the
:func:`~repro.campaign.jobs.plan_job_chunks` output) to workers that joined
over TCP sockets, and :func:`run_worker` is the whole worker side — dial (or
accept), handshake, build the experiment context from the coordinator's
serialized preset, then pull chunks until shutdown.  It is the only
multi-process executor: ``--jobs N`` forks N local socket workers onto a
private loopback coordinator, and ``--listen``/``--workers`` campaigns add
remote workers to the same protocol.  Each chunk is one stack, sized by the
planner: a worker runs whatever chunk it claims through
:func:`~repro.campaign.jobs.execute_job_chunk` and knows no stack size of
its own.

Work-stealing claims
--------------------
Chunks are *pulled*, never pushed blindly: a worker sends a ``claim`` frame
whenever it is idle (after the campaign announcement and after every
result/error), and the coordinator answers the claim with the next ready
chunk.  A fast worker therefore claims more chunks and a slow worker fewer —
load balance falls out of the protocol with no rate estimation — and a
worker that dies mid-chunk simply stops claiming while its in-flight chunk
is reassigned.

Fault tolerance
---------------
All recovery decisions run through the shared
:class:`~repro.campaign.supervisor.ChunkLedger` — the same retry/backoff/
quarantine state machine the in-process executor uses.  A worker is *lost*
when its socket drops, a frame is malformed, its heartbeats go stale, or its
chunk outlives the (fixed or adaptive) deadline; the in-flight chunk is
failed into the ledger, which retries it on the next claiming worker or
quarantines it past the retry cap.  A lost *local* worker (one this
coordinator forked) is SIGKILLed if still alive and replaced by a fresh
fork, so a campaign never runs out of local workers.  Chaos faults travel
in the chunk frame: the coordinator plans them, the worker fires them.
Because every chunk commits through the parent's content-addressed store
and the retraining seed is population-shared, a re-executed chunk is
bit-identical no matter which host runs it — a distributed campaign resumes
and fingerprints exactly like a local one.

Observability
-------------
On ``campaign_end`` every worker ships its per-``(host, pid)`` trace shard
and metrics snapshot home over the same socket; the coordinator writes them
into the campaign's trace directory, so ``repro-reduce trace`` attributes
cross-host time with no shared filesystem.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import selectors
import shutil
import socket
import sys
import tempfile
import threading
import time
from pathlib import Path
from queue import Empty, Queue
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.backends import BackendError, resolve_backend
from repro.campaign.chaos import ChaosSchedule, inject_fault
from repro.campaign.jobs import ChipJob, execute_job_chunk
from repro.campaign.supervisor import (
    ChunkCommitSequencer,
    ChunkFailure,
    ChunkLedger,
    SupervisorConfig,
)
from repro.campaign.transport import (
    MSG_CAMPAIGN,
    MSG_CAMPAIGN_END,
    MSG_CHUNK,
    MSG_CLAIM,
    MSG_ERROR,
    MSG_HEARTBEAT,
    MSG_READY,
    MSG_REJECT,
    MSG_RESULT,
    MSG_SHARDS,
    MSG_SHUTDOWN,
    MSG_WELCOME,
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    HandshakeError,
    TransportError,
    format_address,
    recv_frame,
    send_frame,
    validate_hello,
    worker_hello,
)
from repro.core.results import ChipRetrainingResult
from repro.observability import metrics, trace
from repro.observability.tracer import read_shard
from repro.utils.config import config_from_dict, config_to_dict
from repro.utils.hostinfo import host_tag
from repro.utils.logging import get_logger

logger = get_logger("campaign.scheduler")


class SchedulerError(TransportError):
    """The coordinator cannot make progress (e.g. no worker ever joined)."""


class WorkerRejected(HandshakeError):
    """The coordinator rejected this worker's hello."""


def _start_method() -> str:
    # Fork is preferred where reliable (workers inherit the parent's context
    # cache for free), but macOS system frameworks are not fork-safe — the
    # reason CPython made spawn the macOS default — so fork is used on Linux
    # only.  Spawned workers rebuild their context, hitting the on-disk
    # pre-trained-state cache when one is configured.
    if sys.platform.startswith("linux") and "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


def _tune_socket(sock: socket.socket) -> None:
    """Send small frames at once: a ``claim`` right after a ``result`` would
    otherwise wait out Nagle's algorithm against the peer's delayed ACK."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _drop_socket(sock: socket.socket) -> None:
    """Shut the connection down, then release the descriptor.

    ``shutdown`` ends the connection itself, so the peer sees EOF even when
    a forked child still holds an inherited copy of this descriptor; a bare
    ``close`` would only drop this process's reference.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


@dataclasses.dataclass
class SchedulerConfig:
    """Transport-level knobs of the coordinator (and its worker client).

    The chunk retry/deadline policy is *not* here — that lives in
    :class:`~repro.campaign.supervisor.SupervisorConfig` and is shared with
    the in-process executor.  These knobs only govern the sockets: how often
    workers beat, when silence counts as death, how long handshakes and
    shard collection may take, and how long the coordinator waits for a
    first worker before declaring the campaign stuck.
    """

    heartbeat_interval: float = 5.0
    heartbeat_timeout: float = 60.0
    handshake_timeout: float = 60.0
    # Building a context on a cold worker can legitimately take minutes
    # (pre-training); the ready deadline is generous by default.
    ready_timeout: float = 3600.0
    shard_grace: float = 30.0
    no_worker_timeout: float = 600.0
    poll_interval: float = 0.05
    dial_retry_interval: float = 0.5
    dial_timeout: float = 60.0
    send_timeout: float = 30.0


class _WorkerLink:
    """Coordinator-side state of one ready (post-handshake) worker."""

    __slots__ = (
        "worker_id", "sock", "decoder", "host", "pid", "claimed",
        "chunk_index", "attempt", "dispatched_at", "last_seen",
        "shards_campaign",
    )

    def __init__(
        self, worker_id: int, sock: socket.socket, host: str, pid: int
    ) -> None:
        self.worker_id = worker_id
        self.sock = sock
        self.decoder = FrameDecoder()
        self.host = host
        self.pid = pid
        self.claimed = False
        self.chunk_index: Optional[int] = None
        self.attempt = 0
        self.dispatched_at = 0.0
        self.last_seen = time.monotonic()
        self.shards_campaign = -1

    @property
    def label(self) -> str:
        return f"{self.host}:{self.pid}"


class CampaignCoordinator:
    """Serve plan chunks to socket workers via work-stealing claims.

    The coordinator always listens (an ephemeral loopback port unless an
    explicit ``listen`` address is given) so local socket workers and
    late-joining remote workers can dial in at any time, and additionally
    dials every address in ``connect`` (the ``--workers host:port,…`` mode,
    where workers run ``repro-reduce worker --listen PORT``).  Handshakes
    run on background threads — a joining worker builds its context while
    the campaign is already executing — and ready workers are handed to the
    event loop through a queue.  :meth:`run_plan` runs the event loop on
    the *calling* thread, so the engine's ``record_chunk`` (store append +
    fsync) executes exactly where the in-process executor runs it.

    :meth:`ensure_local_workers` forks socket workers on this host that join
    over loopback; the coordinator owns their lifetime, replaces any it
    loses mid-campaign, and reaps them on :meth:`close`.  A coordinator with
    neither a ``listen`` address nor ``connect`` targets can only ever be
    served by those local workers, so it fails fast once they are all gone.
    """

    def __init__(
        self,
        preset,
        listen: Optional[Tuple[str, int]] = None,
        connect: Sequence[Tuple[str, int]] = (),
        backend: Optional[str] = None,
        supervisor_config: Optional[SupervisorConfig] = None,
        config: Optional[SchedulerConfig] = None,
        disk_cache_dir: Optional[str] = None,
    ) -> None:
        self.preset_name = str(preset.name)
        self._preset_dict = config_to_dict(preset)
        self.backend = backend
        self.supervisor_config = (
            supervisor_config if supervisor_config is not None else SupervisorConfig()
        )
        self.config = config if config is not None else SchedulerConfig()
        self._connect = [tuple(address) for address in connect]
        self._remote = listen is not None or bool(self._connect)
        self._disk_cache_dir = disk_cache_dir
        self._local: Dict[int, multiprocessing.process.BaseProcess] = {}
        self._chaos: Optional[ChaosSchedule] = None
        self._closed = False
        self._lock = threading.Lock()
        self._pending_handshakes = 0
        self._next_worker_id = 0
        self._campaign_seq = 0
        self._ready_queue: "Queue[_WorkerLink]" = Queue()
        self._links: Dict[int, _WorkerLink] = {}
        self._selector = selectors.DefaultSelector()
        self._sequencer: Optional[ChunkCommitSequencer] = None
        self._threads: List[threading.Thread] = []

        bind_address = listen if listen is not None else ("127.0.0.1", 0)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(bind_address)
        self._listener.listen(64)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        accept_thread = threading.Thread(
            target=self._accept_loop, name="campaign-accept", daemon=True
        )
        accept_thread.start()
        self._threads.append(accept_thread)
        for address in self._connect:
            dial_thread = threading.Thread(
                target=self._dial,
                args=(tuple(address),),
                name=f"campaign-dial-{format_address(address)}",
                daemon=True,
            )
            dial_thread.start()
            self._threads.append(dial_thread)
        logger.info(
            "coordinator listening on %s (dialing %d worker address(es))",
            format_address(self.address),
            len(self._connect),
        )

    # -- local workers -----------------------------------------------------------

    def ensure_local_workers(self, count: int) -> None:
        """Keep ``count`` forked local socket workers alive (idempotent).

        Dead workers are pruned and topped up, so a long-lived coordinator
        serving several sweep arms starts each arm at full strength.
        """
        for pid, process in list(self._local.items()):
            if not process.is_alive():
                process.join()
                del self._local[pid]
        missing = count - len(self._local)
        for _ in range(missing):
            self._fork_local_worker()
        if missing > 0:
            logger.info(
                "started %d local socket worker(s) joining %s",
                missing,
                format_address(self.address),
            )

    def _fork_local_worker(self) -> None:
        process = multiprocessing.get_context(_start_method()).Process(
            target=_local_worker_main,
            args=(("127.0.0.1", self.address[1]), self._disk_cache_dir),
            daemon=True,
            name="campaign-socket-worker",
        )
        process.start()
        self._local[process.pid] = process

    # -- join path (background threads) ---------------------------------------

    def worker_hint(self) -> int:
        """How many socket workers exist or are expected (for plan sizing)."""
        with self._lock:
            pending = self._pending_handshakes
        return max(
            len(self._links) + self._ready_queue.qsize() + pending,
            len(self._connect),
        )

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return  # listener closed
            self._begin_handshake(sock, f"{peer[0]}:{peer[1]}")

    def _dial(self, address: Tuple[str, int]) -> None:
        deadline = time.monotonic() + self.config.dial_timeout
        with self._lock:
            self._pending_handshakes += 1
        try:
            while not self._closed:
                try:
                    sock = socket.create_connection(address, timeout=5.0)
                except OSError:
                    if time.monotonic() >= deadline:
                        logger.warning(
                            "could not reach worker at %s within %.0fs",
                            format_address(address),
                            self.config.dial_timeout,
                        )
                        return
                    time.sleep(self.config.dial_retry_interval)
                    continue
                self._begin_handshake(sock, format_address(address), counted=True)
                return
        finally:
            with self._lock:
                self._pending_handshakes -= 1

    def _begin_handshake(
        self, sock: socket.socket, peer: str, counted: bool = False
    ) -> None:
        if not counted:
            with self._lock:
                self._pending_handshakes += 1
        thread = threading.Thread(
            target=self._handshake,
            args=(sock, peer, counted),
            name=f"campaign-handshake-{peer}",
            daemon=True,
        )
        thread.start()
        self._threads.append(thread)

    def _handshake(self, sock: socket.socket, peer: str, counted: bool) -> None:
        """Hello/welcome/ready exchange; hands ready links to the event loop."""
        try:
            try:
                _tune_socket(sock)
                sock.settimeout(self.config.handshake_timeout)
                hello = recv_frame(sock)
                if hello is None:
                    raise HandshakeError("peer closed before hello")
                reason = validate_hello(hello, self.preset_name)
                if reason is not None:
                    logger.warning("rejecting worker %s: %s", peer, reason)
                    send_frame(sock, {"type": MSG_REJECT, "reason": reason})
                    _drop_socket(sock)
                    return
                with self._lock:
                    worker_id = self._next_worker_id
                    self._next_worker_id += 1
                send_frame(
                    sock,
                    {
                        "type": MSG_WELCOME,
                        "protocol": PROTOCOL_VERSION,
                        "worker_id": worker_id,
                        "preset": self._preset_dict,
                        "preset_name": self.preset_name,
                        "backend": self.backend,
                        "trace": bool(trace.enabled),
                        "metrics": bool(metrics.enabled),
                        "heartbeat_interval": self.config.heartbeat_interval,
                    },
                )
                # The worker now builds its context (possibly minutes on a
                # cold cache); heartbeats may arrive before the ready frame.
                sock.settimeout(self.config.ready_timeout)
                while True:
                    message = recv_frame(sock)
                    if message is None:
                        raise HandshakeError("peer closed before ready")
                    if message.get("type") == MSG_HEARTBEAT:
                        continue
                    if message.get("type") == MSG_READY:
                        break
                    raise HandshakeError(
                        f"expected ready, got {message.get('type')!r}"
                    )
                if self._closed:
                    # close() already drained the ready queue; hang up so
                    # the worker exits instead of waiting to be reaped.
                    raise HandshakeError("coordinator closed during handshake")
                link = _WorkerLink(
                    worker_id,
                    sock,
                    host=str(hello.get("host", peer)),
                    pid=int(hello.get("pid", 0)),
                )
                sock.settimeout(self.config.send_timeout)
                logger.info(
                    "worker %d (%s) joined from %s", worker_id, link.label, peer
                )
                metrics.counter("campaign.workers_joined").inc()
                self._ready_queue.put(link)
            except (TransportError, OSError, ValueError) as error:
                logger.warning("handshake with %s failed: %s", peer, error)
                _drop_socket(sock)
        finally:
            if not counted:
                with self._lock:
                    self._pending_handshakes -= 1

    # -- event loop (caller thread) -------------------------------------------

    def run_plan(
        self,
        plan: Sequence[List[ChipJob]],
        record_chunk: Callable[[Sequence[Tuple[ChipJob, ChipRetrainingResult]]], None],
        strategy: Optional[str] = None,
        chaos: Optional[ChaosSchedule] = None,
    ) -> List[ChunkFailure]:
        """Execute one campaign plan over the joined workers.

        Blocks until every chunk is done or quarantined; returns the
        quarantine failures.  ``record_chunk`` receives each completed
        chunk's ``(job, result)`` pairs, in plan order.  ``chaos`` plans
        fault injection: each chunk frame carries the action planned for
        that attempt.
        """
        if self._closed:
            raise SchedulerError("coordinator is closed")
        ledger = ChunkLedger(plan, self.supervisor_config)
        self._chaos = chaos
        # One sequencer per campaign, owned by this (single-threaded) event
        # loop: chunks complete in claim order across workers, but the store
        # must commit them in plan order for serial byte-identity.
        self._sequencer = ChunkCommitSequencer(len(plan), record_chunk)
        self._campaign_seq += 1
        announcement = {
            "type": MSG_CAMPAIGN,
            "campaign_id": self._campaign_seq,
            "strategy": strategy,
        }
        now = time.monotonic()
        for link in list(self._links.values()):
            link.claimed = False
            link.chunk_index = None  # stale cross-campaign results are dropped
            self._send(link, announcement, ledger, now)
        last_progress = time.monotonic()
        while ledger.outstanding():
            if self._admit_ready(announcement, ledger):
                last_progress = time.monotonic()
            now = time.monotonic()
            self._dispatch(ledger, now)
            events = self._selector.select(timeout=self.config.poll_interval)
            now = time.monotonic()
            for key, _ in events:
                self._service(key.data, ledger, now)
            now = time.monotonic()
            self._check_health(ledger, now)
            with self._lock:
                pending = self._pending_handshakes
            if self._links or pending or not self._ready_queue.empty():
                last_progress = now
            elif not self._remote and not any(
                process.is_alive() for process in self._local.values()
            ):
                raise SchedulerError(
                    f"every local worker exited before joining, with "
                    f"{ledger.outstanding()} chunk(s) outstanding"
                )
            elif now - last_progress > self.config.no_worker_timeout:
                raise SchedulerError(
                    f"no workers available for {self.config.no_worker_timeout:.0f}s "
                    f"with {ledger.outstanding()} chunk(s) outstanding "
                    f"(listening on {format_address(self.address)})"
                )
        self._collect_shards(ledger)
        self._sequencer = None
        self._chaos = None
        return ledger.failures

    def _admit_ready(self, announcement: Dict[str, Any], ledger: ChunkLedger) -> bool:
        admitted = False
        while True:
            try:
                link = self._ready_queue.get_nowait()
            except Empty:
                return admitted
            self._links[link.worker_id] = link
            self._selector.register(link.sock, selectors.EVENT_READ, data=link)
            link.last_seen = time.monotonic()
            self._send(link, announcement, ledger, link.last_seen)
            admitted = True

    def _send(
        self,
        link: _WorkerLink,
        message: Dict[str, Any],
        ledger: Optional[ChunkLedger],
        now: float,
    ) -> bool:
        try:
            send_frame(link.sock, message)
            return True
        except (OSError, FrameError) as error:
            self._lose(link, f"send failed: {error}", ledger, now)
            return False

    def _dispatch(self, ledger: ChunkLedger, now: float) -> None:
        for link in list(self._links.values()):
            if not link.claimed or link.chunk_index is not None:
                continue
            state = ledger.ready_chunk(now)
            if state is None:
                return
            attempt = ledger.start(state)
            link.claimed = False
            link.chunk_index = state.index
            link.attempt = attempt
            link.dispatched_at = now
            message = {
                "type": MSG_CHUNK,
                "campaign_id": self._campaign_seq,
                "chunk_index": state.index,
                "attempt": attempt,
                "jobs": [job.to_dict() for job in state.chunk],
            }
            fault = (
                self._chaos.action_for(state.index, attempt)
                if self._chaos is not None
                else None
            )
            if fault is not None:
                message["chaos"] = {"action": fault, "hang_s": self._chaos.spec.hang_s}
            self._send(link, message, ledger, now)

    def _service(
        self,
        link: _WorkerLink,
        ledger: ChunkLedger,
        now: float,
    ) -> None:
        try:
            data = link.sock.recv(1 << 16)
        except socket.timeout:  # pragma: no cover - select said readable
            return
        except OSError as error:
            self._lose(link, f"recv failed: {error}", ledger, now)
            return
        if not data:
            self._lose(link, "disconnected", ledger, now)
            return
        try:
            messages = link.decoder.feed(data)
        except FrameError as error:
            self._lose(link, str(error), ledger, now)
            return
        link.last_seen = now
        for message in messages:
            if link.worker_id not in self._links:
                return  # lost while handling an earlier frame of this batch
            self._handle(link, message, ledger, now)

    def _handle(
        self,
        link: _WorkerLink,
        message: Dict[str, Any],
        ledger: ChunkLedger,
        now: float,
    ) -> None:
        kind = message.get("type")
        if kind == MSG_HEARTBEAT:
            return
        if kind == MSG_SHARDS:
            self._store_shards(link, message)
            return
        if message.get("campaign_id") != self._campaign_seq:
            # A slow worker finishing (or claiming after) a previous sweep
            # arm's chunk: that campaign already completed, drop the frame.
            logger.info(
                "dropping stale %s frame from worker %s (campaign %s)",
                kind,
                link.label,
                message.get("campaign_id"),
            )
            return
        if kind == MSG_CLAIM:
            link.claimed = True
            return
        if kind in (MSG_RESULT, MSG_ERROR):
            chunk_index = int(message.get("chunk_index", -1))
            if not 0 <= chunk_index < len(ledger.chunks):
                self._lose(link, f"invalid chunk index {chunk_index}", ledger, now)
                return
            if link.chunk_index == chunk_index:
                link.chunk_index = None
            state = ledger.chunks[chunk_index]
            if kind == MSG_RESULT:
                duration = now - link.dispatched_at
                if not ledger.complete(state, duration):
                    logger.info(
                        "dropping duplicate result for chunk %d from worker %s",
                        chunk_index,
                        link.label,
                    )
                    return
                results = [
                    ChipRetrainingResult.from_dict(row)
                    for row in message.get("results", [])
                ]
                if self._sequencer is not None:
                    self._sequencer.commit(chunk_index, list(zip(state.chunk, results)))
            elif state.status == "running":
                ledger.fail(state, str(message.get("error", "worker error")), now)
                if state.status == "quarantined" and self._sequencer is not None:
                    self._sequencer.skip(state.index)
            return
        logger.warning("unexpected %r frame from worker %s", kind, link.label)

    def _check_health(self, ledger: ChunkLedger, now: float) -> None:
        deadline = ledger.deadline_seconds()
        for link in list(self._links.values()):
            if now - link.last_seen > self.config.heartbeat_timeout:
                self._lose(link, "heartbeat timeout", ledger, now)
                continue
            if (
                link.chunk_index is not None
                and deadline is not None
                and now - link.dispatched_at > deadline
            ):
                metrics.counter("campaign.worker_hangs").inc()
                logger.warning(
                    "worker %s exceeded the %.1fs chunk deadline on chunk %s",
                    link.label,
                    deadline,
                    link.chunk_index,
                )
                self._lose(link, "hang", ledger, now)

    def _lose(
        self,
        link: _WorkerLink,
        cause: str,
        ledger: Optional[ChunkLedger],
        now: float,
    ) -> None:
        """Drop a worker; reassign its in-flight chunk through the ledger.

        A local worker is SIGKILLed if still alive (a hung one would
        otherwise linger) and, while chunks are outstanding, replaced.
        """
        if self._links.pop(link.worker_id, None) is None:
            return  # already lost
        try:
            self._selector.unregister(link.sock)
        except (KeyError, ValueError):
            pass
        _drop_socket(link.sock)
        metrics.counter("campaign.worker_deaths").inc()
        trace.instant(
            "campaign.worker_death",
            worker=link.label,
            pid=link.pid,
            cause=cause,
            chunk=link.chunk_index,
        )
        logger.warning(
            "worker %s lost (%s) while chunk %s was in flight",
            link.label,
            cause,
            link.chunk_index,
        )
        if link.chunk_index is not None and ledger is not None:
            state = ledger.chunks[link.chunk_index]
            if state.status == "running":
                ledger.fail(state, f"worker lost ({cause})", now)
                if state.status == "quarantined" and self._sequencer is not None:
                    self._sequencer.skip(state.index)
        link.chunk_index = None
        process = self._local.pop(link.pid, None) if link.host == host_tag() else None
        if process is not None:
            if process.is_alive():
                process.kill()
            process.join()
            if ledger is not None and ledger.outstanding():
                metrics.counter("campaign.workers_respawned").inc()
                self._fork_local_worker()

    # -- shard collection ------------------------------------------------------

    def _collect_shards(self, ledger: ChunkLedger) -> None:
        """Announce campaign end and gather per-worker trace/metric shards."""
        now = time.monotonic()
        for link in list(self._links.values()):
            self._send(
                link,
                {"type": MSG_CAMPAIGN_END, "campaign_id": self._campaign_seq},
                ledger,
                now,
            )
        deadline = time.monotonic() + self.config.shard_grace
        while time.monotonic() < deadline:
            waiting = [
                link
                for link in self._links.values()
                if link.shards_campaign < self._campaign_seq
            ]
            if not waiting:
                return
            events = self._selector.select(timeout=self.config.poll_interval)
            now = time.monotonic()
            for key, _ in events:
                self._service(key.data, ledger, now)
        if any(
            link.shards_campaign < self._campaign_seq
            for link in self._links.values()
        ):  # pragma: no cover - slow-shard stragglers
            logger.warning("shard collection timed out; trace may be partial")

    def _store_shards(self, link: _WorkerLink, message: Dict[str, Any]) -> None:
        link.shards_campaign = self._campaign_seq
        directory = trace.directory if trace.enabled else None
        if directory is None:
            return
        host = str(message.get("host", link.host))
        pid = int(message.get("pid", link.pid))
        events = message.get("trace_events") or []
        if events:
            import json

            shard = Path(directory) / f"trace-{host}-{pid}.jsonl"
            with shard.open("w", encoding="utf-8") as handle:
                for event in events:
                    handle.write(json.dumps(event, sort_keys=True) + "\n")
        payload = message.get("metrics")
        if payload:
            from repro.utils.config import save_json

            save_json(
                payload, Path(directory) / f"metrics-{host}-{pid}.json", atomic=True
            )
        logger.info(
            "collected %d trace event(s) from worker %s", len(events), link.label
        )

    # -- shutdown --------------------------------------------------------------

    def close(self) -> None:
        """Broadcast shutdown, release every socket, reap local workers
        (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._listener.close()
        except OSError:
            pass
        # Drain late joiners so their sockets are not leaked.
        while True:
            try:
                self._links.setdefault(
                    -len(self._links) - 1, self._ready_queue.get_nowait()
                )
            except Empty:
                break
        for link in list(self._links.values()):
            try:
                send_frame(link.sock, {"type": MSG_SHUTDOWN})
            except (OSError, FrameError):
                pass
            try:
                self._selector.unregister(link.sock)
            except (KeyError, ValueError):
                pass
            _drop_socket(link.sock)
        self._links.clear()
        try:
            self._selector.close()
        except (OSError, RuntimeError):  # pragma: no cover
            pass
        for process in self._local.values():
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - busy past shutdown
                process.kill()
                process.join()
        self._local.clear()


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _connect_with_retry(
    address: Tuple[str, int], timeout: float, retry_interval: float = 0.5
) -> socket.socket:
    """Dial the coordinator, retrying until ``timeout`` (it may not be up yet)."""
    deadline = time.monotonic() + max(timeout, 0.0)
    while True:
        try:
            sock = socket.create_connection(address, timeout=10.0)
            _tune_socket(sock)
            return sock
        except OSError as error:
            if time.monotonic() >= deadline:
                raise HandshakeError(
                    f"could not reach coordinator at {format_address(address)} "
                    f"within {timeout:.0f}s: {error}"
                ) from error
            time.sleep(retry_interval)


def _accept_one(address: Tuple[str, int], timeout: Optional[float]) -> socket.socket:
    """Reverse mode: listen and wait for the coordinator to dial in."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        listener.bind(address)
        listener.listen(1)
        listener.settimeout(timeout)
        logger.info(
            "worker listening for a coordinator on %s",
            format_address(listener.getsockname()[:2]),
        )
        try:
            sock, _peer = listener.accept()
        except socket.timeout:
            raise HandshakeError(
                f"no coordinator dialed {format_address(address)} within {timeout:.0f}s"
            ) from None
        _tune_socket(sock)
        return sock
    finally:
        listener.close()


def _shards_frame() -> Dict[str, Any]:
    """This worker's trace shard + metrics snapshot, ready to ship home."""
    frame: Dict[str, Any] = {
        "type": MSG_SHARDS,
        "host": host_tag(),
        "pid": os.getpid(),
    }
    if trace.enabled and trace.directory is not None:
        trace.flush()
        shard = trace.shard_path()
        if shard is not None and shard.exists():
            frame["trace_events"] = read_shard(shard)
    if metrics.enabled:
        frame["metrics"] = metrics.shard_payload()
    return frame


def run_worker(
    join: Optional[Tuple[str, int]] = None,
    listen: Optional[Tuple[str, int]] = None,
    cache_dir: Optional[str] = None,
    expect_preset: Optional[str] = None,
    connect_timeout: float = 60.0,
    heartbeat_interval: Optional[float] = None,
    max_chunks: Optional[int] = None,
) -> int:
    """Join a campaign as a socket worker; returns the chunks executed.

    Exactly one of ``join`` (dial the coordinator) and ``listen`` (wait for
    the coordinator to dial, the ``--workers`` mode) must be given.  The
    worker adopts the coordinator's preset and execution knobs from the
    welcome frame — ``expect_preset`` optionally pins the preset name so a
    mis-join fails loudly — then pulls chunks until campaign shutdown or
    disconnect.  ``max_chunks`` is a test/chaos hook: after executing that
    many chunks the worker drops its socket abruptly, exactly like a
    SIGKILLed process.
    """
    if (join is None) == (listen is None):
        raise ValueError("exactly one of join= and listen= is required")
    from repro.experiments.common import ExperimentContext
    from repro.experiments.presets import ExperimentPreset

    if join is not None:
        sock = _connect_with_retry(join, connect_timeout)
    else:
        sock = _accept_one(listen, connect_timeout if connect_timeout > 0 else None)
    send_lock = threading.Lock()
    stop = threading.Event()
    executed = 0
    trace_dir: Optional[str] = None
    try:
        sock.settimeout(60.0)
        send_frame(
            sock,
            worker_hello(host=host_tag(), pid=os.getpid(), expect_preset=expect_preset),
            lock=send_lock,
        )
        welcome = recv_frame(sock)
        if welcome is None:
            raise HandshakeError("coordinator closed before welcome")
        if welcome.get("type") == MSG_REJECT:
            raise WorkerRejected(str(welcome.get("reason", "rejected")))
        if welcome.get("type") != MSG_WELCOME:
            raise HandshakeError(f"expected welcome, got {welcome.get('type')!r}")
        if welcome.get("protocol") != PROTOCOL_VERSION:
            raise HandshakeError(
                f"coordinator speaks protocol {welcome.get('protocol')!r}, "
                f"worker speaks {PROTOCOL_VERSION}"
            )
        # The welcome comes from outside this process: an unknown backend is
        # a failed handshake, which every caller of run_worker handles.
        backend = welcome.get("backend")
        try:
            resolve_backend(backend)
        except BackendError as error:
            raise HandshakeError(
                f"coordinator pinned an unusable backend: {error}"
            ) from None

        # Observability: a fork-started local worker inherits the parent's
        # enabled tracer/metrics — shards must only report work done *in*
        # this process, recorded in a private directory that ships home over
        # the socket at campaign end.
        if welcome.get("trace"):
            trace_dir = tempfile.mkdtemp(prefix="repro-worker-trace-")
            trace.enable(trace_dir)
        else:
            trace.disable()
        metrics.enabled = bool(welcome.get("metrics"))
        metrics.reset()

        preset = config_from_dict(ExperimentPreset, welcome["preset"])
        logger.info(
            "worker %s building context for preset %r",
            host_tag(),
            preset.name,
        )
        # The campaign's store fingerprint hashes the preset config: because
        # config round-trips exactly, a remote context is the same experiment.
        context = ExperimentContext.from_preset(preset, disk_cache_dir=cache_dir)
        context.eval_pipeline.backend = backend
        framework = context.framework()
        send_frame(sock, {"type": MSG_READY}, lock=send_lock)
        sock.settimeout(None)

        interval = float(
            heartbeat_interval
            if heartbeat_interval is not None
            else welcome.get("heartbeat_interval", 5.0)
        )

        def beat() -> None:
            while not stop.wait(interval):
                try:
                    send_frame(sock, {"type": MSG_HEARTBEAT}, lock=send_lock)
                except (OSError, FrameError):
                    return

        threading.Thread(target=beat, name="campaign-heartbeat", daemon=True).start()

        campaign: Optional[Dict[str, Any]] = None
        while True:
            try:
                message = recv_frame(sock)
            except (FrameError, OSError) as error:
                logger.warning("worker link dropped: %s", error)
                break
            if message is None or message.get("type") == MSG_SHUTDOWN:
                break
            kind = message.get("type")
            if kind == MSG_CAMPAIGN:
                campaign = message
                send_frame(
                    sock,
                    {"type": MSG_CLAIM, "campaign_id": message.get("campaign_id")},
                    lock=send_lock,
                )
            elif kind == MSG_CHUNK:
                fault = message.get("chaos")
                try:
                    # A chunk that does not parse (a missing key, negative
                    # epochs, an out-of-range fault coordinate) or whose jobs
                    # carry no accuracy_before fails like any execution
                    # error: the chunk, not the worker.
                    attempt = int(message.get("attempt", 0))
                    jobs = [ChipJob.from_dict(job) for job in message.get("jobs", [])]
                    if fault:
                        inject_fault(
                            str(fault["action"]),
                            int(message.get("chunk_index", -1)),
                            attempt,
                            float(fault["hang_s"]),
                        )
                    results = execute_job_chunk(framework, jobs, attempt=attempt)
                except Exception as error:  # noqa: BLE001 - ships to the ledger
                    reply = {
                        "type": MSG_ERROR,
                        "campaign_id": message.get("campaign_id"),
                        "chunk_index": message.get("chunk_index"),
                        "error": repr(error),
                    }
                else:
                    executed += 1
                    reply = {
                        "type": MSG_RESULT,
                        "campaign_id": message.get("campaign_id"),
                        "chunk_index": message.get("chunk_index"),
                        "results": [result.to_dict() for result in results],
                    }
                send_frame(sock, reply, lock=send_lock)
                if max_chunks is not None and executed >= max_chunks:
                    logger.warning(
                        "worker reached max_chunks=%d; dropping the link", max_chunks
                    )
                    return executed
                claim_id = (
                    campaign.get("campaign_id")
                    if campaign
                    else message.get("campaign_id")
                )
                send_frame(
                    sock,
                    {"type": MSG_CLAIM, "campaign_id": claim_id},
                    lock=send_lock,
                )
            elif kind == MSG_CAMPAIGN_END:
                send_frame(sock, _shards_frame(), lock=send_lock)
            # heartbeats and unknown frames are ignored
        return executed
    finally:
        stop.set()
        _drop_socket(sock)
        if trace_dir is not None:
            trace.disable()
            shutil.rmtree(trace_dir, ignore_errors=True)


def _local_worker_main(
    address: Tuple[str, int], cache_dir: Optional[str]
) -> None:  # pragma: no cover - runs in a child process
    """Entry point of a coordinator-forked local socket worker process."""
    try:
        run_worker(join=tuple(address), cache_dir=cache_dir, connect_timeout=60.0)
    except TransportError as error:
        logger.warning("local socket worker exiting: %s", error)
