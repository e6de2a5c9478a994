"""Parallel campaign engine: sharded, resumable chip-population runs.

This package is the layer between the per-chip math of
:mod:`repro.core.reduce` and the figure runners: it freezes Step 2 decisions
into picklable per-chip jobs, executes them in chunks — in-process at
``--jobs 1``, otherwise on socket workers — with worker-death/hang recovery
and poison-chunk quarantine (one chunk ledger, see
:mod:`repro.campaign.supervisor`), and persists results to a checksummed,
content-addressed JSONL store that supports resuming interrupted campaigns
and verifying store integrity.  A deterministic chaos harness
(:mod:`repro.campaign.chaos`) exercises every recovery path from tests.

:mod:`repro.campaign.transport` frames JSON messages over TCP sockets with a
versioned hello handshake, and :mod:`repro.campaign.scheduler` serves plan
chunks to local *and* remote socket workers via work-stealing claims, so a
campaign scales past one host with the same recovery as on one.
"""

from repro.campaign.chaos import ChaosError, ChaosSpec, resolve_chaos
from repro.campaign.engine import CampaignEngine, CampaignReport
from repro.campaign.jobs import (
    ChipJob,
    build_jobs,
    execute_job_chunk,
    plan_job_chunks,
)
from repro.campaign.store import (
    CampaignStore,
    CampaignStoreError,
    StoreVerification,
    campaign_fingerprint,
    discover_stores,
)
from repro.campaign.scheduler import (
    CampaignCoordinator,
    SchedulerConfig,
    SchedulerError,
    WorkerRejected,
    run_worker,
)
from repro.campaign.supervisor import ChunkFailure, ChunkLedger, SupervisorConfig
from repro.campaign.sweep import StrategySweepResult, run_strategy_sweep
from repro.campaign.transport import (
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    HandshakeError,
    TransportError,
    find_free_port,
    parse_address,
)

__all__ = [
    "ChaosError",
    "ChaosSpec",
    "resolve_chaos",
    "CampaignEngine",
    "CampaignReport",
    "ChipJob",
    "build_jobs",
    "execute_job_chunk",
    "plan_job_chunks",
    "CampaignStore",
    "CampaignStoreError",
    "StoreVerification",
    "campaign_fingerprint",
    "discover_stores",
    "ChunkFailure",
    "ChunkLedger",
    "SupervisorConfig",
    "StrategySweepResult",
    "run_strategy_sweep",
    "CampaignCoordinator",
    "SchedulerConfig",
    "SchedulerError",
    "WorkerRejected",
    "run_worker",
    "PROTOCOL_VERSION",
    "FrameDecoder",
    "FrameError",
    "HandshakeError",
    "TransportError",
    "find_free_port",
    "parse_address",
]
