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

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    ".chaos": ("ChaosError", "ChaosSpec", "resolve_chaos"),
    ".engine": ("CampaignEngine", "CampaignReport"),
    ".jobs": ("ChipJob", "build_jobs", "execute_job_chunk", "plan_job_chunks"),
    ".store": (
        "CampaignStore",
        "CampaignStoreError",
        "StoreVerification",
        "campaign_fingerprint",
        "discover_stores",
    ),
    ".supervisor": ("ChunkFailure", "ChunkLedger", "SupervisorConfig"),
    ".sweep": ("StrategySweepResult", "run_strategy_sweep"),
    ".scheduler": (
        "CampaignCoordinator",
        "SchedulerConfig",
        "SchedulerError",
        "WorkerRejected",
        "run_worker",
    ),
    ".transport": (
        "PROTOCOL_VERSION",
        "FrameDecoder",
        "FrameError",
        "HandshakeError",
        "TransportError",
        "find_free_port",
        "parse_address",
    ),
})
