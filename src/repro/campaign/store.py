"""Persistent, resumable result store for retraining campaigns.

A campaign's identity is a *fingerprint*: a SHA-256 digest over the preset,
the policy name, the resolved accuracy target and every job's (chip,
retraining amount).  The store lives in a content-addressed directory

    <base>/<policy>-<fingerprint[:16]>/
        manifest.json    # campaign metadata, written atomically
        results.jsonl    # one checksummed ChipRetrainingResult per line
        quarantine.jsonl # chips the supervisor gave up on (when any)

Results are appended (and fsynced) as chunks complete, so a killed campaign
loses at most the chunks that were in flight.  On restart, completed chips
are read back and skipped.

Integrity: every line carries a truncated SHA-256 checksum of its canonical
payload (``"checksum"`` key), so silent single-byte corruption — which the
pre-checksum reader happily parsed — is detected and the chip re-executed.
Unchecksummed lines written by older stores remain readable (the checksum is
simply absent); :meth:`CampaignStore.compact` rewrites them checksummed.
A torn trailing line from a mid-write kill is repaired (truncated back to
the last complete line) before the next append, and :meth:`CampaignStore.verify`
reports torn/corrupt/duplicate rows without modifying anything.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import os
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.reduce import ChipRetrainingResult
from repro.observability import metrics
from repro.utils.config import config_to_dict, fsync_directory, save_json
from repro.utils.logging import get_logger

logger = get_logger("campaign.store")

PathLike = Union[str, Path]

# Version 2: the Step-3 retraining seed became a population-shared FAT seed
# (previously derived per chip id), changing every recorded accuracy; bumping
# the version changes all fingerprints so pre-existing stores are never
# resumed against results computed under the old seed scheme.
# Version 3: training-mode BatchNorm switched to the fused analytic backward
# (and degenerate 1x1 im2col lowerings are now materialised C-contiguously),
# shifting last-bit training numerics for batch-norm models; old stores for
# such presets must not be resumed against the new trajectories.
# Version 4: campaigns became strategy-tagged (mitigation strategies as a
# first-class axis): every job's fingerprint payload now carries its
# mitigation strategy and every stored result records one, so a version-2/3
# store can never resume into (or be resumed by) a strategy-tagged campaign.
# Per-line checksums (added after version 4) are intentionally NOT a version
# bump: the recorded values are unchanged, old lines stay readable, and new
# lines only add a "checksum" key that old readers ignored.
STORE_FORMAT_VERSION = 4

#: Hex digits of SHA-256 kept per line — integrity, not cryptography.
CHECKSUM_HEX_DIGITS = 16
CHECKSUM_KEY = "checksum"


class CampaignStoreError(RuntimeError):
    """Raised when a store directory does not match the requested campaign,
    its manifest is corrupt, or an append could not be made durable."""


def campaign_fingerprint(
    preset: Any,
    policy_name: str,
    target_accuracy: float,
    jobs: Sequence[Any],
) -> str:
    """Content fingerprint of a campaign: preset + policy + per-chip work.

    Two campaigns share a fingerprint exactly when re-running one can safely
    reuse the other's per-chip results: the experiment inputs, the resolved
    accuracy target and every chip's fault map, retraining amount and
    mitigation strategy agree.  The compute backend stays out of the
    payload: the eager path (``None``) and the bit-identical ``"numpy"``
    replay record the same values, so stores resume under either.

    The digest is that of ``json.dumps(payload, sort_keys=True)`` over
    ``{"jobs": [...], "policy", "preset", "target_accuracy", "version"}``,
    but the text is fed to the hash one job at a time, so only one chip's
    serialized fault map is alive at once.  ``"jobs"`` sorts first, so the
    stream is the jobs array followed by the rest of the object.
    """
    digest = hashlib.sha256(b'{"jobs": [')
    for index, job in enumerate(jobs):
        if index:
            digest.update(b", ")
        digest.update(json.dumps(_job_fingerprint_payload(job), sort_keys=True).encode("utf-8"))
    rest = json.dumps(
        {
            "version": STORE_FORMAT_VERSION,
            "preset": config_to_dict(preset),
            "policy": str(policy_name),
            "target_accuracy": float(target_accuracy),
        },
        sort_keys=True,
    )
    digest.update(("], " + rest[1:]).encode("utf-8"))
    return digest.hexdigest()


def _job_fingerprint_payload(job: Any) -> Dict[str, Any]:
    return {"chip": job.chip.to_dict(), "epochs": job.epochs, "strategy": job.strategy}


def _line_checksum(canonical_payload: str) -> str:
    digest = hashlib.sha256(canonical_payload.encode("utf-8")).hexdigest()
    return digest[:CHECKSUM_HEX_DIGITS]


def encode_result_line(result: ChipRetrainingResult) -> str:
    """One checksummed JSONL line (no trailing newline) for a result."""
    row = result.to_dict()
    row[CHECKSUM_KEY] = _line_checksum(json.dumps(row, sort_keys=True))
    return json.dumps(row, sort_keys=True)


def decode_result_line(line: str) -> Tuple[Optional[ChipRetrainingResult], str]:
    """Parse one results line; returns ``(result, status)``.

    Status is ``"ok"`` (checksum verified), ``"legacy"`` (a pre-checksum
    line that parsed cleanly), ``"checksum-mismatch"`` (parsed but the
    recorded checksum does not match the payload — silent corruption) or
    ``"unparseable"`` (torn or garbage; ``result`` is ``None`` for the last
    two).
    """
    try:
        row = json.loads(line)
        if not isinstance(row, dict):
            raise ValueError("not a JSON object")
    except (ValueError, TypeError):
        return None, "unparseable"
    stored = row.pop(CHECKSUM_KEY, None)
    if stored is not None:
        expected = _line_checksum(json.dumps(row, sort_keys=True))
        if stored != expected:
            return None, "checksum-mismatch"
    try:
        result = ChipRetrainingResult.from_dict(row)
    except (ValueError, KeyError, TypeError):
        return None, "unparseable"
    return result, "ok" if stored is not None else "legacy"


@dataclasses.dataclass
class StoreVerification:
    """Outcome of :meth:`CampaignStore.verify` — what ``verify-store`` prints."""

    directory: Path
    total_lines: int = 0
    valid: int = 0
    legacy_unchecksummed: int = 0
    checksum_mismatches: List[int] = dataclasses.field(default_factory=list)
    unparseable: List[int] = dataclasses.field(default_factory=list)
    duplicates: Dict[str, int] = dataclasses.field(default_factory=dict)
    torn_tail: bool = False
    manifest_error: Optional[str] = None
    quarantined: int = 0

    @property
    def is_clean(self) -> bool:
        return not (
            self.checksum_mismatches
            or self.unparseable
            or self.duplicates
            or self.torn_tail
            or self.manifest_error
        )

    def describe(self) -> str:
        issues: List[str] = []
        if self.manifest_error:
            issues.append(f"corrupt manifest ({self.manifest_error})")
        if self.unparseable:
            issues.append(
                f"{len(self.unparseable)} unparseable line(s) at {self.unparseable}"
            )
        if self.checksum_mismatches:
            issues.append(
                f"{len(self.checksum_mismatches)} checksum mismatch(es) "
                f"at {self.checksum_mismatches}"
            )
        if self.duplicates:
            issues.append(
                "duplicate chip rows: "
                + ", ".join(f"{k} x{v}" for k, v in self.duplicates.items())
            )
        if self.torn_tail:
            issues.append("torn trailing write (file does not end in a newline)")
        status = "clean" if self.is_clean else "; ".join(issues)
        extras = []
        if self.legacy_unchecksummed:
            extras.append(f"{self.legacy_unchecksummed} legacy unchecksummed")
        if self.quarantined:
            extras.append(f"{self.quarantined} quarantined chip(s)")
        suffix = f" ({', '.join(extras)})" if extras else ""
        return (
            f"{self.directory}: {self.valid}/{self.total_lines} valid row(s), "
            f"{status}{suffix}"
        )


class CampaignStore:
    """JSONL-backed result store for one campaign directory."""

    MANIFEST_NAME = "manifest.json"
    RESULTS_NAME = "results.jsonl"
    QUARANTINE_NAME = "quarantine.jsonl"

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)

    # -- paths ------------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / self.MANIFEST_NAME

    @property
    def results_path(self) -> Path:
        return self.directory / self.RESULTS_NAME

    @property
    def quarantine_path(self) -> Path:
        return self.directory / self.QUARANTINE_NAME

    # -- creation ----------------------------------------------------------------

    @classmethod
    def open(
        cls,
        base_dir: PathLike,
        fingerprint: str,
        manifest: Dict[str, Any],
    ) -> "CampaignStore":
        """Open (or create) the content-addressed store for a fingerprint.

        A manifest that exists but cannot be parsed is only overwritten when
        the store holds no results; with a non-empty ``results.jsonl`` the
        corruption is surfaced as :class:`CampaignStoreError` instead —
        silently writing a fresh manifest over foreign results would let an
        unrelated campaign resume against them.
        """
        policy = str(manifest.get("policy", "campaign"))
        directory = Path(base_dir) / f"{policy}-{fingerprint[:16]}"
        store = cls(directory)
        store.directory.mkdir(parents=True, exist_ok=True)
        try:
            existing = store.read_manifest()
        except CampaignStoreError as error:
            if store.has_results():
                raise CampaignStoreError(
                    f"manifest of {store.directory} is unreadable but the store "
                    f"holds results; refusing to adopt them ({error})"
                ) from error
            logger.warning(
                "overwriting unreadable manifest of empty store %s (%s)",
                store.directory,
                error,
            )
            existing = None
        if existing is not None:
            stored = existing.get("fingerprint")
            if stored != fingerprint:
                raise CampaignStoreError(
                    f"store at {store.directory} belongs to campaign {stored!r}, "
                    f"not {fingerprint!r}"
                )
        else:
            payload = dict(manifest)
            payload["fingerprint"] = fingerprint
            payload["version"] = STORE_FORMAT_VERSION
            save_json(payload, store.manifest_path, atomic=True)
        return store

    def read_manifest(self) -> Optional[Dict[str, Any]]:
        """The manifest, ``None`` when absent.

        Raises :class:`CampaignStoreError` (with the parse error chained)
        when the file exists but cannot be read or parsed — distinguishing
        "no manifest yet" from "the manifest was destroyed".
        """
        if not self.manifest_path.exists():
            return None
        try:
            with self.manifest_path.open("r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise CampaignStoreError(
                f"manifest at {self.manifest_path} is unreadable: {error}"
            ) from error

    def has_results(self) -> bool:
        try:
            return self.results_path.stat().st_size > 0
        except OSError:
            return False

    # -- results ------------------------------------------------------------------

    def append(self, result: ChipRetrainingResult) -> None:
        """Durably append one chip result (flushed + fsynced per line)."""
        self.append_many([result])

    def _repair_torn_tail(self) -> None:
        """Truncate a torn trailing fragment back to the last complete line.

        A process killed (or a disk filled) mid-append leaves bytes with no
        trailing newline; appending straight after them would fuse the next
        result into one corrupt line, losing *both* rows.  Truncating to the
        last newline keeps every durable row and simply re-executes the torn
        chip.
        """
        try:
            size = self.results_path.stat().st_size
        except OSError:
            return
        if size == 0:
            return
        with self.results_path.open("rb") as handle:
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) == b"\n":
                return
            handle.seek(0)
            data = handle.read()
        keep = data.rfind(b"\n") + 1
        logger.warning(
            "repairing torn trailing write in %s (truncating %d byte(s))",
            self.results_path,
            size - keep,
        )
        os.truncate(self.results_path, keep)
        metrics.counter("store.torn_repairs").inc()

    def repair(self) -> None:
        """Repair recoverable damage in place (currently: the torn tail)."""
        self._repair_torn_tail()

    def append_many(self, results: Sequence[ChipRetrainingResult]) -> None:
        """Durably append a whole result group with a single flush + fsync.

        The group-result protocol of the campaign executor: a batched-FAT
        chunk's results land together, so a killed campaign either has the
        whole chunk on disk or re-runs it — and a chunk costs one fsync
        instead of one per chip.  A failed write (``ENOSPC``, I/O error) is
        rolled back to the pre-append offset and surfaced as
        :class:`CampaignStoreError` instead of leaving a half-flushed tail.
        """
        if not results:
            return
        self._repair_torn_tail()
        payload = "".join(encode_result_line(result) + "\n" for result in results)
        try:
            offset = self.results_path.stat().st_size
        except OSError:
            offset = 0
        try:
            with self.results_path.open("a", encoding="utf-8") as handle:
                handle.write(payload)
                handle.flush()
                with metrics.timer("store.fsync_seconds"):
                    os.fsync(handle.fileno())
        except OSError as error:
            # Roll the file back to its pre-append size so the half-flushed
            # group never masquerades as durable rows.
            try:
                os.truncate(self.results_path, offset)
            except OSError:  # pragma: no cover - rollback is best-effort
                logger.warning("could not roll back failed append to %s", self.results_path)
            reason = (
                "disk full" if error.errno == errno.ENOSPC else "I/O error"
            )
            raise CampaignStoreError(
                f"{reason} while appending {len(results)} result(s) to "
                f"{self.results_path}: {error}"
            ) from error
        metrics.counter("store.appends").inc()
        metrics.counter("store.results_appended").inc(len(results))

    def completed(self) -> "OrderedDict[str, ChipRetrainingResult]":
        """Results recorded so far, keyed by chip id (last write wins).

        Lines that fail to parse — e.g. a torn final line left by a killed
        process — and lines whose checksum does not match their payload are
        skipped with a warning, so a resumed campaign simply re-runs those
        chips.
        """
        results: "OrderedDict[str, ChipRetrainingResult]" = OrderedDict()
        if not self.results_path.exists():
            return results
        with self.results_path.open("r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                result, status = decode_result_line(line)
                if result is None:
                    metrics.counter("store.corrupt_lines").inc()
                    logger.warning(
                        "skipping %s line %d of %s",
                        "checksum-mismatched" if status == "checksum-mismatch" else "unreadable",
                        lineno,
                        self.results_path,
                    )
                    continue
                results[result.chip_id] = result
        return results

    def verify(self) -> StoreVerification:
        """Integrity report of the store: torn/corrupt/duplicate rows.

        Read-only — corruption that the pre-checksum reader would have
        silently accepted (a flipped digit in a parsed-fine JSON line) is
        reported here, not repaired.
        """
        report = StoreVerification(directory=self.directory)
        try:
            self.read_manifest()
        except CampaignStoreError as error:
            report.manifest_error = str(error.__cause__ or error)
        if self.results_path.exists():
            raw = self.results_path.read_bytes()
            report.torn_tail = bool(raw) and not raw.endswith(b"\n")
            seen: Dict[str, int] = {}
            for lineno, line in enumerate(raw.decode("utf-8", "replace").splitlines(), 1):
                if not line.strip():
                    continue
                report.total_lines += 1
                result, status = decode_result_line(line)
                if status == "checksum-mismatch":
                    report.checksum_mismatches.append(lineno)
                    continue
                if result is None:
                    report.unparseable.append(lineno)
                    continue
                report.valid += 1
                if status == "legacy":
                    report.legacy_unchecksummed += 1
                seen[result.chip_id] = seen.get(result.chip_id, 0) + 1
            report.duplicates = {k: v for k, v in seen.items() if v > 1}
        report.quarantined = sum(
            len(record.get("chip_ids") or []) or 1
            for record in self.read_quarantine()
        )
        return report

    def compact(self) -> "OrderedDict[str, ChipRetrainingResult]":
        """Rewrite the results file with only valid, deduplicated lines.

        Run before resuming: a torn trailing line left by a killed process
        has no newline, so appending straight after it would corrupt the next
        result.  Returns the results kept (as :meth:`completed` would read
        them), so a resume parses the file once.  The rewrite is made
        durable (file fsync + ``os.replace`` + directory fsync), so a
        compacted store survives a power cut immediately after resume.
        """
        results = self.completed()
        if not self.results_path.exists():
            return results
        tmp = self.results_path.with_name(self.results_path.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            for result in results.values():
                handle.write(encode_result_line(result) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.results_path)
        fsync_directory(self.results_path.parent)
        metrics.counter("store.compactions").inc()
        metrics.gauge("store.resumed_results").set(len(results))
        return results

    def clear_results(self) -> None:
        """Drop recorded results (the manifest is kept)."""
        if self.results_path.exists():
            self.results_path.unlink()

    # -- quarantine ----------------------------------------------------------------

    def write_quarantine(self, records: Sequence[Dict[str, Any]]) -> None:
        """Overwrite ``quarantine.jsonl`` with this run's failed chunks.

        The file always reflects the *latest* run: an empty record list
        removes it (a later resume that succeeds clears the quarantine).
        """
        if not records:
            if self.quarantine_path.exists():
                self.quarantine_path.unlink()
            return
        tmp = self.quarantine_path.with_name(self.quarantine_path.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.quarantine_path)
        fsync_directory(self.quarantine_path.parent)

    def read_quarantine(self) -> List[Dict[str, Any]]:
        """The quarantined-chunk records of the latest run (possibly empty)."""
        if not self.quarantine_path.exists():
            return []
        records: List[Dict[str, Any]] = []
        with self.quarantine_path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    logger.warning("skipping unreadable quarantine line in %s", self.quarantine_path)
        return records

    def __repr__(self) -> str:
        return f"CampaignStore({str(self.directory)!r})"


def discover_stores(path: PathLike) -> List[CampaignStore]:
    """Stores under ``path``: itself (if it holds results) or its children.

    Accepts either one store directory or a campaign base directory; used by
    ``repro-reduce verify-store`` to check everything below a path.
    """
    root = Path(path)
    if (root / CampaignStore.RESULTS_NAME).exists() or (
        root / CampaignStore.MANIFEST_NAME
    ).exists():
        return [CampaignStore(root)]
    if not root.is_dir():
        return []
    stores = [
        CampaignStore(child)
        for child in sorted(root.iterdir())
        if child.is_dir()
        and (
            (child / CampaignStore.RESULTS_NAME).exists()
            or (child / CampaignStore.MANIFEST_NAME).exists()
        )
    ]
    return stores
