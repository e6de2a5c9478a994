"""Tests for the parallel campaign engine, its store, and the disk cache."""

from __future__ import annotations

import dataclasses
import json
import os
import pickle

import pytest

from repro.accelerator import FaultMap
from repro.backends import BackendError
from repro.campaign import (
    CampaignEngine,
    CampaignStore,
    CampaignStoreError,
    ChipJob,
    build_jobs,
    campaign_fingerprint,
    execute_job_chunk,
    plan_job_chunks,
)
from repro.campaign import engine as engine_module
from repro.campaign.store import decode_result_line, discover_stores
from repro.cli import main
from repro.core.chips import Chip, ChipPopulation
from repro.core.selection import FixedEpochPolicy, RetrainingPolicy
from repro.experiments import ExperimentContext, fast_preset, smoke_preset
from repro.experiments.compare import run_compare
from repro.nn.serialization import state_dicts_equal
from tests.helpers import reference_retrain_chip, triaged_jobs


@pytest.fixture(scope="module")
def population(smoke_context):
    preset = smoke_context.preset
    return ChipPopulation.generate(
        count=4,
        rows=preset.array_rows,
        cols=preset.array_cols,
        fault_rates=(0.05, 0.25),
        seed=123,
    )


@pytest.fixture
def framework(smoke_context):
    return smoke_context.framework()


class TestChipJob:
    def test_jobs_are_picklable_and_json_round_trip(self, framework, population):
        jobs = build_jobs(framework, population, FixedEpochPolicy(0.25))
        assert [job.chip_id for job in jobs] == [chip.chip_id for chip in population]
        for job in jobs:
            assert pickle.loads(pickle.dumps(job)) == job
            assert ChipJob.from_dict(json.loads(json.dumps(job.to_dict()))) == job

    @pytest.mark.parametrize("fault_rate", [0.0, 0.3])
    def test_wire_round_trip_rebuilds_the_chip(self, fault_rate):
        chip = ChipPopulation.generate(1, 16, 16, fault_rates=fault_rate, seed=9)[0]
        job = ChipJob(
            chip=chip,
            epochs=0.5,
            target_accuracy=0.9,
            policy_name="p",
            accuracy_before=0.75,
            strategy="fap+fat",
        )
        decoded = ChipJob.from_dict(json.loads(json.dumps(job.to_dict())))
        assert decoded == job
        assert decoded.chip is not chip
        assert decoded.chip.fault_map.num_faulty == round(fault_rate * 256)
        assert not decoded.chip.fault_map.array.flags.writeable

    def test_execution_is_deterministic(self, framework, population):
        job = triaged_jobs(framework, population, FixedEpochPolicy(0.25))[0]
        [first] = execute_job_chunk(framework, [job])
        [second] = execute_job_chunk(framework, [job])
        assert first == second
        assert first.epochs_allocated == 0.25
        # A single-job chunk is a stacked run of one chip: it equals the
        # serial per-chip reference.
        assert first == reference_retrain_chip(framework, job.chip, job.epochs)

    def test_negative_epochs_rejected(self):
        with pytest.raises(ValueError):
            ChipJob(
                chip=Chip("c", FaultMap.none(2, 2)),
                epochs=-1.0,
                target_accuracy=0.9,
                policy_name="p",
            )

    def test_result_round_trips_through_dict(self, framework, population):
        job = triaged_jobs(framework, population, FixedEpochPolicy(0.25))[0]
        [result] = execute_job_chunk(framework, [job])
        restored = type(result).from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored == result


class TestPlanner:
    def _jobs(self, budgets):
        return [
            ChipJob(
                chip=Chip(f"chip-{i}", FaultMap.none(2, 2)),
                epochs=budget,
                target_accuracy=0.9,
                policy_name="p",
            )
            for i, budget in enumerate(budgets)
        ]

    def test_same_budget_groups_chunked_by_fat_batch(self):
        jobs = self._jobs([0.5, 0.5, 0.5, 0.5, 0.5])
        plan = plan_job_chunks(jobs, fat_batch=2)
        assert [len(chunk) for chunk in plan] == [2, 2, 1]
        assert [job.chip_id for chunk in plan for job in chunk] == [
            job.chip_id for job in jobs
        ]

    def test_zero_epoch_and_singleton_budgets_are_chunked_like_any_group(self):
        jobs = self._jobs([0.0, 0.0, 0.25, 0.5, 0.5])
        plan = plan_job_chunks(jobs, fat_batch=8)
        sizes = {tuple(job.chip_id for job in chunk): len(chunk) for chunk in plan}
        # Every budget group is one stacked chunk: the zero-epoch pair, the
        # lone 0.25 budget (a stack of one) and the 0.5 pair.
        assert sorted(sizes.values()) == [1, 2, 2]
        # no chip lost or duplicated
        planned = [job.chip_id for chunk in plan for job in chunk]
        assert sorted(planned) == sorted(job.chip_id for job in jobs)

    def test_plan_splits_large_groups_across_workers(self):
        # One 24-chip budget group at fat_batch=8 would be 3 chunks — too few
        # for 4 workers; worker-aware planning caps chunks at ceil(24/4)=6.
        jobs = self._jobs([0.5] * 24)
        plan = plan_job_chunks(jobs, fat_batch=8, workers=4)
        assert [len(chunk) for chunk in plan] == [6, 6, 6, 6]
        # More workers than jobs in a group degrades gracefully to per-job.
        small = plan_job_chunks(self._jobs([0.5] * 3), fat_batch=8, workers=8)
        assert [len(chunk) for chunk in small] == [1, 1, 1]
        with pytest.raises(ValueError):
            plan_job_chunks(jobs, fat_batch=8, workers=0)

    def test_fat_batch_one_disables_coalescing(self):
        jobs = self._jobs([0.5, 0.5, 0.5])
        plan = plan_job_chunks(jobs, fat_batch=1)
        assert [len(chunk) for chunk in plan] == [1, 1, 1]

    def test_planning_is_deterministic(self):
        jobs = self._jobs([0.5, 0.25, 0.5, 0.25, 0.5])
        first = plan_job_chunks(jobs, fat_batch=2)
        second = plan_job_chunks(jobs, fat_batch=2)
        assert first == second

    def test_invalid_fat_batch_rejected(self):
        with pytest.raises(ValueError):
            plan_job_chunks(self._jobs([0.5]), fat_batch=0)


class TestEngineEquivalence:
    def test_serial_and_parallel_runs_are_bit_identical(self, smoke_context, population):
        policy = FixedEpochPolicy(0.25)
        serial = CampaignEngine(smoke_context, jobs=1).run(population, policy)
        parallel = CampaignEngine(smoke_context, jobs=2).run(population, policy)
        assert serial.results == parallel.results
        assert serial.target_accuracy == parallel.target_accuracy
        assert [r.chip_id for r in parallel.results] == [c.chip_id for c in population]

    def test_engine_reduce_matches_reference_rows(self, smoke_context, population):
        engine = CampaignEngine(smoke_context, jobs=2)
        via_engine = engine.run_reduce(population, statistic="max")
        framework = smoke_context.framework()
        budgets = framework.select_retraining_amounts(population, "max")
        reference = [
            reference_retrain_chip(framework, chip, budgets[chip.chip_id])
            for chip in population
        ]
        assert via_engine.results == reference
        assert via_engine.policy_name == "reduce-max"

    def test_invalid_worker_counts_rejected(self, smoke_context):
        with pytest.raises(ValueError):
            CampaignEngine(smoke_context, jobs=0)


class TestStoreAndResume:
    def test_store_written_and_rerun_skips_all_chips(self, smoke_context, population, tmp_path):
        policy = FixedEpochPolicy(0.25)
        first = CampaignEngine(smoke_context, jobs=1, store_base=tmp_path)
        result = first.run(population, policy)
        report = first.last_report
        assert report.executed == len(population)
        assert report.skipped == 0
        assert report.store_dir is not None and report.store_dir.is_dir()
        lines = (report.store_dir / "results.jsonl").read_text().strip().splitlines()
        assert len(lines) == len(population)

        second = CampaignEngine(smoke_context, jobs=1, store_base=tmp_path)
        resumed = second.run(population, policy)
        assert second.last_report.executed == 0
        assert second.last_report.skipped == len(population)
        assert resumed.results == result.results

    def test_unknown_backend_rejected_before_any_store(
        self, smoke_context, population, tmp_path
    ):
        # The engine resolves its backend at construction, so a bad name
        # fails before a run can write a manifest; run_compare goes through
        # the same constructor.
        with pytest.raises(BackendError, match="unknown backend 'bogus'"):
            CampaignEngine(smoke_context, store_base=tmp_path, backend="bogus")
        with pytest.raises(BackendError, match="unknown backend 'bogus'"):
            run_compare(
                smoke_context, "fat", population=population,
                policy=FixedEpochPolicy(0.25), campaign_dir=tmp_path,
                backend="bogus",
            )
        assert list(tmp_path.iterdir()) == []

    def test_killed_then_resumed_campaign_completes_without_duplicates(
        self, smoke_context, population, tmp_path
    ):
        policy = FixedEpochPolicy(0.25)
        engine = CampaignEngine(smoke_context, jobs=1, store_base=tmp_path)
        full = engine.run(population, policy)
        results_path = engine.last_report.store_dir / "results.jsonl"

        # Simulate a kill after two chips, mid-write of the third: keep two
        # complete lines plus a torn trailing fragment.
        lines = results_path.read_text().splitlines()
        results_path.write_text("\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2])

        resumed_engine = CampaignEngine(smoke_context, jobs=2, store_base=tmp_path)
        resumed = resumed_engine.run(population, policy)
        assert resumed_engine.last_report.skipped == 2
        assert resumed_engine.last_report.executed == len(population) - 2
        assert resumed.results == full.results

        recorded = [
            json.loads(line)["chip_id"]
            for line in results_path.read_text().strip().splitlines()
        ]
        assert len(recorded) == len(set(recorded)) == len(population)

    def test_killed_mid_batched_chunk_resumes_under_jobs(
        self, smoke_context, population, tmp_path
    ):
        """Kill/resume at chunk granularity with --jobs N x batched groups.

        The store's group protocol appends a whole batched chunk per fsync;
        a kill mid-chunk leaves the previous chunks durable plus a torn
        fragment.  Resuming (again under --jobs N) must re-run exactly the
        unrecorded chips — no duplicates, no losses, bit-identical results.
        """
        policy = FixedEpochPolicy(0.25)
        engine = CampaignEngine(smoke_context, jobs=2, fat_batch=2, store_base=tmp_path)
        full = engine.run(population, policy)
        results_path = engine.last_report.store_dir / "results.jsonl"
        lines = results_path.read_text().splitlines()
        assert len(lines) == len(population)
        # Simulate a kill mid-way through the second batched chunk: the
        # first chunk's group append is durable, the next line is torn.
        results_path.write_text(
            "\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2]
        )

        resumed_engine = CampaignEngine(
            smoke_context, jobs=2, fat_batch=2, store_base=tmp_path
        )
        resumed = resumed_engine.run(population, policy)
        assert resumed_engine.last_report.skipped == 2
        assert resumed_engine.last_report.executed == len(population) - 2
        assert resumed.results == full.results
        recorded = [
            json.loads(line)["chip_id"]
            for line in results_path.read_text().strip().splitlines()
        ]
        assert len(recorded) == len(set(recorded)) == len(population)

    def test_resumed_plan_regroups_into_same_budget_groups(
        self, framework, population
    ):
        jobs = build_jobs(framework, population, FixedEpochPolicy(0.25))
        full_plan = plan_job_chunks(jobs, fat_batch=3)
        # Chips recorded before the kill drop out; the remaining jobs regroup
        # into the same budget groups (every chunk still single-budget, and
        # the set of budgets is unchanged), just with fewer members.
        pending = jobs[2:]
        resumed_plan = plan_job_chunks(pending, fat_batch=3)
        for chunk in full_plan + resumed_plan:
            assert len({job.epochs for job in chunk}) == 1
        assert {job.epochs for chunk in resumed_plan for job in chunk} == {
            job.epochs for job in pending
        }
        planned = [job.chip_id for chunk in resumed_plan for job in chunk]
        assert sorted(planned) == sorted(job.chip_id for job in pending)

    def test_append_many_is_one_durable_group(self, framework, population, tmp_path):
        jobs = triaged_jobs(framework, population, FixedEpochPolicy(0.0))
        results = execute_job_chunk(framework, jobs)
        store = CampaignStore.open(tmp_path, "d" * 64, manifest={"policy": "p"})
        store.append_many(results[:3])
        store.append_many([])  # no-op
        store.append_many(results[3:])
        recorded = store.completed()
        assert list(recorded) == [result.chip_id for result in results]
        assert list(recorded.values()) == results

    def test_no_resume_re_executes_everything(self, smoke_context, population, tmp_path):
        policy = FixedEpochPolicy(0.25)
        CampaignEngine(smoke_context, jobs=1, store_base=tmp_path).run(population, policy)
        engine = CampaignEngine(smoke_context, jobs=1, store_base=tmp_path, resume=False)
        engine.run(population, policy)
        assert engine.last_report.executed == len(population)

    def test_store_rejects_foreign_fingerprint(self, tmp_path):
        store = CampaignStore.open(tmp_path, "a" * 64, manifest={"policy": "p"})
        assert store.read_manifest()["fingerprint"] == "a" * 64
        # Same directory (first 16 chars collide) but a different campaign.
        colliding = "a" * 16 + "b" * 48
        with pytest.raises(CampaignStoreError):
            CampaignStore.open(tmp_path, colliding, manifest={"policy": "p"})

    def test_completed_skips_corrupt_lines(self, tmp_path):
        store = CampaignStore.open(tmp_path, "c" * 64, manifest={"policy": "p"})
        store.results_path.write_text('{"not a result": true}\n{torn')
        assert store.completed() == {}

    @pytest.mark.parametrize("old_version", [2, 3])
    def test_old_version_store_never_resumes_strategy_tagged_campaign(
        self, smoke_context, population, tmp_path, monkeypatch, old_version
    ):
        """A version-2/3 store (pre-strategy fingerprints) is invisible to a
        version-4 campaign: the format version is part of every fingerprint,
        so the old store's directory is never matched and every chip
        re-executes instead of resuming against old-numerics results."""
        import repro.campaign.store as store_module

        policy = FixedEpochPolicy(0.25)
        monkeypatch.setattr(store_module, "STORE_FORMAT_VERSION", old_version)
        old_engine = CampaignEngine(smoke_context, jobs=1, store_base=tmp_path)
        old_engine.run(population, policy)
        old_fingerprint = old_engine.last_report.fingerprint
        old_dir = old_engine.last_report.store_dir
        assert old_engine.last_report.executed == len(population)

        monkeypatch.undo()
        new_engine = CampaignEngine(smoke_context, jobs=1, store_base=tmp_path)
        new_engine.run(population, policy)
        # Nothing resumed: the strategy-tagged campaign owns a fresh store.
        assert new_engine.last_report.skipped == 0
        assert new_engine.last_report.executed == len(population)
        assert new_engine.last_report.fingerprint != old_fingerprint
        assert new_engine.last_report.store_dir != old_dir
        # Forcing a different campaign onto the old store's directory (same
        # policy, colliding 16-char prefix) is refused outright.
        colliding = old_fingerprint[:16] + "f" * (len(old_fingerprint) - 16)
        assert colliding != old_fingerprint
        with pytest.raises(CampaignStoreError):
            CampaignStore.open(tmp_path, colliding, manifest={"policy": policy.name})


class _CyclingPolicy(RetrainingPolicy):
    """Budgets cycled over the chips in population order, so budget groups
    interleave (smoke reduce policies give every chip the same budget)."""

    name = "cycling"

    def __init__(self, budgets):
        self.budgets = budgets

    def epochs_for_population(self, population):
        return {
            chip.chip_id: self.budgets[index % len(self.budgets)]
            for index, chip in enumerate(population)
        }


def _fig3_policies(framework, preset):
    return [framework.build_policy("max"), framework.build_policy("mean")] + [
        FixedEpochPolicy(budget) for budget in preset.fixed_policy_epochs
    ] + [_CyclingPolicy((0.5, 0.25, 0.5, 0.0))]


def _store_rows(store_base):
    return {
        store.read_manifest()["policy"]: store.results_path.read_bytes()
        for store in discover_stores(store_base)
    }


class TestSharedPolicyPass:
    """Several policies in one engine run: one Step-3 pass, one store each."""

    @pytest.fixture(scope="class")
    def fig3_population(self, smoke_context):
        preset = smoke_context.preset
        return ChipPopulation.generate(
            count=6,
            rows=preset.array_rows,
            cols=preset.array_cols,
            fault_rates=(0.05, 0.3),
            seed=77,
        )

    @pytest.fixture
    def policies(self, smoke_context):
        smoke_context.resilience_profile()
        return _fig3_policies(smoke_context.framework(), smoke_context.preset)

    def test_completed_policy_store_is_not_retrained(
        self, smoke_context, fig3_population, policies, tmp_path, monkeypatch
    ):
        alone = CampaignEngine(smoke_context, store_base=tmp_path).run(
            fig3_population, policies[0]
        )
        planned = []
        plan = engine_module.plan_job_chunks

        def recording_plan(jobs, *args, **kwargs):
            planned.extend(jobs)
            return plan(jobs, *args, **kwargs)

        monkeypatch.setattr(engine_module, "plan_job_chunks", recording_plan)
        engine = CampaignEngine(smoke_context, store_base=tmp_path)
        campaigns = engine.run(fig3_population, policies)
        monkeypatch.undo()

        assert {job.policy_name for job in planned} == {p.name for p in policies[1:]}
        reports = {report.policy_name: report for report in engine.last_reports}
        assert list(reports) == [policy.name for policy in policies]
        assert (reports["reduce-max"].executed, reports["reduce-max"].skipped) == (
            0, len(fig3_population),
        )
        for policy in policies[1:]:
            assert reports[policy.name].executed == len(fig3_population)
        assert engine.last_report is engine.last_reports[-1]
        fresh = CampaignEngine(smoke_context).run(fig3_population, policies)
        assert campaigns[0].results == alone.results
        for campaign, expected in zip(campaigns, fresh):
            assert campaign.policy_name == expected.policy_name
            assert campaign.results == expected.results
        stores = discover_stores(tmp_path)
        assert len(stores) == len(policies)
        assert all(store.verify().is_clean for store in stores)

        rerun = CampaignEngine(smoke_context, store_base=tmp_path)
        rerun.run(fig3_population, policies)
        assert all(report.executed == 0 for report in rerun.last_reports)

    def test_jobs2_commits_the_same_per_policy_rows(
        self, smoke_context, fig3_population, policies, tmp_path
    ):
        for jobs in (1, 2):
            CampaignEngine(
                smoke_context, jobs=jobs, fat_batch=2, store_base=tmp_path / f"jobs{jobs}"
            ).run(fig3_population, policies)
        serial = _store_rows(tmp_path / "jobs1")
        assert set(serial) == {policy.name for policy in policies}
        assert _store_rows(tmp_path / "jobs2") == serial

    def test_single_policy_store_keeps_same_budget_plan_order(
        self, smoke_context, fig3_population, policies, tmp_path
    ):
        policy = policies[-1]
        CampaignEngine(smoke_context, fat_batch=2, store_base=tmp_path).run(
            fig3_population, policy
        )
        [store] = discover_stores(tmp_path)
        recorded = [
            json.loads(line)["chip_id"]
            for line in store.results_path.read_text().splitlines()
        ]
        groups: dict = {}
        for job in build_jobs(smoke_context.framework(), fig3_population, policy):
            groups.setdefault(job.epochs, []).append(job.chip_id)
        assert len(groups) > 1
        assert recorded == [chip_id for group in groups.values() for chip_id in group]

    def test_duplicate_policy_names_rejected(self, smoke_context, fig3_population):
        with pytest.raises(ValueError, match="distinct"):
            CampaignEngine(smoke_context).run(
                fig3_population, [FixedEpochPolicy(0.25), FixedEpochPolicy(0.25)]
            )


class TestStoreIntegrity:
    """Checksummed lines, manifest corruption, ENOSPC and verify-store."""

    def _store_with_results(self, framework, population, tmp_path):
        jobs = triaged_jobs(framework, population, FixedEpochPolicy(0.0))
        results = execute_job_chunk(framework, jobs)
        store = CampaignStore.open(tmp_path, "e" * 64, manifest={"policy": "p"})
        store.append_many(results)
        return store, results

    def test_lines_are_checksummed_and_verify_clean(
        self, framework, population, tmp_path
    ):
        store, results = self._store_with_results(framework, population, tmp_path)
        for line in store.results_path.read_text().splitlines():
            assert '"checksum"' in line
            result, status = decode_result_line(line)
            assert status == "ok"
        report = store.verify()
        assert report.is_clean
        assert report.valid == len(results)
        assert report.legacy_unchecksummed == 0
        assert "clean" in report.describe()

    def test_silent_corruption_detected_and_chip_re_executed(
        self, framework, population, tmp_path
    ):
        """A flipped digit in a still-parseable line — which the pre-checksum
        reader accepted as a valid row — is now detected and skipped."""
        store, results = self._store_with_results(framework, population, tmp_path)
        lines = store.results_path.read_text().splitlines()
        row = json.loads(lines[0])
        row["accuracy_after"] = row["accuracy_after"] + 0.125  # silent bit-rot
        corrupted = json.dumps(row, sort_keys=True)
        assert json.loads(corrupted)  # the old reader would have taken it
        store.results_path.write_text("\n".join([corrupted] + lines[1:]) + "\n")

        assert decode_result_line(corrupted) == (None, "checksum-mismatch")
        completed = store.completed()
        assert results[0].chip_id not in completed
        assert len(completed) == len(results) - 1
        report = store.verify()
        assert not report.is_clean
        assert report.checksum_mismatches == [1]

    def test_legacy_unchecksummed_lines_remain_readable(
        self, framework, population, tmp_path
    ):
        store, results = self._store_with_results(framework, population, tmp_path)
        # Rewrite the store as a pre-checksum (v4) store would have left it.
        store.results_path.write_text(
            "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in results)
        )
        assert list(store.completed().values()) == results
        report = store.verify()
        assert report.is_clean
        assert report.legacy_unchecksummed == len(results)
        # compact() canonicalizes legacy lines to checksummed ones.
        assert len(store.compact()) == len(results)
        assert store.verify().legacy_unchecksummed == 0
        assert list(store.completed().values()) == results

    def test_torn_tail_repaired_before_next_append(
        self, framework, population, tmp_path
    ):
        store, results = self._store_with_results(framework, population, tmp_path)
        with store.results_path.open("a", encoding="utf-8") as handle:
            handle.write('{"chip_id": "torn-fragm')
        assert store.verify().torn_tail
        store.append(results[0])
        report = store.verify()
        assert not report.torn_tail
        assert report.is_clean or set(report.duplicates) == {results[0].chip_id}
        assert len(store.completed()) == len(results)

    def test_corrupt_manifest_with_results_refuses_open(
        self, framework, population, tmp_path
    ):
        store, _ = self._store_with_results(framework, population, tmp_path)
        store.manifest_path.write_text("{ not json")
        with pytest.raises(CampaignStoreError, match="refusing"):
            CampaignStore.open(tmp_path, "e" * 64, manifest={"policy": "p"})
        assert not store.verify().is_clean
        assert store.verify().manifest_error

    def test_corrupt_manifest_of_empty_store_is_overwritten(self, tmp_path):
        store = CampaignStore.open(tmp_path, "f" * 64, manifest={"policy": "p"})
        store.manifest_path.write_text("{ not json")
        reopened = CampaignStore.open(tmp_path, "f" * 64, manifest={"policy": "p"})
        assert reopened.read_manifest()["fingerprint"] == "f" * 64

    def test_failed_append_rolls_back_and_raises(
        self, framework, population, tmp_path, monkeypatch
    ):
        import errno

        store, results = self._store_with_results(framework, population, tmp_path)
        before = store.results_path.read_bytes()

        def no_space(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", no_space)
        with pytest.raises(CampaignStoreError, match="disk full"):
            store.append_many(results[:1])
        monkeypatch.undo()
        # The half-flushed group never masquerades as durable rows.
        assert store.results_path.read_bytes() == before
        assert list(store.completed().values()) == results

    def test_verify_store_cli_reports_corruption(
        self, framework, population, tmp_path, capsys
    ):
        store, _ = self._store_with_results(framework, population, tmp_path)
        assert main(["verify-store", str(tmp_path)]) == 0
        assert "all clean" in capsys.readouterr().out

        lines = store.results_path.read_text().splitlines()
        row = json.loads(lines[0])
        row["epochs_trained"] = 99.0
        store.results_path.write_text(
            "\n".join([json.dumps(row, sort_keys=True)] + lines[1:]) + "\n"
        )
        assert main(["verify-store", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "checksum mismatch" in out
        assert "INTEGRITY ISSUES FOUND" in out

    def test_verify_store_cli_without_stores(self, tmp_path, capsys):
        assert main(["verify-store", str(tmp_path / "nowhere")]) == 1
        assert "no campaign stores" in capsys.readouterr().out


class TestHeartbeat:
    def _capture(self):
        import logging

        class ListHandler(logging.Handler):
            def __init__(self):
                super().__init__(level=logging.INFO)
                self.messages = []

            def emit(self, record):
                self.messages.append(record.getMessage())

        return ListHandler()

    def test_heartbeat_logs_progress_and_throughput(self, smoke_context, population):
        import logging

        from repro.utils.logging import get_logger

        handler = self._capture()
        logger = get_logger("campaign.engine")
        previous_level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            engine = CampaignEngine(
                smoke_context, jobs=1, fat_batch=1, heartbeat_seconds=0.0
            )
            engine.run(population, FixedEpochPolicy(0.25))
        finally:
            logger.removeHandler(handler)
            logger.setLevel(previous_level)
        beats = [m for m in handler.messages if "heartbeat" in m]
        # heartbeat_seconds=0 fires after every chunk except the last one
        # (completion is covered by the final report line).
        assert len(beats) == len(population) - 1
        assert "chips/s" in beats[0]
        final = [m for m in handler.messages if "campaign finished" in m]
        assert final and "rate=" in final[0]

    def test_heartbeat_disabled(self, smoke_context, population):
        import logging

        from repro.utils.logging import get_logger

        handler = self._capture()
        logger = get_logger("campaign.engine")
        previous_level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            engine = CampaignEngine(smoke_context, jobs=1, heartbeat_seconds=None)
            engine.run(population, FixedEpochPolicy(0.0))
        finally:
            logger.removeHandler(handler)
            logger.setLevel(previous_level)
        assert not any("heartbeat" in m for m in handler.messages)

    def test_negative_heartbeat_rejected(self, smoke_context):
        with pytest.raises(ValueError):
            CampaignEngine(smoke_context, heartbeat_seconds=-1.0)


class TestFingerprint:
    def test_fingerprint_is_stable_and_input_sensitive(self, framework, population):
        preset = smoke_preset()
        jobs = build_jobs(framework, population, FixedEpochPolicy(0.25))
        base = campaign_fingerprint(preset, "fixed-0.25ep", 0.9, jobs)
        assert base == campaign_fingerprint(preset, "fixed-0.25ep", 0.9, jobs)
        assert base != campaign_fingerprint(preset, "fixed-0.5ep", 0.9, jobs)
        assert base != campaign_fingerprint(preset, "fixed-0.25ep", 0.91, jobs)
        other_jobs = build_jobs(framework, population, FixedEpochPolicy(0.5))
        assert base != campaign_fingerprint(preset, "fixed-0.25ep", 0.9, other_jobs)
        smaller = ChipPopulation(population.chips[:2])
        fewer_jobs = build_jobs(framework, smaller, FixedEpochPolicy(0.25))
        assert base != campaign_fingerprint(preset, "fixed-0.25ep", 0.9, fewer_jobs)


class TestGoldenFingerprint:
    """Digests of the one-shot ``json.dumps(payload, sort_keys=True)`` hash
    that predates the streaming one: stores written by it must resume."""

    GOLDEN = {
        "fat": "afcddad03eee381cc325b00d0f67680d4ba673816a4904268885b30a28cbad79",
        "fap+fat": "82f9cd67f281777b39ae290481d1300e91328238d0deb42af1b6c188d13eb411",
    }
    EMPTY = "6e7de6702ac0bdf75c635018e2587f8e5ecee2fcc7516b6fcfc65186afed6a4e"

    @staticmethod
    def _chips():
        return [Chip("clean", FaultMap.none(64, 64))] + list(
            ChipPopulation.generate(2, 64, 64, fault_rates=[0.05, 0.3], seed=2023)
        )

    @pytest.mark.parametrize("strategy", sorted(GOLDEN))
    def test_digest_matches_the_one_shot_payload(self, strategy):
        jobs = [
            ChipJob(
                chip=chip,
                epochs=epochs,
                target_accuracy=0.8734,
                policy_name="reduce-max",
                strategy=strategy,
            )
            for chip, epochs in zip(self._chips(), [0.0, 0.25, 1.5])
        ]
        digest = campaign_fingerprint(fast_preset(), "reduce-max", 0.8734, jobs)
        assert digest == self.GOLDEN[strategy]

    def test_digest_of_no_jobs(self):
        assert campaign_fingerprint(fast_preset(), "reduce-max", 0.8734, []) == self.EMPTY


class TestDiskCache:
    def _tiny_preset(self):
        preset = smoke_preset()
        preset.pretrain_epochs = 1.0
        return preset

    def test_cache_files_written_and_reloaded(self, tmp_path, monkeypatch):
        preset = self._tiny_preset()
        first = ExperimentContext.from_preset(preset, use_cache=False, disk_cache_dir=tmp_path)
        cached_files = sorted(p.name for p in tmp_path.iterdir())
        assert any(name.endswith(".npz") for name in cached_files)
        assert any(name.endswith(".json") for name in cached_files)

        # A second build must not pre-train: poison the Trainer to prove it.
        class _Boom:
            def __init__(self, *args, **kwargs):
                raise AssertionError("pre-training ran despite a warm disk cache")

        monkeypatch.setattr("repro.experiments.common.Trainer", _Boom)
        second = ExperimentContext.from_preset(preset, use_cache=False, disk_cache_dir=tmp_path)
        assert state_dicts_equal(first.pretrained_state, second.pretrained_state)
        assert second.clean_accuracy == first.clean_accuracy

    @pytest.mark.parametrize(
        "corruption",
        [b"garbage", b"PK\x03\x04truncated-zip"],
        ids=["not-a-zip", "torn-zip"],
    )
    def test_unreadable_cache_entry_falls_back_to_pretraining(self, tmp_path, corruption):
        preset = self._tiny_preset()
        first = ExperimentContext.from_preset(preset, use_cache=False, disk_cache_dir=tmp_path)
        for path in tmp_path.glob("*.npz"):
            path.write_bytes(corruption)
        second = ExperimentContext.from_preset(preset, use_cache=False, disk_cache_dir=tmp_path)
        assert state_dicts_equal(first.pretrained_state, second.pretrained_state)


class TestCampaignCli:
    def test_campaign_command_runs_and_resumes(self, capsys, tmp_path):
        base = [
            "campaign",
            "--preset",
            "smoke",
            "--chips",
            "3",
            "--policy",
            "fixed",
            "--fixed-epochs",
            "0.25",
            "--campaign-dir",
            str(tmp_path / "campaigns"),
            "--output",
            str(tmp_path / "campaign.json"),
        ]
        assert main(base + ["--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "fixed-0.25ep" in out
        assert "executed=3" in out
        payload = json.loads((tmp_path / "campaign.json").read_text())
        assert payload["figure"] == "campaign"
        assert payload["report"]["executed"] == 3
        assert len(payload["chips"]) == 3

        assert main(base) == 0
        out = capsys.readouterr().out
        assert "skipped=3" in out
        rerun = json.loads((tmp_path / "campaign.json").read_text())
        assert rerun["report"]["executed"] == 0
        assert rerun["chips"] == payload["chips"]

    def test_fig3_accepts_jobs_and_campaign_dir(self, capsys, tmp_path):
        args = [
            "fig3",
            "--preset",
            "smoke",
            "--chips",
            "2",
            "--jobs",
            "2",
            "--campaign-dir",
            str(tmp_path / "campaigns"),
        ]
        assert main(args) == 0
        assert "reduce-max" in capsys.readouterr().out
        stores = list((tmp_path / "campaigns").iterdir())
        # One store per policy: reduce-max, reduce-mean and the fixed budgets.
        assert len(stores) >= 3
        # Re-running resumes every policy from the stores.
        assert main(args) == 0
        assert "reduce-max" in capsys.readouterr().out

    def test_jobs_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["fig3", "--preset", "smoke", "--jobs", "0"])

    def test_engine_args_validated_before_context_build(self, capsys):
        """Bad engine-constructor args exit with a usage error (code 2), not
        a traceback from CampaignEngine.__init__ after pre-training."""
        for argv in (
            ["campaign", "--preset", "smoke", "--fat-batch", "0"],
            ["campaign", "--preset", "smoke", "--chips", "0"],
            ["campaign", "--preset", "smoke", "--fixed-epochs", "-1"],
            ["campaign", "--preset", "smoke", "--max-chunk-retries", "-1"],
            ["campaign", "--preset", "smoke", "--chunk-timeout", "0"],
            ["campaign", "--preset", "smoke", "--chaos", "kill"],
            ["campaign", "--preset", "smoke", "--chaos", "frobnicate=1"],
            ["campaign", "--preset", "smoke", "--chaos", "kill=many"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert "usage:" in err
