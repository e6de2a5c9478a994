"""Tests for the mitigation-strategy subsystem and multi-strategy sweeps.

Covers the strategy algebra (parsing, mask construction, bypass feasibility,
budget clamping), the keep-multiplier enforcement path shared with the
trainers, the strategy-aware framework/campaign plumbing, the sweep driver
with shared triage, and the ``repro-reduce compare`` experiment + CLI.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.accelerator import FaultMap, model_fault_masks
from repro.campaign import (
    CampaignEngine,
    ChipJob,
    build_jobs,
    execute_job_chunk,
    plan_job_chunks,
    run_strategy_sweep,
)
from repro.cli import STRATEGY_NAMES, main
from repro.core.chips import Chip, ChipPopulation
from repro.core.selection import FixedEpochPolicy
from repro.experiments import run_compare
from repro.mitigation import (
    parse_strategy,
    parse_strategy_list,
    resolve_strategy,
)
from repro.mitigation.fam import compute_column_permutations
from repro.training import evaluate_accuracy
from tests.helpers import (
    reference_retrain_chip,
    resolve_masked_parameters,
    verify_masks_enforced,
)


def _infeasible_map(rows=16, cols=16):
    """Every row and column contains a fault: bypass cannot apply."""
    return FaultMap.from_indices(rows, cols, [(i, i) for i in range(min(rows, cols))])


def _row(result, strategy):
    """The ``run_compare`` summary row of one strategy."""
    return next(row for row in result.rows if row["strategy"] == strategy)


def _feasible_map(rows=16, cols=16, seed=3):
    """A sparse map with at least one fault but fault-free columns left."""
    return FaultMap.from_indices(rows, cols, [(1, 2), (5, 2), (7, 9)])


@pytest.fixture(scope="module")
def strategy_population(smoke_context):
    preset = smoke_context.preset
    return ChipPopulation.generate(
        count=4,
        rows=preset.array_rows,
        cols=preset.array_cols,
        fault_rates=(0.05, 0.25),
        seed=77,
    )


class TestParsing:
    def test_component_flags(self):
        fat = parse_strategy("fat")
        assert fat.prune and fat.retrain and not fat.remap and not fat.bypass
        fap = parse_strategy("fap")
        assert fap.prune and not fap.retrain
        fam = parse_strategy("fam+fat")
        assert fam.prune and fam.remap and fam.retrain
        bypass = parse_strategy("bypass+fat")
        assert bypass.bypass and bypass.retrain and not bypass.prune
        none = parse_strategy("none")
        assert not (none.prune or none.remap or none.bypass or none.retrain)

    def test_normalisation_and_identity(self):
        assert parse_strategy(" FAP+FAT ").name == "fap+fat"
        # Component order is canonicalised: the spelling must not change the
        # strategy's identity (fingerprint, store, sweep key).
        assert parse_strategy("fat+fap").name == "fap+fat"
        assert parse_strategy("fat+bypass").name == "bypass+fat"
        with pytest.raises(ValueError):
            parse_strategy_list("fap+fat,fat+fap")  # same strategy twice
        # fat and fap+fat are distinct sweepable identities with identical
        # per-chip behaviour in this substrate.
        assert parse_strategy("fat").name != parse_strategy("fap+fat").name

    @pytest.mark.parametrize(
        "bad",
        ["", "fap+", "none+fat", "bypass+fap", "bypass+fam", "fam+fap", "fat+fat", "xyz"],
    )
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_strategy(bad)

    def test_resolve_defaults_to_fat(self):
        assert resolve_strategy(None).name == "fat"
        strategy = parse_strategy("fam")
        assert resolve_strategy(strategy) is strategy
        assert resolve_strategy("bypass").bypass

    def test_parse_list(self):
        strategies = parse_strategy_list("fat, fap+fat ,bypass")
        assert [s.name for s in strategies] == ["fat", "fap+fat", "bypass"]
        with pytest.raises(ValueError):
            parse_strategy_list("fat,fat")
        with pytest.raises(ValueError):
            parse_strategy_list("")

    def test_fam_metric_suffix_is_part_of_identity(self):
        squared = parse_strategy("fam:l2+fat")
        assert squared.name == "fam:squared+fat"
        assert squared.saliency_metric == "squared"
        assert squared.triage_key == "fam:squared"
        # Metric aliases collapse; the default metric leaves no suffix.
        assert parse_strategy("fat+fam:l1").name == "fam+fat"
        assert parse_strategy("fam:magnitude").name == "fam"
        # Distinct metrics are distinct sweepable campaigns.
        assert squared.name != parse_strategy("fam+fat").name
        for bad in ("fam:taylor", "fap:l2", "fat:l2"):
            with pytest.raises(ValueError):
                parse_strategy(bad)

    def test_all_advertised_strategies_parse(self):
        for name in STRATEGY_NAMES:
            assert parse_strategy(name).name == name

    def test_triage_keys_shared_across_same_mask_strategies(self):
        assert parse_strategy("fat").triage_key == parse_strategy("bypass").triage_key
        assert parse_strategy("fam").triage_key == parse_strategy("fam+fat").triage_key
        assert parse_strategy("fat").triage_key != parse_strategy("fam+fat").triage_key


class TestMasksAndBypass:
    def test_fat_masks_match_plain_fault_masks(self, small_mlp):
        fault_map = FaultMap.random(16, 16, 0.2, seed=0)
        masks = parse_strategy("fat").chip_masks(small_mlp, fault_map)
        expected = model_fault_masks(small_mlp, fault_map)
        assert set(masks) == set(expected)
        for name in masks:
            np.testing.assert_array_equal(masks[name], expected[name])

    def test_fam_masks_use_saliency_permutations(self, small_mlp):
        fault_map = FaultMap.random(16, 16, 0.2, seed=1)
        masks = parse_strategy("fam+fat").chip_masks(small_mlp, fault_map)
        permutations = compute_column_permutations(small_mlp, fault_map)
        expected = model_fault_masks(small_mlp, fault_map, permutations)
        for name in expected:
            np.testing.assert_array_equal(masks[name], expected[name])

    def test_bypass_plan_feasibility(self):
        bypass = parse_strategy("bypass")
        assert bypass.bypass_plan(_feasible_map()) is not None
        assert bypass.bypass_plan(_infeasible_map()) is None
        # Non-bypass strategies never have a plan.
        assert parse_strategy("fat").bypass_plan(_feasible_map()) is None

    def test_effective_epochs(self):
        assert parse_strategy("fap").effective_epochs(2.0, _feasible_map()) == 0.0
        assert parse_strategy("fat").effective_epochs(2.0, _feasible_map()) == 2.0
        hybrid = parse_strategy("bypass+fat")
        assert hybrid.effective_epochs(2.0, _feasible_map()) == 0.0
        assert hybrid.effective_epochs(2.0, _infeasible_map()) == 2.0
        with pytest.raises(ValueError):
            hybrid.effective_epochs(-1.0, _feasible_map())


class TestFapEnforcementPath:
    """A chip's FAP masks stay enforced through the stacked trainer."""

    def test_verify_rejects_shape_mismatch(self, small_mlp):
        assert not verify_masks_enforced(
            small_mlp, {"body.0": np.zeros((1, 1), dtype=bool)}
        )

    def test_masks_stay_enforced_through_retraining(self, image_bundle, small_mlp):
        """No drift between the stack's construction-time pruning and its
        enforcement during FAT."""
        from repro.accelerator import BatchedFaultTrainer
        from repro.training import TrainingConfig

        masks = parse_strategy("fap").chip_masks(
            small_mlp, FaultMap.random(16, 16, 0.25, seed=7)
        )
        trainer = BatchedFaultTrainer(
            small_mlp,
            [masks],
            image_bundle.train,
            image_bundle.test,
            config=TrainingConfig(learning_rate=0.05, batch_size=16, seed=0),
        )
        trainer.train(0.5, include_initial=False)
        small_mlp.load_state_dict(trainer.chip_state_dict(0))
        assert verify_masks_enforced(small_mlp, masks)


class TestFrameworkStrategies:
    def test_fap_strategy_spends_no_epochs(self, smoke_context, strategy_population):
        framework = smoke_context.framework()
        chip = strategy_population[0]
        result = reference_retrain_chip(framework, chip, 1.0, strategy="fap")
        assert result.strategy == "fap"
        assert result.epochs_trained == 0.0
        assert result.accuracy_after == result.accuracy_before
        triage = framework.triage_population([chip], strategy="fap")
        assert result.accuracy_before == triage[chip.chip_id]

    def test_bypass_feasible_chip_keeps_clean_accuracy(self, smoke_context):
        framework = smoke_context.framework()
        chip = Chip(chip_id="sparse", fault_map=_feasible_map())
        result = reference_retrain_chip(framework, chip, 1.0, strategy="bypass")
        assert result.strategy == "bypass"
        assert result.epochs_trained == 0.0
        assert result.accuracy_after == framework.clean_accuracy
        assert result.masked_weight_fraction == 0.0

    def test_bypass_infeasible_chip_falls_back(self, smoke_context):
        framework = smoke_context.framework()
        chip = Chip(chip_id="dense", fault_map=_infeasible_map())
        plain = reference_retrain_chip(framework, chip, 0.25, strategy="fat")
        # bypass alone: unmitigated (no retraining, faulty accuracy stands).
        bypass = reference_retrain_chip(framework, chip, 0.25, strategy="bypass")
        assert bypass.epochs_trained == 0.0
        assert bypass.accuracy_after == bypass.accuracy_before == plain.accuracy_before
        # bypass+fat: full FAT fallback, equal to the plain FAT run.
        hybrid = reference_retrain_chip(framework, chip, 0.25, strategy="bypass+fat")
        assert hybrid.epochs_trained == plain.epochs_trained == 0.25
        assert hybrid.accuracy_after == plain.accuracy_after
        assert hybrid.strategy == "bypass+fat"

    def test_fam_triage_measures_under_permuted_masks(
        self, smoke_context, strategy_population
    ):
        framework = smoke_context.framework()
        chip = strategy_population[1]
        strategy = parse_strategy("fam+fat")
        triage = framework.triage_population([chip], strategy=strategy)
        framework._restore_pretrained()
        masks = strategy.chip_masks(framework.model, chip.fault_map)
        for masked in resolve_masked_parameters(framework.model, masks):
            masked.enforce_weight()
        batch = framework.config.effective_retraining_config().batch_size
        expected = evaluate_accuracy(framework.model, framework.bundle.test, batch_size=batch)
        assert triage[chip.chip_id] == expected

    def test_engine_strategy_rows_tagged(self, smoke_context, strategy_population):
        engine = CampaignEngine(smoke_context)
        campaign = engine.run(
            strategy_population, FixedEpochPolicy(0.25), strategy="fap+fat"
        )
        assert all(result.strategy == "fap+fat" for result in campaign.results)
        # Identical numbers to plain FAT (FAT always enforces the FAP masks).
        plain = engine.run(strategy_population, FixedEpochPolicy(0.25))
        for tagged, reference in zip(campaign.results, plain.results):
            assert tagged == type(tagged).from_dict(
                {**reference.to_dict(), "strategy": "fap+fat"}
            )


class TestStrategyPlanner:
    def _job(self, chip_id, epochs, strategy):
        return ChipJob(
            chip=Chip(chip_id, FaultMap.none(2, 2)),
            epochs=epochs,
            target_accuracy=0.9,
            policy_name="p",
            strategy=strategy,
        )

    def test_jobs_group_by_budget_and_strategy(self):
        jobs = [
            self._job("a", 0.5, "fat"),
            self._job("b", 0.5, "fam+fat"),
            self._job("c", 0.5, "fat"),
        ]
        plan = plan_job_chunks(jobs, fat_batch=8)
        # Same budget but different strategies never share a stacked chunk.
        assert [[job.chip_id for job in chunk] for chunk in plan] == [["a", "c"], ["b"]]

    def test_mixed_strategy_batched_execution_rejected(
        self, smoke_context, strategy_population
    ):
        framework = smoke_context.framework()
        jobs = build_jobs(framework, strategy_population, FixedEpochPolicy(0.25))
        import dataclasses

        mixed = [jobs[0], dataclasses.replace(jobs[1], strategy="fam+fat")]
        with pytest.raises(ValueError, match="strategy"):
            execute_job_chunk(framework, mixed)

    def test_build_jobs_clamps_non_retraining_budgets(
        self, smoke_context, strategy_population
    ):
        framework = smoke_context.framework()
        jobs = build_jobs(
            framework, strategy_population, FixedEpochPolicy(0.5), strategy="fap"
        )
        assert all(job.epochs == 0.0 for job in jobs)
        assert all(job.strategy == "fap" for job in jobs)

    def test_job_round_trip_preserves_strategy(self):
        job = self._job("a", 0.5, "bypass+fat")
        assert ChipJob.from_dict(json.loads(json.dumps(job.to_dict()))) == job
        # Pre-strategy payloads default to fat.
        legacy = dict(job.to_dict())
        legacy.pop("strategy")
        assert ChipJob.from_dict(legacy).strategy == "fat"


class TestSweep:
    def test_sweep_fat_rows_bit_identical_to_single_campaign(
        self, smoke_context, strategy_population
    ):
        policy = FixedEpochPolicy(0.25)
        sweep = run_strategy_sweep(
            smoke_context,
            strategy_population,
            policy,
            "fat,fap,bypass",
            jobs=1,
            fat_batch=2,
        )
        single = CampaignEngine(smoke_context, jobs=1, fat_batch=2).run(
            strategy_population, policy
        )
        assert sweep.campaign("fat").results == single.results
        assert sweep.strategy_names == ["fat", "fap", "bypass"]

    def test_sweep_is_resumable_per_strategy(
        self, smoke_context, strategy_population, tmp_path
    ):
        policy = FixedEpochPolicy(0.25)
        first = run_strategy_sweep(
            smoke_context,
            strategy_population,
            policy,
            "fat,fap",
            store_base=tmp_path,
            fat_batch=2,
        )
        assert all(
            report.executed == len(strategy_population)
            for report in first.reports.values()
        )
        resumed = run_strategy_sweep(
            smoke_context,
            strategy_population,
            policy,
            "fat,fap",
            store_base=tmp_path,
            fat_batch=2,
        )
        assert all(report.executed == 0 for report in resumed.reports.values())
        for name in ("fat", "fap"):
            assert resumed.campaign(name).results == first.campaign(name).results

    def test_parallel_sweep_matches_serial(self, smoke_context, strategy_population):
        policy = FixedEpochPolicy(0.25)
        serial = run_strategy_sweep(
            smoke_context, strategy_population, policy, "fat,fam+fat", jobs=1, fat_batch=2
        )
        parallel = run_strategy_sweep(
            smoke_context, strategy_population, policy, "fat,fam+fat", jobs=2, fat_batch=2
        )
        for name in ("fat", "fam+fat"):
            assert parallel.campaign(name).results == serial.campaign(name).results

    def test_duplicate_strategies_rejected(self, smoke_context, strategy_population):
        with pytest.raises(ValueError):
            run_strategy_sweep(
                smoke_context, strategy_population, FixedEpochPolicy(0.25), "fat,fat"
            )


class TestCompareExperiment:
    def test_rows_report_accuracy_epochs_and_overheads(
        self, smoke_context, strategy_population
    ):
        result = run_compare(
            smoke_context,
            "fat,fap,bypass,none",
            population=strategy_population,
            policy_name="fixed",
            fixed_epochs=0.25,
            fat_batch=2,
        )
        assert result.strategy_names == ["fat", "fap", "bypass", "none"]
        for row in result.rows:
            for key in (
                "average_epochs",
                "percent_meeting_constraint",
                "mean_accuracy_before",
                "mean_accuracy_after",
                "mean_accuracy_recovered",
                "mean_masked_fraction",
                "energy_ratio",
                "mean_slowdown",
                "bypassed_chips",
            ):
                assert key in row
        # FAP gates the pruned MACs; 'none' does not.
        assert _row(result, "fap")["energy_ratio"] <= _row(result, "none")["energy_ratio"]
        assert _row(result, "none")["energy_ratio"] == 1.0
        # Bypass pays a throughput cost where it applies, never a speedup.
        assert _row(result, "bypass")["mean_slowdown"] >= 1.0
        assert _row(result, "fat")["mean_slowdown"] == 1.0
        # Non-retraining strategies spend nothing.
        assert _row(result, "fap")["average_epochs"] == 0.0
        assert _row(result, "fat")["average_epochs"] == pytest.approx(0.25)
        assert result.pareto_strategies()
        table = result.table()
        for name in result.strategy_names:
            assert name in table
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["pareto_strategies"] == result.pareto_strategies()

    def test_hybrid_energy_gates_fallback_chips_only(self, smoke_context):
        """bypass+fat's FAP+FAT fallback chips are clock-gated like fap+fat's;
        plain bypass gates nothing (its fallback chips are unmitigated)."""
        preset = smoke_context.preset
        rows, cols = preset.array_rows, preset.array_cols
        population = ChipPopulation(
            [
                Chip("sparse", _feasible_map(rows, cols)),
                Chip("dense", _infeasible_map(rows, cols)),
            ]
        )
        result = run_compare(
            smoke_context,
            "fap+fat,bypass,bypass+fat",
            population=population,
            policy_name="fixed",
            fixed_epochs=0.25,
            fat_batch=2,
        )
        assert _row(result, "bypass")["energy_ratio"] == 1.0
        # The dense chip executes the identical FAP+FAT mitigation under both
        # fap+fat and bypass+fat, so both must account some MAC gating.
        assert _row(result, "bypass+fat")["energy_ratio"] < 1.0
        assert _row(result, "fap+fat")["energy_ratio"] < 1.0
        assert _row(result, "bypass+fat")["bypassed_chips"] == 1

    def test_unknown_policy_rejected(self, smoke_context, strategy_population):
        with pytest.raises(ValueError):
            run_compare(
                smoke_context,
                "fat",
                population=strategy_population,
                policy_name="galactic",
            )


class TestCompareCli:
    def test_compare_command_runs_and_resumes(self, capsys, tmp_path):
        base = [
            "compare",
            "--preset",
            "smoke",
            "--chips",
            "3",
            "--strategies",
            "fat,bypass",
            "--policy",
            "fixed",
            "--fixed-epochs",
            "0.25",
            "--fat-batch",
            "2",
            "--campaign-dir",
            str(tmp_path / "campaigns"),
            "--output",
            str(tmp_path / "compare.json"),
        ]
        assert main(base + ["--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "strategy" in out and "bypass" in out
        assert "Pareto-optimal strategies:" in out
        payload = json.loads((tmp_path / "compare.json").read_text())
        assert payload["figure"] == "compare"
        assert [row["strategy"] for row in payload["strategies"]] == ["fat", "bypass"]
        assert all(report["executed"] == 3 for report in payload["reports"].values())

        # Re-running resumes every strategy from its own store.
        assert main(base) == 0
        rerun = json.loads((tmp_path / "compare.json").read_text())
        assert all(report["executed"] == 0 for report in rerun["reports"].values())
        assert rerun["strategies"] == payload["strategies"]

    def test_invalid_strategies_exit_with_usage_error(self, capsys):
        for argv in (
            ["compare", "--preset", "smoke", "--strategies", "warp"],
            ["compare", "--preset", "smoke", "--strategies", "fat,fat"],
            ["campaign", "--preset", "smoke", "--strategy", "bypass+fam"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "usage:" in capsys.readouterr().err

    def test_campaign_command_accepts_strategy(self, capsys, tmp_path):
        args = [
            "campaign",
            "--preset",
            "smoke",
            "--chips",
            "2",
            "--policy",
            "fixed",
            "--fixed-epochs",
            "0.25",
            "--strategy",
            "fap",
            "--campaign-dir",
            str(tmp_path / "campaigns"),
            "--output",
            str(tmp_path / "campaign.json"),
        ]
        assert main(args) == 0
        payload = json.loads((tmp_path / "campaign.json").read_text())
        assert payload["strategy"] == "fap"
        assert all(chip["strategy"] == "fap" for chip in payload["chips"])
        assert all(chip["epochs_trained"] == 0.0 for chip in payload["chips"])
