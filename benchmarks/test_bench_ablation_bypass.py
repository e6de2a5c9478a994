"""Ablation A3: performance cost of PE-bypass mitigation vs FAP (+FAT).

Reproduces the motivation of §I: techniques that bypass faulty rows/columns
(Kim & Reddy style) preserve accuracy but shrink the effective array and so
cost throughput, while FAP keeps the full array (its cost is accuracy, which
FAT then recovers).  The benchmark quantifies the latency ratio on the fast
preset's model at several fault rates.
"""

from bench_utils import run_once
from repro.accelerator import (
    FaultMap,
    SystolicArray,
    best_bypass_plan,
    bypass_slowdown,
    estimate_model_energy,
)

FAULT_RATES = (0.001, 0.005, 0.02)


def test_ablation_bypass_performance_cost(benchmark, fast_context):
    model = fast_context.model
    input_shape = fast_context.bundle.input_shape
    rows, cols = fast_context.array.shape

    def run_sweep():
        results = {}
        for rate in FAULT_RATES:
            fault_map = FaultMap.random(rows, cols, rate, seed=17)
            array = SystolicArray(rows, cols, fault_map=fault_map)
            plan = best_bypass_plan(fault_map)
            results[rate] = {
                "surviving_pe_fraction": plan.surviving_pe_fraction,
                "slowdown": bypass_slowdown(model, array, input_shape),
            }
        return results

    results = run_once(benchmark, run_sweep)

    print("\nAblation A3: PE-bypass cost vs FAP (which keeps full throughput)")
    print(f"{'fault rate':>10} | {'surviving PEs':>13} | {'bypass slowdown':>15}")
    for rate, row in results.items():
        print(f"{rate:>10.3f} | {row['surviving_pe_fraction']:>13.3f} | {row['slowdown']:>15.2f}x")

    slowdowns = [row["slowdown"] for row in results.values()]
    # Bypassing is never faster than the full array and gets worse with more faults.
    assert all(s >= 1.0 for s in slowdowns)
    assert slowdowns == sorted(slowdowns)
    # Even at a 2 % fault rate the bypass penalty is substantial (> 1.5x),
    # which is exactly why the paper builds on FAP + retraining instead.
    assert slowdowns[-1] > 1.5


def test_ablation_fap_energy_saving(benchmark, fast_context):
    """FAP side benefit: gated (zeroed) MACs save a little energy."""
    model = fast_context.model
    input_shape = fast_context.bundle.input_shape
    array = SystolicArray(*fast_context.array.shape)

    def run_sweep():
        dense = estimate_model_energy(model, array, input_shape)
        pruned = estimate_model_energy(model, array, input_shape, zero_weight_fraction=0.2)
        return dense.total_nj, pruned.total_nj

    dense_nj, pruned_nj = run_once(benchmark, run_sweep)
    print(f"\nAblation A3b: per-inference energy dense={dense_nj:.1f} nJ, "
          f"20% FAP-pruned={pruned_nj:.1f} nJ")
    assert pruned_nj < dense_nj
