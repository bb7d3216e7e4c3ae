"""Fig. 11: CDF of memory-request queueing delay.

A synthetic injector drives the memory controller at a fixed fraction of
its measured saturation bandwidth, half high-priority and half
low-priority. Compared configurations: the baseline controller (single
queue, no control plane) and the PARD controller (per-priority queues).

Paper numbers at its operating point: baseline 15.2 cycles average;
with the control plane, high priority drops to 2.7 cycles (5.6x) while
low priority rises to 20.3 (+33.6%). Our calibration note: the default
utilization (0.75 of measured saturation) is where this model's baseline
matches the paper's 15.2-cycle average; the high-priority reduction
reproduces (factor >= 2.5x here), the low-priority penalty does not
fully reproduce (see EXPERIMENTS.md for the analysis).
"""

from conftest import banner, full_resolution

from repro.analysis.tables import format_table
from repro.runner import run_sweep
from repro.system.experiments import QueueingResult, fig11_sweep_points


def measure_fig11(num_requests: int) -> QueueingResult:
    """The saturation probe, then both controller points, serially."""
    sweep = run_sweep(fig11_sweep_points(num_requests=num_requests), jobs=1)
    return QueueingResult.from_points(*sweep.raise_on_failure().values())


def test_fig11_queueing_delay_cdf(benchmark):
    num_requests = 12_000 if full_resolution() else 6_000
    result = benchmark.pedantic(
        measure_fig11, kwargs={"num_requests": num_requests}, rounds=1, iterations=1
    )

    banner("Fig. 11: Memory queueing delay (cycles)")
    print(format_table(
        ["configuration", "mean delay (cycles)", "vs baseline"],
        [
            ["w/o control plane", f"{result.baseline_mean_cycles:.1f}", "--"],
            ["high priority w/ control plane",
             f"{result.high_priority_mean_cycles:.1f}",
             f"{result.high_priority_speedup:.1f}x faster"],
            ["low priority w/ control plane",
             f"{result.low_priority_mean_cycles:.1f}",
             f"{result.low_priority_slowdown_pct:+.1f}%"],
        ],
    ))
    print("\nCDF (delay cycles -> cumulative fraction):")
    print("  delay   baseline   high-pri   low-pri")
    for i in range(0, len(result.baseline_cdf), 5):
        delay, base = result.baseline_cdf[i]
        _, high = result.high_cdf[i]
        _, low = result.low_cdf[i]
        print(f"  {delay:5.0f}   {base:8.2f}   {high:8.2f}   {low:7.2f}")

    # Shape assertions against the paper.
    # Baseline operating point ~15 cycles (paper: 15.2).
    assert 8 < result.baseline_mean_cycles < 30
    # High priority wins big (paper: 5.6x; we require >= 2.5x).
    assert result.high_priority_speedup >= 2.5
    # High priority lands in the paper's few-cycle regime.
    assert result.high_priority_mean_cycles < 8
    # Low priority pays relative to high priority.
    assert result.low_priority_mean_cycles > 2 * result.high_priority_mean_cycles
    # The high-priority CDF stochastically dominates the baseline CDF.
    for (_, high_frac), (_, base_frac) in zip(result.high_cdf, result.baseline_cdf):
        assert high_frac >= base_frac - 1e-9
