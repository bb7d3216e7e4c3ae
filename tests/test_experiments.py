"""Tests for the experiment drivers (scaled-down, fast configurations)."""

import pytest

from repro.runner import run_sweep
from repro.system.experiments import (
    ColocationSetup,
    PAPER_KRPS_SCALE,
    QueueingResult,
    fig11_sweep_points,
    measure_saturation_rate,
    run_colocation_point,
    run_fig9,
    run_fig10,
)


def tiny_setup():
    """A reduced setup so experiment tests stay fast."""
    return ColocationSetup(
        scale=32,
        mc_working_set_bytes=56 << 10,
        mc_loads_per_request=60,
        stream_array_bytes=256 << 10,
        warmup_ms=0.5,
    )


class TestColocationPoint:
    def test_solo_runs_one_core(self):
        result = run_colocation_point("solo", 150_000, setup=tiny_setup(), measure_ms=1.0)
        assert result.cpu_utilization == 0.25
        assert result.p95_ms > 0
        assert result.throughput_rps > 0
        assert not result.trigger_fired

    @pytest.mark.slow
    def test_shared_runs_all_cores_and_degrades(self):
        setup = tiny_setup()
        solo = run_colocation_point("solo", 150_000, setup=setup, measure_ms=1.0)
        shared = run_colocation_point("shared", 150_000, setup=setup, measure_ms=1.0)
        assert shared.cpu_utilization == 1.0
        assert shared.p95_ms > solo.p95_ms
        assert shared.llc_miss_rate > (solo.llc_miss_rate or 0)

    @pytest.mark.slow
    def test_trigger_mode_fires_and_recovers(self):
        setup = tiny_setup()
        shared = run_colocation_point("shared", 150_000, setup=setup, measure_ms=1.5)
        trig = run_colocation_point("trigger", 150_000, setup=setup, measure_ms=1.5)
        assert trig.trigger_fired
        assert trig.llc_miss_rate < shared.llc_miss_rate
        assert trig.p95_ms <= shared.p95_ms

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_colocation_point("turbo", 100_000, setup=tiny_setup())

    def test_paper_krps_mapping(self):
        result = run_colocation_point("solo", 500_000, setup=tiny_setup(), measure_ms=0.5)
        # Our solo knee (~500 KRPS) maps to the paper's 22.5 KRPS axis.
        assert result.paper_krps == pytest.approx(22.5)


class TestFig9Timeline:
    @pytest.mark.slow
    def test_trigger_timeline_shape(self):
        setup = tiny_setup()
        timeline = run_fig9(
            rps=150_000, setup=setup,
            stream_delay_ms=1.0, total_ms=4.0, sample_ms=0.5,
        )
        assert len(timeline.times_ms) == 8
        assert timeline.trigger_time_ms is not None
        assert timeline.trigger_time_ms >= timeline.stream_start_ms
        # After the trigger, memcached holds the dedicated half.
        assert timeline.final_waymask == 0xFF00
        # Peak miss rate happens after the streams start, and the tail of
        # the timeline is below the peak (recovery).
        peak = max(timeline.miss_rates)
        assert peak > setup.trigger_threshold_pct / 100
        assert timeline.miss_rates[-1] < peak


class TestFig10Disk:
    def test_share_shifts_from_half_to_80_20(self):
        timeline = run_fig10(phase_ms=80.0, sample_ms=20.0, block_bytes=2 << 20)
        split = len([t for t in timeline.times_ms if t <= timeline.quota_change_ms])
        before_a = timeline.bandwidth_share["ldom_a"][1:split]
        after_a = timeline.bandwidth_share["ldom_a"][split + 1:]
        assert sum(before_a) / len(before_a) == pytest.approx(0.5, abs=0.1)
        assert sum(after_a) / len(after_a) == pytest.approx(0.8, abs=0.1)


class TestFig11Queueing:
    def test_saturation_probe_positive(self):
        rate = measure_saturation_rate(num_requests=1500)
        assert 0.01 < rate < 0.25  # below the theoretical bus peak

    def test_priority_redistributes_waiting(self):
        sweep = run_sweep(fig11_sweep_points(num_requests=2500), jobs=1)
        result = QueueingResult.from_points(*sweep.raise_on_failure().values())
        assert result.high_priority_mean_cycles < result.baseline_mean_cycles
        assert result.high_priority_speedup > 1.5
        # CDFs are well-formed and ordered: the high-priority curve
        # dominates (more mass at low delay).
        assert result.high_cdf[-1][1] == pytest.approx(1.0)
        for (_, high_frac), (_, base_frac) in zip(result.high_cdf, result.baseline_cdf):
            assert high_frac >= base_frac - 1e-9

    def test_invalid_inject_rate(self):
        with pytest.raises(ValueError):
            fig11_sweep_points(inject_rate=1.5)

    def test_zero_requests_rejected(self):
        with pytest.raises(ValueError):
            fig11_sweep_points(num_requests=0)
        with pytest.raises(ValueError):
            measure_saturation_rate(num_requests=0)
