"""Fig. 8: memcached tail response time vs offered load.

Three curves -- solo, shared (three STREAM LDoms co-located, no policy),
and shared with the LLC miss-rate trigger installed -- over a load
sweep. The paper's markers, all asserted here:

- solo serves the peak load (22.5 paper-KRPS) with a modest tail but
  only 25% CPU utilization;
- naive sharing reaches 100% utilization (the 4x headline) but the tail
  at high load blows up by orders of magnitude;
- with the trigger => repartition rule, utilization stays 100% while the
  tail returns to near-solo until close to the solo knee.

Load is normalized to the paper's KRPS axis via PAPER_KRPS_SCALE (this
reproduction's solo knee maps to 22.5 KRPS; see EXPERIMENTS.md).
"""

from conftest import banner, full_resolution

from repro.figures import render_fig8
from repro.runner import run_sweep
from repro.system.experiments import fig8_sweep_points


def test_fig8_tail_latency_curves(benchmark):
    if full_resolution():
        loads = [222_000, 278_000, 333_000, 389_000, 444_000, 500_000]
        measure_ms = 2.5
    else:
        loads = [222_000, 389_000, 500_000]
        measure_ms = 2.0
    points = fig8_sweep_points(loads_rps=loads, measure_ms=measure_ms)
    sweep = benchmark.pedantic(
        run_sweep, args=(points,), kwargs={"jobs": 1}, rounds=1, iterations=1
    )
    results = sweep.raise_on_failure().values()

    banner("Fig. 8: 95th-percentile response time vs load")
    render_fig8(results)

    by_mode = {}
    for r in results:
        by_mode.setdefault(r.mode, []).append(r)
    low, mid, high = loads[0], loads[len(loads) // 2], loads[-1]

    def point(mode, rps):
        return next(r for r in by_mode[mode] if r.rps == rps)

    # Utilization: solo 25%, co-located 100% (the 4x headline).
    assert all(r.cpu_utilization == 0.25 for r in by_mode["solo"])
    assert all(r.cpu_utilization == 1.0 for r in by_mode["shared"])
    assert all(r.cpu_utilization == 1.0 for r in by_mode["trigger"])

    # Naive sharing destroys the tail well before the solo knee: an
    # order of magnitude at the mid load, and several x even at the knee
    # where solo itself has started to queue.
    assert point("shared", mid).p95_ms > 10 * point("solo", mid).p95_ms
    assert point("shared", high).p95_ms > 5 * point("solo", high).p95_ms
    # ... driven by LLC contention:
    assert point("shared", low).llc_miss_rate > 0.10
    assert point("solo", low).llc_miss_rate < 0.05

    # The trigger fires and restores near-solo behaviour at moderate load.
    assert all(r.trigger_fired for r in by_mode["trigger"])
    assert point("trigger", low).llc_miss_rate < 0.05
    assert point("trigger", low).p95_ms < 3 * point("solo", low).p95_ms
    assert point("trigger", mid).p95_ms < 3 * point("solo", mid).p95_ms
    # At every load the trigger curve beats naive sharing.
    for rps in loads:
        assert point("trigger", rps).p95_ms < point("shared", rps).p95_ms
