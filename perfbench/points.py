"""The benchmark's workloads, each driven through ``repro.system.experiments``.

A workload runs one *point*: the public experiment functions, called
serially in this process (``jobs=1``, no sweep pool), with telemetry off.
A point returns its host timings, the simulated outputs that are pinned
or shape-checked, and the model counters the per-layer metrics need.
"""

from __future__ import annotations

import gc
import time
from dataclasses import asdict, dataclass
from typing import Optional

from layertrace import Capture, SetupDone

# The paper's 15 KRPS, the shared-mode knee, on this model's load scale.
FIG8_RPS = 333_000

# Fig. 11 operating point: run_fig11's defaults, with enough requests per
# controller point that the pair takes several host seconds.
FIG11_INJECT_RATE = 0.75
FIG11_ROW_HIT_FRACTION = 0.5
FIG11_PROBE_REQUESTS = 4000
FIG11_REQUESTS = 80_000

# Self-test length: the same code paths, a fraction of the simulated time.
SHORT_FIG8_WARMUP_MS = 0.1
SHORT_FIG8_MEASURE_MS = 0.2
SHORT_FIG11_PROBE_REQUESTS = 1000
SHORT_FIG11_REQUESTS = 3000


@dataclass
class PointRun:
    """One executed point."""

    wall_s: float  # host seconds for the whole point, set-up included
    setup_s: float  # host seconds before the first simulated event
    sim_ps: int  # simulated interval after set-up
    sim_host_s: float  # host seconds spent simulating that interval
    outputs: dict  # simulated results: pinned or shape-checked
    counters: dict  # model counters the per-layer metrics read

    @property
    def sim_us_per_s(self) -> float:
        return self.sim_ps / 1e6 / self.sim_host_s


def _timed_call(tracer, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.root(("system", fn.__name__), fn, *args, **kwargs)


class Fig8Point:
    """One Fig. 8 colocation point: memcached at FIG8_RPS in ``mode``."""

    def __init__(self, name: str, mode: str, companion: str) -> None:
        from repro.system.experiments import ColocationSetup

        self.name = name
        self.mode = mode
        self.companion = companion
        self.default_seed = ColocationSetup().seed

    def _setup(self, short: bool):
        from repro.system.experiments import ColocationSetup

        if short:
            return ColocationSetup(warmup_ms=SHORT_FIG8_WARMUP_MS), SHORT_FIG8_MEASURE_MS
        return ColocationSetup(), 2.5

    def params(self, short: bool) -> dict:
        setup, measure_ms = self._setup(short)
        return {"experiment": "run_colocation_point", "mode": self.mode,
                "rps": FIG8_RPS, "measure_ms": measure_ms, "setup": asdict(setup)}

    def setup_once(self, seed: int, short: bool) -> float:
        """Host seconds from the call to the first simulated event."""
        from repro.system.experiments import run_colocation_point

        setup, measure_ms = self._setup(short)
        gc.collect()
        with Capture(setup_only=True) as capture:
            start = time.perf_counter()
            try:
                run_colocation_point(self.mode, FIG8_RPS, setup=setup,
                                     measure_ms=measure_ms, seed=seed)
            except SetupDone:
                pass
        return capture.first_run_at - start

    def point(self, seed: int, short: bool, tracer=None) -> PointRun:
        from repro.system.experiments import run_colocation_point

        setup, measure_ms = self._setup(short)
        gc.collect()
        with Capture() as capture:
            start = time.perf_counter()
            result = _timed_call(tracer, run_colocation_point, self.mode, FIG8_RPS,
                                 setup=setup, measure_ms=measure_ms, seed=seed)
            wall_s = time.perf_counter() - start
        (server,) = capture.servers
        (memcached,) = capture.memcached
        engine = server.engine
        controller = server.memory_controller
        l1_hits = sum(l1.total_hits for l1 in server.l1s)
        l1_misses = sum(l1.total_misses for l1 in server.l1s)
        llc = server.llc
        accesses = sum(core.memory_accesses for core in server.cores)
        planes = server.control_planes + [server.nic.control]
        outputs = {
            "p95_ms": result.p95_ms,
            "mean_ms": result.mean_ms,
            "served": memcached.requests_served,
            "dropped": memcached.requests_dropped,
            "llc_miss_rate": result.llc_miss_rate,
            "dram_served": controller.served_requests,
            "dram_qdelay_mean_by_priority": [r.mean for r in controller.queue_delay],
            "events": engine.executed_total,
        }
        counters = {
            "l1_miss_rate": l1_misses / max(1, l1_hits + l1_misses),
            "llc_miss_rate": llc.miss_rate,
            "mshr_merges": sum(c.mshrs.secondary_misses for c in [llc] + server.l1s),
            "dram_requests": controller.served_requests,
            "qdelay_cycles_mean": controller.mean_queue_delay_cycles,
            "events": engine.executed_total,
            "accesses": accesses,
            "memory_accesses": accesses,
            "busy_share": sum(core.busy_ps for core in server.cores)
            / (len(server.cores) * engine.now),
            "requests_served": memcached.requests_served,
            "interrupts_raised": sum(plane.interrupts_raised for plane in planes),
        }
        return PointRun(
            wall_s=wall_s,
            setup_s=capture.first_run_at - start,
            sim_ps=engine.now,
            sim_host_s=capture.run_s,
            outputs=outputs,
            counters=counters,
        )

    def shape_error(self, outputs: dict, companion_outputs: dict) -> Optional[str]:
        """The paper's Fig. 8 shape at one load and seed: sharing hurts the tail."""
        shared, solo = (
            (outputs, companion_outputs) if self.mode == "shared"
            else (companion_outputs, outputs)
        )
        if shared["p95_ms"] > solo["p95_ms"]:
            return None
        return f"shared p95 {shared['p95_ms']} ms is not above solo p95 {solo['p95_ms']} ms"


class Fig11Point:
    """A saturation probe, then both Fig. 11 controller points at 0.75 of it."""

    name = "fig11-dram"
    companion: Optional[str] = None
    default_seed = 7  # run_fig11's default seed

    @staticmethod
    def _sizes(short: bool) -> tuple[int, int]:
        if short:
            return SHORT_FIG11_PROBE_REQUESTS, SHORT_FIG11_REQUESTS
        return FIG11_PROBE_REQUESTS, FIG11_REQUESTS

    def params(self, short: bool) -> dict:
        probe, requests = self._sizes(short)
        return {"experiment": "measure_saturation_rate+run_fig11_controller_point",
                "probe_requests": probe, "requests_per_point": requests,
                "inject_rate": FIG11_INJECT_RATE,
                "row_hit_fraction": FIG11_ROW_HIT_FRACTION, "hp_row_buffer": False}

    def _probe(self, seed: int, short: bool, tracer=None) -> float:
        from repro.system.experiments import measure_saturation_rate

        probe, _requests = self._sizes(short)
        return _timed_call(tracer, measure_saturation_rate, num_requests=probe,
                           seed=seed, row_hit_fraction=FIG11_ROW_HIT_FRACTION)

    def setup_once(self, seed: int, short: bool) -> float:
        gc.collect()
        start = time.perf_counter()
        self._probe(seed, short)
        return time.perf_counter() - start

    def point(self, seed: int, short: bool, tracer=None) -> PointRun:
        from repro.system.experiments import run_fig11_controller_point

        _probe, requests = self._sizes(short)
        gc.collect()
        with Capture() as probe_capture:
            start = time.perf_counter()
            saturation = self._probe(seed, short, tracer)
            setup_s = time.perf_counter() - start
        rate = FIG11_INJECT_RATE * saturation
        with Capture() as capture:
            baseline = _timed_call(tracer, run_fig11_controller_point, False, rate,
                                   requests, seed, FIG11_ROW_HIT_FRACTION, False)
            pard = _timed_call(tracer, run_fig11_controller_point, True, rate,
                               requests, seed, FIG11_ROW_HIT_FRACTION, False)
            wall_s = time.perf_counter() - start
        controllers = probe_capture.controllers + capture.controllers
        engines = probe_capture.engines + capture.engines
        served = sum(c.served_requests for c in controllers)
        delay_total = sum(r.total for c in controllers for r in c.queue_delay)
        delay_count = sum(r.count for c in controllers for r in c.queue_delay)
        events = sum(engine.executed_total for engine in engines)
        outputs = {
            "saturation_req_per_cycle": saturation,
            "baseline_mean_cycles": baseline["mean"][0],
            "high_priority_mean_cycles": pard["mean"][1],
            "low_priority_mean_cycles": pard["mean"][0],
            "dram_served": [c.served_requests for c in controllers],
            "events": events,
        }
        counters = {
            "l1_miss_rate": 0.0,
            "llc_miss_rate": 0.0,
            "mshr_merges": 0,
            "dram_requests": served,
            "qdelay_cycles_mean": delay_total / delay_count,
            "events": events,
            "accesses": served,  # no cpu: an access is one DRAM request
            "memory_accesses": 0,
            "busy_share": 0.0,
            "requests_served": 0,
            "interrupts_raised": 0,
        }
        return PointRun(
            wall_s=wall_s,
            setup_s=setup_s,
            sim_ps=sum(engine.now for engine in capture.engines),
            sim_host_s=capture.run_s,
            outputs=outputs,
            counters=counters,
        )

    def shape_error(self, outputs: dict, companion_outputs=None) -> Optional[str]:
        """The paper's Fig. 11 shape: priority queues cut high-priority delay
        below both the baseline's and the low-priority class's."""
        high = outputs["high_priority_mean_cycles"]
        others = min(outputs["baseline_mean_cycles"], outputs["low_priority_mean_cycles"])
        if high < others:
            return None
        return (f"high-priority mean {high} cycles is not below the baseline "
                f"({outputs['baseline_mean_cycles']}) and low-priority "
                f"({outputs['low_priority_mean_cycles']}) means")


def workloads() -> dict:
    """Workload name -> its point; built after ``repro`` is importable."""
    return {
        "fig8-shared": Fig8Point("fig8-shared", "shared", companion="fig8-solo"),
        "fig8-solo": Fig8Point("fig8-solo", "solo", companion="fig8-shared"),
        "fig11-dram": Fig11Point(),
    }
