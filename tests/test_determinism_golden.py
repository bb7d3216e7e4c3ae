"""Golden determinism tests.

Three guarantees the whole experimental methodology rests on:

1. **Run-to-run determinism** -- the full-system memcached+STREAM
   colocation, run from the same seed, produces bit-identical
   statistics (request counts, per-sample latency lists, cache and DRAM
   counters, core busy time), pinned to a checked-in digest. Without
   this, no paper figure is reproducible, and a change that alters
   simulated behaviour must re-pin the digest on purpose. The Fig. 11
   controller points and a Fig. 8 trigger point, whose firmware
   rewrites the LLC way mask mid-run, are pinned the same way.

2. **Queue-implementation equivalence** -- the bucketed calendar queue
   and the heapq reference dispatch events in byte-identical order, so
   the *same pinned digest* must come out of the full system regardless
   of which queue implementation runs it.

3. **Sweep-parallelism equivalence** -- an experiment grid fanned out
   over a process pool (``jobs=N``) merges to byte-identical results
   and telemetry as the exact serial path (``jobs=1``). Without this,
   ``--jobs`` would silently change the figures it accelerates.
"""

import hashlib

import pytest

from repro.runner import run_sweep
from repro.sim.engine import Engine, HeapqEngine
from repro.sim.rng import DeterministicRng
from repro.system.config import TABLE2
from repro.system.experiments import (
    ColocationSetup,
    fig8_sweep_points,
    measure_saturation_rate,
    run_colocation_point,
    run_fig11_controller_point,
)
from repro.system.server import PardServer
from repro.telemetry import Telemetry
from repro.workloads.memcached import MemcachedServer
from repro.workloads.stream import Stream


# sha256 of run_colocation's state at seed 7 (measured on Python 3.11).
COLOCATION_DIGEST = "12b7bf981f85318a8571a0cdea7bfb00ce984a59d262a586bdaa376faeb1f066"

ENGINE_CLASSES = pytest.mark.parametrize(
    "engine_class", (Engine, HeapqEngine), ids=lambda cls: cls.kind
)


def run_colocation(engine_class: type, seed: int = 7) -> str:
    """Run a small memcached+STREAM colocation; return its stats digest."""
    server = PardServer(TABLE2.scaled(16), engine=engine_class())
    fw = server.firmware
    fw.create_ldom("mc", (0,), 1 << 20)
    mc = MemcachedServer(
        server.engine, rps=150_000, working_set_bytes=64 << 10,
        loads_per_request=20, warmup_ps=0,
        rng=DeterministicRng(seed, name="mc"),
    )
    server.start()
    fw.launch_ldom("mc", {0: mc})
    for i in (1, 2):
        fw.create_ldom(f"st{i}", (i,), 1 << 20)
        fw.launch_ldom(f"st{i}", {i: Stream(array_bytes=128 << 10)})
    server.run_ms(1.0)

    state = (
        server.engine.now,
        server.engine.executed_total,
        mc.requests_arrived,
        mc.requests_served,
        mc.requests_dropped,
        tuple(mc.latencies.samples),
        server.llc.total_hits,
        server.llc.total_misses,
        server.memory_controller.served_requests,
        server.memory_controller.served_bytes,
        tuple(
            tuple(recorder.samples)
            for recorder in server.memory_controller.queue_delay
        ),
        tuple((core.busy_ps, core.memory_accesses) for core in server.cores),
        tuple(
            server.llc.occupancy_blocks(ds_id) for ds_id in range(4)
        ),
    )
    return hashlib.sha256(repr(state).encode()).hexdigest()


@pytest.mark.slow
@ENGINE_CLASSES
def test_same_seed_same_digest(engine_class):
    """The colocation scenario is bit-deterministic under each queue."""
    assert run_colocation(engine_class) == run_colocation(engine_class)


@pytest.mark.parametrize(
    "engine_class",
    [Engine, pytest.param(HeapqEngine, marks=pytest.mark.slow)],
    ids=lambda cls: cls.kind,
)
def test_colocation_digest_is_pinned(engine_class):
    """Both queues drive the machine to the checked-in state."""
    assert run_colocation(engine_class) == COLOCATION_DIGEST


# sha256 of (saturation rate, run_fig11_controller_point result) at 4000
# requests, seed 7, row-hit fraction 0.5, 0.75 of the measured saturation
# rate (measured on Python 3.11). Keys: (with_control_plane, hp_row_buffer).
FIG11_DIGESTS = {
    (False, False): "275518ce8c096159bee4802b47305128613f4ed0a2062ce4956ae6fe17e538ea",
    (True, False): "73494d3788ff6091cc540fd7aa3ca817753f618cae65b1b9e1e423ca651e957d",
    (True, True): "183039759766a75b7e501ebc3994c5252e17cd043c420d2e5b8a2ef1315c23f1",
}

# sha256 of the ColocationResult below (measured on Python 3.11).
TRIGGER_DIGEST = "3fdfd0f0d2e651ec1a79fa1c28ac84a0ed5610b9ad5ab69134804436cce00b8f"


def fig11_digest(with_control_plane: bool, hp_row_buffer: bool) -> str:
    """Digest of one Fig. 11 controller point: means and CDFs."""
    saturation = measure_saturation_rate(num_requests=4000, seed=7, row_hit_fraction=0.5)
    result = run_fig11_controller_point(
        with_control_plane, 0.75 * saturation, 4000, 7, 0.5, hp_row_buffer
    )
    return hashlib.sha256(repr((saturation, result)).encode()).hexdigest()


@pytest.mark.parametrize(
    "with_control_plane, hp_row_buffer", FIG11_DIGESTS,
    ids=("baseline", "pard", "pard-rowbuf"),
)
def test_fig11_controller_points_are_pinned(with_control_plane, hp_row_buffer):
    """Baseline, priority queues, and priority queues plus the extra
    high-priority row buffer (the only run that reads ``rowbuf``)."""
    assert fig11_digest(with_control_plane, hp_row_buffer) == FIG11_DIGESTS[
        (with_control_plane, hp_row_buffer)
    ]


def trigger_point():
    """A short Fig. 8 trigger point whose trigger fires mid-run."""
    return run_colocation_point(
        "trigger", 333_000,
        ColocationSetup(warmup_ms=0.2, control_window_ms=0.2), measure_ms=0.4,
    )


def test_trigger_point_is_pinned():
    """The firmware rewrites memcached's LLC way mask mid-run, so a policy
    read that goes stale (a mask cached across the write) moves the digest."""
    result = trigger_point()
    assert result.trigger_fired
    assert hashlib.sha256(repr(result).encode()).hexdigest() == TRIGGER_DIGEST


def test_queue_implementations_agree_on_randomized_schedule():
    """Byte-identical event orderings on a randomized schedule: every
    (timestamp, label) pair matches between the two queues."""
    rng_seed = 2015

    def ordering(engine_class: type):
        engine = engine_class()
        rng = DeterministicRng(rng_seed, name="golden-schedule")
        trace = []
        for label in range(2_000):
            delay = rng.choice((0, 250, 500, 1250, rng.randint(1, 100_000)))
            engine.post(0, lambda: None)  # noise: same-instant filler
            engine.schedule(delay, lambda label=label: trace.append((engine.now, label)))
        engine.run()
        return trace

    assert ordering(Engine) == ordering(HeapqEngine)


# -- sweep-parallelism equivalence ------------------------------------------

TINY = ColocationSetup(
    scale=32, mc_working_set_bytes=56 << 10, mc_loads_per_request=60,
    stream_array_bytes=256 << 10, warmup_ms=0.5,
)


def fig8_digest(jobs: int, modes, loads, measure_ms: float) -> str:
    """Digest of a fig8 grid's results plus its merged telemetry."""
    hub = Telemetry(span_sample=1, snapshot_period_ms=0.25)
    points = fig8_sweep_points(
        loads_rps=list(loads), modes=modes, setup=TINY, measure_ms=measure_ms,
    )
    sweep = run_sweep(points, jobs=jobs, telemetry=hub).raise_on_failure()
    results = sweep.values()
    state = (
        repr(results),
        repr(hub.registry.dump()),
        repr(hub.spans.dump()),
        repr(hub.snapshots),
    )
    return hashlib.sha256(repr(state).encode()).hexdigest()


def test_parallel_sweep_matches_serial():
    """jobs=2 merges to the same bytes as the exact serial fallback."""
    kwargs = dict(modes=("solo",), loads=(150_000, 250_000), measure_ms=0.5)
    assert fig8_digest(1, **kwargs) == fig8_digest(2, **kwargs)


@pytest.mark.slow
def test_parallel_sweep_matches_serial_full_grid():
    """The full tiny grid (3 modes x 2 loads) at jobs=4, incl. telemetry."""
    kwargs = dict(
        modes=("solo", "shared", "trigger"), loads=(150_000, 250_000),
        measure_ms=0.5,
    )
    assert fig8_digest(1, **kwargs) == fig8_digest(4, **kwargs)


def test_fig8_sweep_points_specs_are_stable():
    """Point specs carry everything: indexes dense, the setup (and so
    its seed) travelling as the dataclass itself."""
    points = fig8_sweep_points(
        loads_rps=[150_000, 250_000], modes=("solo", "shared"), setup=TINY,
        measure_ms=0.5, first_index=10,
    )
    assert [p.index for p in points] == [10, 11, 12, 13]
    assert all(p.run is run_colocation_point for p in points)
    assert all(p.params["setup"] == TINY for p in points)
