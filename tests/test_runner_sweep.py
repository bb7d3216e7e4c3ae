"""The sweep runner: deterministic merge, failure handling, retries.

The test run functions below are module-level, so pickle sends them to
worker processes by name, exactly as it sends the experiment drivers.
The colocation tests double as the regression suite for the point-seed
contract: a point's result depends only on its spec (run function +
params, seed included), never on what ran before it in the process.
"""

import multiprocessing
import pickle
import time

import pytest

from repro.runner import (
    SweepError,
    SweepPoint,
    SweepResult,
    run_sweep,
)
from repro.system.experiments import ColocationSetup, run_colocation_point
from repro.telemetry import Telemetry


def run_square(index, x, seed=0, telemetry=None):
    if telemetry is not None:
        telemetry.registry.counter("test.points").add(1)
        telemetry.registry.gauge("test.last_index").set(index)
        telemetry.registry.histogram(
            "test.x", start=1.0, growth=2.0, count=8
        ).record(x)
        span = telemetry.spans.maybe_start(
            ds_id=0, packet_id=index, kind="test"
        )
        if span is not None:
            span.hop("begin", 0)
            span.hop("end", 10 * (index + 1))
            telemetry.spans.finish(span)
        telemetry.snapshot(t_ps=1_000 * index)
    return x ** 2 + seed


def run_fail_odd(index, telemetry=None):
    if index % 2 == 1:
        raise ValueError(f"boom at point {index}")
    return index


def run_fail_in_worker(telemetry=None):
    # Fails only inside a pool worker; a parent-process retry succeeds.
    if multiprocessing.parent_process() is not None:
        raise RuntimeError("worker-only failure")
    return "parent-ok"


def run_sleep(s, telemetry=None):
    time.sleep(s)
    return "slept"


def square_points(n, seed=0):
    return [
        SweepPoint(index=i, run=run_square,
                   params={"index": i, "x": i, "seed": seed})
        for i in range(n)
    ]


def fail_odd_points(n):
    return [
        SweepPoint(index=i, run=run_fail_odd, params={"index": i})
        for i in range(n)
    ]


def test_sweep_point_pickle_round_trip():
    point = SweepPoint(
        index=3, run=run_square,
        params={"index": 3, "x": 3, "seed": 11, "nested": {"a": [1]}},
        label="x=3",
    )
    clone = pickle.loads(pickle.dumps(point))
    assert clone == point
    assert clone.run is run_square
    assert clone.display_label() == "x=3"
    assert SweepPoint(0, run_square, {}).display_label() == "run_square[0]"


def test_unpicklable_run_function_is_rejected():
    def nested(telemetry=None):
        return 1

    # Both would run at jobs=1 and then fail to reach a pool worker.
    with pytest.raises(ValueError, match="does not pickle"):
        # simlint: disable=RUN001 -- the rejection is what this test checks
        SweepPoint(0, lambda telemetry=None: 1, {})
    with pytest.raises(ValueError, match="does not pickle"):
        # simlint: disable=RUN001 -- the rejection is what this test checks
        SweepPoint(0, nested, {})


def test_serial_and_parallel_agree():
    serial = run_sweep(square_points(9, seed=5), jobs=1)
    pooled = run_sweep(square_points(9, seed=5), jobs=2)
    assert serial.ok and pooled.ok
    assert serial.values() == pooled.values() == [i ** 2 + 5 for i in range(9)]
    assert [p.index for p in pooled.points] == list(range(9))


def test_collection_order_is_index_order(capsys):
    run_sweep(square_points(8), jobs=2, progress=True)
    lines = capsys.readouterr().err.splitlines()
    assert [line.split()[2] for line in lines] == [f"#{i}" for i in range(8)]


def test_failures_are_captured_and_survivors_merge():
    sweep = run_sweep(fail_odd_points(5), jobs=2, retries=0)
    assert not sweep.ok
    assert sweep.values() == [0, 2, 4]
    failed = sweep.failed
    assert [p.index for p in failed] == [1, 3]
    for pr in failed:
        assert "ValueError: boom at point" in pr.error
        assert "Traceback" in pr.error
        assert not pr.retried and pr.attempts == 1
    with pytest.raises(SweepError) as exc_info:
        sweep.raise_on_failure()
    assert "2/5 sweep points failed" in str(exc_info.value)
    assert exc_info.value.result is sweep


def test_failed_point_retried_once_in_parent():
    points = [
        SweepPoint(index=i, run=run_fail_in_worker, params={})
        for i in range(2)
    ]
    sweep = run_sweep(points, jobs=2)
    assert sweep.ok
    for pr in sweep.points:
        assert pr.value == "parent-ok"
        assert pr.retried and pr.attempts == 2


def test_retry_failure_reports_both_attempts():
    sweep = run_sweep(fail_odd_points(2), jobs=1, retries=1)
    pr = sweep.points[1]
    assert not pr.ok and pr.retried and pr.attempts == 2
    assert "(earlier attempt failed with)" in pr.error


def test_timeout_marks_point_and_skips_retry():
    points = [SweepPoint(index=0, run=run_sleep, params={"s": 2.0})]
    started = time.perf_counter()
    sweep = run_sweep(points, jobs=2, timeout_s=0.3)
    assert time.perf_counter() - started < 1.5  # did not wait out the sleep
    pr = sweep.points[0]
    assert not pr.ok and pr.timed_out
    assert not pr.retried and pr.attempts == 1
    assert "timed out" in pr.error


def test_point_validation():
    dup = [SweepPoint(0, run_square, {"index": 0, "x": 1}),
           SweepPoint(0, run_square, {"index": 0, "x": 2})]
    with pytest.raises(ValueError, match="duplicate sweep point index"):
        run_sweep(dup, jobs=1)
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        run_sweep(square_points(2), jobs=0)
    empty = run_sweep([], jobs=4)
    assert isinstance(empty, SweepResult) and empty.points == []


def test_telemetry_merge_identical_serial_and_parallel():
    def merged_dump(jobs):
        hub = Telemetry(span_sample=1)
        sweep = run_sweep(square_points(6), jobs=jobs, telemetry=hub)
        assert sweep.ok
        return hub.registry.dump(), hub.spans.dump(), hub.snapshots

    serial_reg, serial_spans, serial_snaps = merged_dump(1)
    pooled_reg, pooled_spans, pooled_snaps = merged_dump(2)
    assert serial_reg == pooled_reg
    assert serial_spans == pooled_spans
    assert serial_snaps == pooled_snaps
    # The merge did what the contract says: counters summed across the
    # 6 points, the gauge kept the highest-index point's write.
    assert serial_reg["test.points"]["value"] == 6
    assert serial_reg["test.last_index"]["value"] == 5
    assert serial_reg["test.x"]["count"] == 6
    # One span per point, packet ids rebased into disjoint ranges.
    ids = [s["packet_id"] for s in serial_spans["finished"]]
    assert len(ids) == len(set(ids)) == 6


# -- the point-seed contract (order independence) ---------------------------

TINY = ColocationSetup(
    scale=32, mc_working_set_bytes=56 << 10, mc_loads_per_request=60,
    stream_array_bytes=256 << 10, warmup_ms=0.5,
)


def _tiny_point(mode="solo", rps=150_000, seed=None):
    return run_colocation_point(
        mode, rps, setup=TINY, measure_ms=0.3,
        seed=TINY.seed if seed is None else seed,
    )


def test_colocation_point_is_order_independent():
    """A point's result must not depend on what ran earlier in-process.

    Regression for the sweep-runner port: per-point seeds are explicit
    in the spec, so interleaving other work (here a different mode at a
    different load) cannot perturb a point's RNG streams.
    """
    first = _tiny_point()
    _tiny_point(mode="shared", rps=250_000)  # unrelated interleaved work
    again = _tiny_point()
    assert repr(first) == repr(again)


def test_colocation_point_honours_explicit_seed():
    base = _tiny_point()
    reseeded = _tiny_point(seed=TINY.seed + 1)
    assert repr(base) != repr(reseeded)
