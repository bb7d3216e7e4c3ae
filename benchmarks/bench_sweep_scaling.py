"""Sweep-runner scaling benchmark: fig8-grid wall-clock vs ``--jobs``.

Runs the same Fig. 8 mode x load grid through ``repro.runner`` at
``--jobs 1 / 2 / 4`` (configurable), reports wall-clock and speedup per
jobs value as JSON, and -- because the runner's whole contract is a
deterministic merge -- asserts that every jobs value produced a
byte-identical result list before reporting any timing.

Run as a script for the full measurement and a machine-readable JSON
record on stdout (``--json-file`` also writes it to disk; ``--check``
exits non-zero unless ``--jobs 4`` clears the 1.5x acceptance bar --
the bar is only enforced when the machine actually has >= 4 cores,
otherwise the check reports itself skipped)::

    PYTHONPATH=src python benchmarks/bench_sweep_scaling.py [--check]

Run under pytest for the CI smoke mode (a reduced grid; asserts
determinism across jobs values and the JSON record shape, with no
speedup bar so single-core and noisy shared runners stay green)::

    PYTHONPATH=src python -m pytest benchmarks/bench_sweep_scaling.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time

from repro.runner import run_sweep
from repro.system.experiments import ColocationSetup, fig8_sweep_points

FULL_JOBS = (1, 2, 4)
FULL_LOADS = [150_000, 250_000]
FULL_MEASURE_MS = 1.0
SMOKE_JOBS = (1, 2)
SMOKE_LOADS = [150_000]
SMOKE_MEASURE_MS = 0.5
MODES = ("solo", "shared", "trigger")
SPEEDUP_BAR = 1.5  # required at jobs=4 on a >= 4-core runner


def bench_setup() -> ColocationSetup:
    """The reduced-scale colocation the scaling grid runs at."""
    return ColocationSetup(
        scale=32,
        mc_working_set_bytes=56 << 10,
        mc_loads_per_request=60,
        stream_array_bytes=256 << 10,
        warmup_ms=0.5,
    )


def time_grid(jobs: int, loads: list[int], measure_ms: float) -> tuple[str, float, int]:
    """One grid run; returns (result digest, elapsed seconds, points)."""
    started = time.perf_counter()
    points = fig8_sweep_points(
        loads_rps=loads, modes=MODES, setup=bench_setup(), measure_ms=measure_ms
    )
    results = run_sweep(points, jobs=jobs).raise_on_failure().values()
    elapsed = time.perf_counter() - started
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    return digest, elapsed, len(results)


def run_benchmark(
    jobs_list=FULL_JOBS, loads=None, measure_ms: float = FULL_MEASURE_MS
) -> dict:
    loads = loads or FULL_LOADS
    rows = {}
    digests = set()
    serial_elapsed = None
    for jobs in jobs_list:
        digest, elapsed, points = time_grid(jobs, loads, measure_ms)
        digests.add(digest)
        if jobs == 1:
            serial_elapsed = elapsed
        rows[jobs] = {
            "jobs": jobs,
            "points": points,
            "elapsed_s": round(elapsed, 3),
            "speedup_vs_serial": (
                round(serial_elapsed / elapsed, 3) if serial_elapsed else None
            ),
            "result_digest": digest,
        }
    # The determinism contract: every jobs value, same bytes out.
    if len(digests) != 1:
        raise AssertionError(
            f"sweep results diverged across jobs values: {sorted(digests)}"
        )
    return {
        "benchmark": "sweep_scaling",
        "grid": {"modes": list(MODES), "loads_rps": loads,
                 "measure_ms": measure_ms},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "results": {str(jobs): rows[jobs] for jobs in sorted(rows)},
    }


# -- pytest smoke mode (used by CI) -----------------------------------------


def test_sweep_scaling_smoke():
    record = run_benchmark(
        jobs_list=SMOKE_JOBS, loads=SMOKE_LOADS, measure_ms=SMOKE_MEASURE_MS
    )
    print()
    print(json.dumps(record, indent=2))
    rows = record["results"]
    assert set(rows) == {str(j) for j in SMOKE_JOBS}
    for row in rows.values():
        assert row["points"] == len(MODES) * len(SMOKE_LOADS)
        assert row["elapsed_s"] > 0
    # run_benchmark already raised if the parallel digest diverged from
    # serial; restate the contract explicitly for the reader.
    digests = {row["result_digest"] for row in rows.values()}
    assert len(digests) == 1


# -- script mode ------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs-list", type=str, default="1,2,4",
                        help="comma-separated jobs values (default 1,2,4)")
    parser.add_argument("--loads", type=str, default="",
                        help="comma-separated RPS values for the grid")
    parser.add_argument("--measure-ms", type=float, default=FULL_MEASURE_MS)
    parser.add_argument("--json-file", default=None)
    parser.add_argument(
        "--check", action="store_true",
        help=f"exit non-zero unless jobs=4 reaches {SPEEDUP_BAR}x over serial "
             f"(enforced only on machines with >= 4 cores)",
    )
    args = parser.parse_args(argv)
    jobs_list = tuple(int(x) for x in args.jobs_list.split(","))
    loads = [int(x) for x in args.loads.split(",")] if args.loads else None
    record = run_benchmark(jobs_list=jobs_list, loads=loads,
                           measure_ms=args.measure_ms)
    text = json.dumps(record, indent=2)
    print(text)
    if args.json_file:
        with open(args.json_file, "w") as fh:
            fh.write(text + "\n")
    if args.check:
        cores = os.cpu_count() or 1
        row = record["results"].get("4")
        if row is None:
            print("FAIL: --check needs jobs=4 in --jobs-list", file=sys.stderr)
            return 1
        if cores < 4:
            print(
                f"check skipped: {SPEEDUP_BAR}x bar needs >= 4 cores, "
                f"this machine has {cores} "
                f"(measured {row['speedup_vs_serial']}x)",
                file=sys.stderr,
            )
            return 0
        if row["speedup_vs_serial"] < SPEEDUP_BAR:
            print(
                f"FAIL: jobs=4 speedup {row['speedup_vs_serial']}x below "
                f"the {SPEEDUP_BAR}x acceptance bar",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
