"""Bytecodes per simulated event, and which repro package executes them.

Wall time on a shared 2-core box moves by +-20% between identical runs;
the number of bytecodes the interpreter executes for a fixed simulated
schedule does not. This script counts them with ``sys.settrace`` and
``f_trace_opcodes``, switched on only inside ``Engine.run`` (set-up is
not counted), for two short points:

- ``fig8-shared``: the Fig. 8 colocated point (memcached + STREAM at
  333k rps, seed 42), 0.3 ms warm-up + 0.3 ms measured: the full
  cpu -> L1 -> LLC -> DRAM miss path;
- ``fig11-dram``: the Fig. 11 saturation probe and both controller
  points (seed 7): only the memory controller and the engine.

For each it prints the events executed, bytecodes per event, Python
calls per event, and each package's share of the bytecodes (a frame is
charged to the package of the module that defines its code). The count
is a report, not a gate: there is no threshold. Tracing makes the run
about 20-50x slower, so ``--short`` cuts the points to a few thousand
events for a smoke run::

    PYTHONPATH=src python benchmarks/bench_bytecodes.py [--short] [--top N]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys

from repro.sim.engine import Engine

FIG8_RPS = 333_000
FIG8_MS = (0.3, 0.3)  # (warm-up, measured)
FIG11_REQUESTS = (1000, 3000)  # (saturation probe, each controller point)
SHORT_FIG8_MS = (0.02, 0.02)
SHORT_FIG11_REQUESTS = (200, 300)
FIG11_INJECT_RATE = 0.75
FIG11_ROW_HIT_FRACTION = 0.5


def package_of(module: str) -> str:
    """``repro.cache.cache`` -> ``cache``; anything outside repro -> ``other``."""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return "other"


class OpcodeCounter:
    """Counts executed bytecodes per package while installed on ``Engine.run``."""

    def __init__(self) -> None:
        self.opcodes: dict[str, int] = {}
        self.calls = 0
        self.events = 0
        self._counters: dict[object, list[int]] = {}  # code -> [opcodes]
        self._packages: dict[object, str] = {}

    def _global_trace(self, frame, event, arg):
        code = frame.f_code
        cell = self._counters.get(code)
        if cell is None:
            cell = self._counters[code] = [0]
            self._packages[code] = package_of(frame.f_globals.get("__name__", ""))
        self.calls += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True

        def local_trace(frame, event, arg):
            if event == "opcode":
                cell[0] += 1
            return local_trace
        return local_trace

    def __enter__(self) -> "OpcodeCounter":
        original = self._original = Engine.run
        counter = self

        def run(engine, until_ps=None):
            before = engine.executed_total
            sys.settrace(counter._global_trace)
            try:
                return original(engine, until_ps)
            finally:
                sys.settrace(None)
                counter.events += engine.executed_total - before
        Engine.run = run
        return self

    def __exit__(self, *exc) -> None:
        Engine.run = self._original
        for code, (count,) in self._counters.items():
            package = self._packages[code]
            self.opcodes[package] = self.opcodes.get(package, 0) + count

    def report(self, top: int = 0) -> dict:
        total = sum(self.opcodes.values())
        events = max(1, self.events)
        hottest = sorted(self._counters.items(), key=lambda kv: -kv[1][0])[:top]
        return {
            "events": self.events,
            "bytecodes": total,
            "bytecodes_per_event": round(total / max(1, self.events), 1),
            "calls_per_event": round(self.calls / max(1, self.events), 2),
            "package_shares": {
                package: round(count / total, 4)
                for package, count in sorted(self.opcodes.items(), key=lambda kv: -kv[1])
            },
            "top_functions_per_event": {
                f"{self._packages[code]}:{code.co_qualname}": round(count / events, 1)
                for code, (count,) in hottest
            },
        }


def fig8_shared(short: bool) -> None:
    from repro.system.experiments import ColocationSetup, run_colocation_point

    warmup_ms, measure_ms = SHORT_FIG8_MS if short else FIG8_MS
    run_colocation_point("shared", FIG8_RPS, setup=ColocationSetup(warmup_ms=warmup_ms),
                         measure_ms=measure_ms, seed=42)


def fig11_dram(short: bool) -> None:
    from repro.system.experiments import measure_saturation_rate, run_fig11_controller_point

    probe, requests = SHORT_FIG11_REQUESTS if short else FIG11_REQUESTS
    saturation = measure_saturation_rate(num_requests=probe, seed=7,
                                         row_hit_fraction=FIG11_ROW_HIT_FRACTION)
    for with_control_plane in (False, True):
        run_fig11_controller_point(with_control_plane, FIG11_INJECT_RATE * saturation,
                                   requests, 7, FIG11_ROW_HIT_FRACTION, False)


POINTS = {"fig8-shared": fig8_shared, "fig11-dram": fig11_dram}


def run_benchmark(short: bool, top: int = 0) -> dict:
    points = {}
    for name, point in POINTS.items():
        with OpcodeCounter() as counter:
            point(short)
        points[name] = counter.report(top)
    return {
        "benchmark": "bytecodes",
        "short": short,
        "python": platform.python_version(),
        "points": points,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--short", action="store_true",
                        help="smoke length: a few thousand events per point")
    parser.add_argument("--top", type=int, default=0,
                        help="also list the N functions with the most bytecodes per event")
    args = parser.parse_args(argv)
    print(json.dumps(run_benchmark(args.short, args.top), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
