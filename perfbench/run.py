#!/usr/bin/env python3
"""The repository benchmark: simulated time per host second on the paper's
own workloads, and where the host time goes, layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload fig8-shared --seed 42 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the point untraced once, then again under
:class:`layertrace.LayerTracer`, and reports the per-layer metrics.
Both print, as the last line of standard output, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the run metadata. The same record, with the simulated
outputs (and, traced, every span's totals), is written to
``perfbench/out/``.

Each point's simulated outputs are checked. On the workload's default
seed they must equal ``pinned.json``; on any other seed the paper's shape
must hold (Fig. 8: shared p95 above solo p95 at the same load and seed,
which runs the other fig8 workload as a companion; Fig. 11: high-priority
mean queueing delay below the baseline's and the low-priority class's). Repeats of a point in one run
must agree exactly, and a traced point must equal its untraced run.
Any mismatch counts as a failed operation. ``--pin`` re-records the
pinned outputs of the default seed.

The model is validated against the paper in shape only (EXPERIMENTS.md);
no error figure against the paper is claimed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = HERE / "pinned.json"
OUT = HERE / "out"

# name -> (unit, better). BENCHMARK.json lists the same names and units;
# selftest.py checks that they agree.
END_TO_END = {
    "sim_us_per_s": ("us/s", "higher"),
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "cache.self_share": ("fraction", "lower"),
    "cache.calls": ("count", "lower"),
    "cache.l1_miss_rate": ("fraction", "lower"),
    "cache.llc_miss_rate": ("fraction", "lower"),
    "cache.mshr_merges": ("count", "higher"),
    "cache.mshr_full_retries": ("count", "lower"),
    "dram.self_share": ("fraction", "lower"),
    "dram.calls": ("count", "lower"),
    "dram.requests": ("count", "lower"),
    "dram.row_hit_rate": ("fraction", "higher"),
    "dram.qdelay_cycles_mean": ("cycles", "lower"),
    "sim.self_share": ("fraction", "lower"),
    "sim.events": ("count", "lower"),
    "sim.host_ns_per_event": ("ns", "lower"),
    "sim.events_per_access": ("events/access", "lower"),
    "cpu.self_share": ("fraction", "lower"),
    "cpu.memory_accesses": ("count", "higher"),
    "cpu.busy_share": ("fraction", "higher"),
    "workloads.self_share": ("fraction", "lower"),
    "workloads.ops": ("count", "higher"),
    "workloads.requests_served": ("count", "higher"),
    "core.self_share": ("fraction", "lower"),
    "core.calls": ("count", "lower"),
    "core.interrupts_raised": ("count", "lower"),
    "prm.self_share": ("fraction", "lower"),
    "system.self_share": ("fraction", "lower"),
    "telemetry.self_share": ("fraction", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

# Set-up is milliseconds for fig8 and ~0.1 s for fig11, so it is sampled
# many times per run and reported as the median.
SETUP_REPEATS = {"fig8-shared": 51, "fig8-solo": 51, "fig11-dram": 15}

# Traced-run sanity: the reported layers' self shares sum to 1 within this
# residual (the rest is packages not reported: io, icn, runner, ...), and
# a layer a workload never enters reads at most NEGLIGIBLE_SHARE.
SHARE_RESIDUAL = 0.02
NEGLIGIBLE_SHARE = 0.001
REPORTED_LAYERS = ("sim", "cache", "dram", "cpu", "workloads", "core", "prm",
                   "system", "telemetry")


def import_repro():
    """Import ``repro`` from this checkout's ``src``; exit if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import repro from {src}: {error}")
    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not {src}")


def git_revision() -> str | None:
    """The checked-out commit, read from ``.git`` without a subprocess."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, point) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": point.default_seed,
        "params": point.params(args.short),
        "seconds": args.seconds,
        "trace": args.trace,
        "short": args.short,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load_pinned() -> dict:
    try:
        return json.loads(PINNED.read_text())
    except FileNotFoundError:
        return {}


class Bench:
    """Runs one workload at one seed and counts checked operations."""

    def __init__(self, workloads: dict, name: str, seed: int, short: bool):
        self.workloads = workloads
        self.point = workloads[name]
        self.seed = seed
        self.short = short
        self.pinned = load_pinned()
        self.attempted = 0
        self.failed = 0
        self.simulated_ps = []
        self.outputs = {}
        self.tracers = {}

    # -- checks ---------------------------------------------------------------

    def _fail(self, message: str) -> None:
        self.failed += 1
        print(f"perfbench: FAILED: {message}", file=sys.stderr)

    def _pinned_outputs(self, name: str):
        """Pinned outputs for ``name`` when this run is at its pinned seed."""
        entry = self.pinned.get(name)
        if self.short or entry is None or entry["seed"] != self.seed:
            return None
        return entry["outputs"]

    def run_point(self, name: str, tracer=None, reference=None):
        """Run ``name``'s point, check its outputs, count the operation.

        ``reference`` is an earlier run of the same point in this process;
        a repeat must reproduce its outputs exactly.
        """
        self.attempted += 1
        run = self.workloads[name].point(self.seed, self.short, tracer)
        self.simulated_ps.append(run.sim_ps)
        pinned = self._pinned_outputs(name)
        if reference is not None and run.outputs != reference.outputs:
            self._fail(f"{name}: outputs differ between repeats: "
                       f"{run.outputs} != {reference.outputs}")
        elif pinned is not None and run.outputs != pinned:
            self._fail(f"{name}: outputs differ from pinned.json: "
                       f"{run.outputs} != {pinned}")
        self.outputs.setdefault(name, run.outputs)
        return run

    def _shape_checked(self) -> bool:
        """Full-length runs without pinned outputs check the paper's shape."""
        return not self.short and self._pinned_outputs(self.point.name) is None

    def check_shape(self, run, companion_run=None) -> None:
        if not self._shape_checked():
            return
        companion_outputs = companion_run.outputs if companion_run else None
        error = self.point.shape_error(run.outputs, companion_outputs)
        if error is not None:
            self._fail(f"{self.point.name} seed {self.seed}: {error}")

    # -- the two kinds of run ---------------------------------------------------

    def run_untraced(self, seconds: float) -> dict:
        """End-to-end metrics: medians over set-up samples and repeats."""
        setups = [
            self.point.setup_once(self.seed, self.short)
            for _ in range(SETUP_REPEATS[self.point.name])
        ]
        runs = []
        start = time.perf_counter()
        while True:
            runs.append(self.run_point(self.point.name,
                                       reference=runs[0] if runs else None))
            # Stop before a further repeat would overrun the run's time.
            if time.perf_counter() - start + runs[-1].wall_s > seconds:
                break
        peak = peak_rss_mb()  # before any companion point
        companion = None
        if self.point.companion is not None and self._shape_checked():
            companion = self.run_point(self.point.companion)
        self.check_shape(runs[0], companion)
        return {
            "sim_us_per_s": statistics.median(r.sim_us_per_s for r in runs),
            "wall_s": statistics.median(r.wall_s for r in runs),
            "setup_s": statistics.median(setups + [r.setup_s for r in runs]),
            "peak_rss_mb": peak,
        }

    def run_traced(self) -> dict:
        """Per-layer metrics from a traced point, plus the tracing overhead."""
        from layertrace import LayerTracer

        name = self.point.name
        untraced = self.run_point(name)
        with LayerTracer() as tracer:
            traced = self.run_point(name, tracer=tracer, reference=untraced)
        self.tracers[name] = tracer
        companion = None
        if self.point.companion is not None and not self.short:
            with LayerTracer() as companion_tracer:
                companion = self.run_point(self.point.companion, tracer=companion_tracer)
            self.tracers[self.point.companion] = companion_tracer
        self.check_shape(traced, companion)
        metrics = layer_metrics(tracer, traced, untraced)
        self.check_trace(name, metrics)
        if companion is not None:
            self.check_dram_shares({
                name: metrics["dram.self_share"],
                self.point.companion: companion_tracer.self_share("dram"),
            })
        return metrics

    def check_trace(self, name: str, metrics: dict) -> None:
        shares = sum(metrics[f"{layer}.self_share"] for layer in REPORTED_LAYERS)
        if abs(1.0 - shares) > SHARE_RESIDUAL:
            self._fail(f"{name}: layer self shares sum to {shares:.4f}, "
                       f"not 1 within {SHARE_RESIDUAL}")
        negligible = ["telemetry"]
        if name == "fig11-dram":
            negligible += ["cache", "cpu"]
        for layer in negligible:
            share = metrics[f"{layer}.self_share"]
            if share > NEGLIGIBLE_SHARE:
                self._fail(f"{name}: {layer}.self_share {share:.4f} should be ~0")

    def check_dram_shares(self, shares: dict) -> None:
        """fig8-solo spends a smaller share of host time in dram than fig8-shared."""
        if not shares["fig8-solo"] < shares["fig8-shared"]:
            self._fail(f"dram.self_share: fig8-solo {shares['fig8-solo']:.4f} is not "
                       f"below fig8-shared {shares['fig8-shared']:.4f}")


def layer_metrics(tracer, traced, untraced) -> dict:
    """The per-layer metrics of one traced point."""
    calls = tracer.calls_by_package()
    counters = traced.counters
    metrics = {f"{layer}.self_share": tracer.self_share(layer) for layer in REPORTED_LAYERS}
    metrics.update({
        "cache.calls": calls.get("cache", 0),
        "cache.l1_miss_rate": counters["l1_miss_rate"],
        "cache.llc_miss_rate": counters["llc_miss_rate"],
        "cache.mshr_merges": counters["mshr_merges"],
        "cache.mshr_full_retries": tracer.mshr_full_retries,
        "dram.calls": calls.get("dram", 0),
        "dram.requests": counters["dram_requests"],
        "dram.row_hit_rate": tracer.row_hits / max(1, tracer.bank_accesses),
        "dram.qdelay_cycles_mean": counters["qdelay_cycles_mean"],
        "sim.events": counters["events"],
        "sim.host_ns_per_event": untraced.sim_host_s * 1e9 / counters["events"],
        "sim.events_per_access": counters["events"] / max(1, counters["accesses"]),
        "cpu.memory_accesses": counters["memory_accesses"],
        "cpu.busy_share": counters["busy_share"],
        "workloads.ops": sum(
            stat[0] for (package, qualname), stat in tracer.stats.items()
            if package == "workloads" and qualname.endswith(".ops")
        ),
        "workloads.requests_served": counters["requests_served"],
        "core.calls": calls.get("core", 0),
        "core.interrupts_raised": counters["interrupts_raised"],
        "trace.overhead": traced.wall_s / untraced.wall_s,
    })
    return metrics


def write_record(meta: dict, result: dict, bench) -> None:
    record = dict(meta, result=result, outputs=bench.outputs)
    if bench.tracers:
        record["spans"] = {name: tracer.span_table()
                           for name, tracer in bench.tracers.items()}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def pin(workloads: dict, name: str) -> None:
    """Record the default seed's outputs of ``name`` in pinned.json."""
    point = workloads[name]
    pinned = load_pinned()
    run = point.point(point.default_seed, short=False)
    pinned[name] = {"seed": point.default_seed, "outputs": run.outputs}
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"pinned {name} seed {point.default_seed}: {run.outputs}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fig8-shared", "fig8-solo", "fig11-dram"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="host seconds of repeated points to measure")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--short", action="store_true",
                        help="self-test length: same code paths, little simulated "
                             "time, no pinned or shape checks")
    parser.add_argument("--pin", action="store_true",
                        help="re-record pinned.json for the workload's default seed")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_repro()
    import points

    workloads = points.workloads()
    if args.pin:
        pin(workloads, args.workload)
        return 0
    point = workloads[args.workload]
    if args.seed is None:
        args.seed = point.default_seed
    meta = metadata(args, point)
    bench = Bench(workloads, args.workload, args.seed, args.short)
    metrics = {}
    try:
        if args.trace:
            layer = bench.run_traced()
            metrics = {name: {"value": layer[name], "unit": unit}
                       for name, (unit, _better) in PER_LAYER.items()}
        else:
            e2e = bench.run_untraced(args.seconds)
            metrics = {name: {"value": e2e[name], "unit": unit}
                       for name, (unit, _better) in END_TO_END.items()}
    # simlint: disable=EXC001 -- a crash counts as a failed operation
    except Exception:
        traceback.print_exc()
        bench.failed += 1
        bench.attempted = max(bench.attempted, 1)
    meta["simulated_ps"] = bench.simulated_ps  # per point run, in run order
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    write_record(meta, result, bench)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
