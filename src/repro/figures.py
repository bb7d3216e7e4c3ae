"""The paper's evaluation as one table: Table 2 and Figs. 7-12.

Each :class:`Figure` in :data:`FIGURES` is the one definition of a table
or figure: its CLI subcommand (name, help text, flags with defaults),
the sweep points it runs (none for the analytical Table 2 and Fig. 12),
the merge from point values to the figure's result, and the text
renderer. ``repro <name>`` runs one entry through the sweep runner;
``repro all`` joins every entry's points into one sweep and renders the
entries in table order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.analysis.series import ascii_sparkline
from repro.analysis.tables import format_table
from repro.hwcost.fpga import (
    llc_control_plane_cost,
    memory_control_plane_cost,
    table_pair_cost,
    tag_array_blockram_overhead,
    trigger_table_cost,
)
from repro.runner import SweepPoint
from repro.system.config import TABLE2
from repro.system.experiments import (
    QueueingResult,
    fig8_sweep_points,
    fig11_sweep_points,
    run_fig7,
    run_fig9,
    run_fig10,
)

# Options map a subcommand's flag names (``--phase-ms`` -> ``phase_ms``)
# to values: parsed arguments for ``repro <name>``, defaults for ``all``.
Points = Callable[[dict, int], list[SweepPoint]]


@dataclass(frozen=True)
class Figure:
    """One table or figure of the paper's evaluation."""

    name: str
    help: str
    merge: Callable[[list], Any]   # point values, in index order -> result
    render: Callable[[Any], None]  # prints the result to stdout
    flags: tuple[tuple[str, dict], ...] = ()  # (flag, add_argument kwargs)
    points: Optional[Points] = None  # (options, first index) -> points
    parallel: bool = False  # takes --jobs

    def defaults(self) -> dict:
        return {
            flag.lstrip("-").replace("-", "_"): kwargs["default"]
            for flag, kwargs in self.flags
        }

    def sweep_points(self, options: dict, first_index: int = 0) -> list[SweepPoint]:
        return self.points(options, first_index) if self.points else []


def _one_point(run: Callable, label: str, *params: str) -> Points:
    """A single point of ``run`` whose params are the named options."""
    def points(options: dict, first_index: int) -> list[SweepPoint]:
        return [SweepPoint(
            index=first_index, run=run,
            params={name: options[name] for name in params}, label=label,
        )]
    return points


def _fig8_points(options: dict, first_index: int) -> list[SweepPoint]:
    loads = [int(x) for x in options["loads"].split(",")] if options["loads"] else None
    return fig8_sweep_points(
        loads_rps=loads, measure_ms=options["measure_ms"], first_index=first_index
    )


def _fig11_points(options: dict, first_index: int) -> list[SweepPoint]:
    return fig11_sweep_points(
        inject_rate=options["inject"], num_requests=options["requests"],
        first_index=first_index,
    )


def _only(values: list) -> Any:
    (value,) = values
    return value


def render_table2(rows) -> None:
    print(format_table(["parameter", "value"], rows))


def render_fig7(timeline) -> None:
    for name, series in timeline.llc_occupancy_bytes.items():
        kb = [v / 1024 for v in series]
        print(f"{name:12s} LLC KB |{ascii_sparkline(kb)}| last={kb[-1]:.0f}")
    for when, what in timeline.events:
        print(f"  t={when:6.2f} ms  {what}")


def render_fig8(results) -> None:
    rows = [
        [r.mode, f"{r.paper_krps:.1f}", f"{r.p95_ms:.3f}", f"{r.mean_ms:.3f}",
         f"{r.cpu_utilization * 100:.0f}%", f"{(r.llc_miss_rate or 0) * 100:.1f}%",
         "yes" if r.trigger_fired else "no"]
        for r in results
    ]
    print(format_table(
        ["mode", "paper-KRPS", "p95 ms", "mean ms", "CPU util", "LLC miss", "trigger"],
        rows,
    ))


def render_fig9(timeline) -> None:
    for t, miss in zip(timeline.times_ms, timeline.miss_rates):
        marker = ""
        if timeline.trigger_time_ms is not None and abs(t - timeline.trigger_time_ms) < 0.25:
            marker = "  <-- trigger"
        print(f"t={t:6.2f} ms  miss={miss * 100:5.1f}%{marker}")
    print(f"final waymask: {timeline.final_waymask:#06x}")


def render_fig10(timeline) -> None:
    for i, t in enumerate(timeline.times_ms):
        a = timeline.bandwidth_share["ldom_a"][i] * 100
        b = timeline.bandwidth_share["ldom_b"][i] * 100
        print(f"t={t:7.1f} ms  LDom0={a:5.1f}%  LDom1={b:5.1f}%")
    print(f"quota change at t={timeline.quota_change_ms:.1f} ms")


def render_fig11(result) -> None:
    print(format_table(
        ["configuration", "mean delay (cycles)"],
        [
            ["w/o control plane", f"{result.baseline_mean_cycles:.1f}"],
            ["high priority", f"{result.high_priority_mean_cycles:.1f} "
                              f"({result.high_priority_speedup:.1f}x faster)"],
            ["low priority", f"{result.low_priority_mean_cycles:.1f} "
                             f"({result.low_priority_slowdown_pct:+.1f}%)"],
        ],
    ))


def fig12_rows() -> list[list]:
    """Fig. 12's sweep: table pairs at 64/128/256 entries and trigger
    tables at 16/32/64 entries, for both control planes."""
    rows = []
    for plane in ("LLC", "Memory"):
        for entries in (64, 128, 256):
            cost = table_pair_cost(entries, llc_datapath=(plane == "LLC"))
            rows.append([plane, f"param+stats {entries}", cost.lut, cost.lutram, cost.ff])
        for triggers in (16, 32, 64):
            cost = trigger_table_cost(triggers)
            rows.append([plane, f"trigger {triggers}", cost.lut, cost.lutram, cost.ff])
    return rows


def render_fig12(rows) -> None:
    print(format_table(["plane", "component", "LUT", "LUTRAM", "FF"], rows))
    memory = memory_control_plane_cost()
    llc = llc_control_plane_cost()
    extra, total = tag_array_blockram_overhead()
    print(f"\nmemory CP: {memory.total.lut_ff} LUT/FF "
          f"({memory.overhead_fraction * 100:.1f}% of MIG)")
    print(f"LLC CP:    {llc.total.lut_ff} LUT/FF "
          f"({llc.overhead_fraction * 100:.1f}% of T1 LLC)")
    print(f"tag array: +{extra} blockRAMs (12 -> {total})")


FIGURES: tuple[Figure, ...] = (
    Figure("table2", "print Table 2",
           merge=lambda _values: TABLE2.describe(), render=render_table2),
    Figure("fig7", "dynamic partitioning timeline",
           flags=(("--phase-ms", {"type": float, "default": 1.0}),),
           points=_one_point(run_fig7, "fig7", "phase_ms"), merge=_only,
           render=render_fig7),
    Figure("fig8", "tail latency vs load",
           flags=(("--loads", {"type": str, "default": "",
                               "help": "comma-separated RPS values"}),
                  ("--measure-ms", {"type": float, "default": 2.0})),
           points=_fig8_points, merge=list, render=render_fig8, parallel=True),
    Figure("fig9", "miss-rate trigger timeline",
           flags=(("--rps", {"type": float, "default": 300_000}),
                  ("--total-ms", {"type": float, "default": 5.0})),
           points=_one_point(run_fig9, "fig9", "rps", "total_ms"), merge=_only,
           render=render_fig9),
    Figure("fig10", "disk bandwidth isolation",
           flags=(("--phase-ms", {"type": float, "default": 160.0}),),
           points=_one_point(run_fig10, "fig10", "phase_ms"), merge=_only,
           render=render_fig10),
    Figure("fig11", "memory queueing delay",
           flags=(("--inject", {"type": float, "default": 0.75,
                                "help": "fraction of measured saturation bandwidth"}),
                  ("--requests", {"type": int, "default": 6000})),
           points=_fig11_points, merge=lambda values: QueueingResult.from_points(*values),
           render=render_fig11, parallel=True),
    Figure("fig12", "FPGA resource model",
           merge=lambda _values: fig12_rows(), render=render_fig12),
)
