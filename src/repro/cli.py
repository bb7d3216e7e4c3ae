"""Command-line interface: regenerate any of the paper's experiments.

Usage::

    python -m repro table2
    python -m repro fig8 --loads 222000,333000,500000 --measure-ms 2.0 --jobs 4
    python -m repro fig9
    python -m repro fig10
    python -m repro fig11 --inject 0.75
    python -m repro fig12
    python -m repro all --jobs 4

Each subcommand builds the system, runs the experiment and prints the
same rows/series the benchmark harness does; the benchmarks additionally
assert the expected shapes.

Grid-shaped subcommands (``fig8``, ``fig11``, ``all``) accept
``--jobs N`` to fan independent simulation points out over N worker
processes (default: all cores). Results and telemetry artifacts are
merged by point index, so the output is byte-identical at any ``--jobs``
value; ``--jobs 1`` is the exact serial path. ``all`` runs every figure
even when one fails, prints a per-figure pass/fail summary, and exits
nonzero only at the end.
"""

from __future__ import annotations

import argparse
import sys
import textwrap
import traceback
from typing import Optional, Sequence

from repro.analysis.tables import format_table
from repro.figures import FIGURES
from repro.runner import SweepPoint, default_jobs, run_sweep
from repro.telemetry import Telemetry


def _add_telemetry_args(subparser: argparse.ArgumentParser) -> None:
    group = subparser.add_argument_group("telemetry")
    group.add_argument("--metrics-out", type=str, default=None, metavar="FILE",
                       help="write metric snapshots as JSONL")
    group.add_argument("--trace-out", type=str, default=None, metavar="FILE",
                       help="write sampled packet spans as a Chrome trace")
    group.add_argument("--span-sample", type=int, default=100, metavar="N",
                       help="record every Nth eligible packet (default 100)")
    group.add_argument("--metrics-every-ms", type=float, default=1.0,
                       help="snapshot period in sim ms (default 1.0)")


def _add_jobs_arg(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for independent grid points "
             "(default: all cores; 1 = exact serial path)",
    )


def _jobs_from(args) -> int:
    jobs = getattr(args, "jobs", 1)
    return jobs if jobs is not None else default_jobs()


def _telemetry_from(args) -> Optional[Telemetry]:
    """Build a Telemetry hub only when an export was requested."""
    if not (getattr(args, "metrics_out", None) or getattr(args, "trace_out", None)):
        return None
    return Telemetry(
        span_sample=max(1, args.span_sample),
        snapshot_period_ms=args.metrics_every_ms,
    )


def _export_telemetry(telemetry: Optional[Telemetry], args) -> None:
    if telemetry is None:
        return
    if args.metrics_out:
        rows = telemetry.export_metrics_jsonl(args.metrics_out)
        print(f"wrote {rows} metric rows to {args.metrics_out}", file=sys.stderr)
    if args.trace_out:
        events = telemetry.export_chrome_trace(args.trace_out)
        print(
            f"wrote {events} trace events ({len(telemetry.spans)} spans, "
            f"{telemetry.spans.dropped} dropped) to {args.trace_out}",
            file=sys.stderr,
        )


# -- subcommands -------------------------------------------------------------


def cmd_one(args) -> int:
    """Run one entry of the figure table and print its result."""
    figure = args.figure
    telemetry = _telemetry_from(args)
    sweep = run_sweep(
        figure.sweep_points(vars(args)), jobs=_jobs_from(args), telemetry=telemetry
    )
    sweep.raise_on_failure()
    result = figure.merge(sweep.values())
    _export_telemetry(telemetry, args)
    figure.render(result)
    return 0


def cmd_lint(args) -> int:
    """Forward to the simulation-safety linter's own CLI."""
    from repro.analysis.lint.cli import main as lint_main

    return lint_main(args.lint_args)


def cmd_all(args) -> int:
    """Every table and figure; simulation points fan out over ``--jobs``.

    Every entry of :data:`repro.figures.FIGURES` contributes its points,
    at its flags' defaults, to one sweep grid (Fig. 8 a point per mode x
    load, Fig. 11 its two controller points, Figs. 7/9/10 one point
    each), so the whole evaluation parallelizes across cores; the
    entries are then rendered in table order. Every figure runs even
    when another fails; a per-figure pass/fail summary is printed at the
    end and only then does a failure turn into a nonzero exit.

    ``--lint-gate`` is a cheap pre-flight for long sweeps: refuse to
    start if the tree has ERROR-severity lint findings (wall-clock,
    global randomness, raw event queues) that would poison every point.
    """
    if getattr(args, "lint_gate", False):
        from repro.analysis.lint.gate import lint_gate

        if not lint_gate():
            return 2

    telemetry = _telemetry_from(args)

    def banner(name: str) -> None:
        print(f"\n=== {name} " + "=" * (60 - len(name)))

    def run_local(name: str, fn):
        """Call ``fn`` in this process; returns ``(value, failure detail)``.

        A failure is reported under the figure's name with its full
        traceback and does not stop the other figures.
        """
        try:
            return fn(), ""
        except Exception as exc:  # intentionally broad: `all` keeps going
            print(f"[{name}] failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            print(textwrap.indent(traceback.format_exc(), f"[{name}] "),
                  file=sys.stderr, end="")
            return None, f"{type(exc).__name__}: {exc}"

    # (figure, its points, why building them failed)
    plan: list[tuple] = []
    points: list[SweepPoint] = []
    for figure in FIGURES:
        figure_points, error = run_local(
            figure.name,
            lambda: figure.sweep_points(figure.defaults(), len(points)),
        )
        plan.append((figure, figure_points or [], error))
        points += figure_points or []
    sweep = run_sweep(
        points, jobs=_jobs_from(args), telemetry=telemetry, progress=True
    )
    by_index = {pr.index: pr for pr in sweep.points}
    statuses: list[tuple[str, bool, str]] = []
    for figure, figure_points, error in plan:
        banner(figure.name)
        results = [by_index[p.index] for p in figure_points]
        failures = [pr for pr in results if not pr.ok]
        for pr in failures:
            print(f"point {pr.label} failed:\n{pr.error}")
        if failures:
            error = f"{len(failures)}/{len(results)} points failed"
        elif not error:
            _, error = run_local(figure.name, lambda: figure.render(
                figure.merge([pr.value for pr in results])
            ))
        statuses.append((figure.name, not error, error))
    _export_telemetry(telemetry, args)

    banner("summary")
    print(format_table(
        ["figure", "status", "detail"],
        [[name, "ok" if ok else "FAILED", detail]
         for name, ok, detail in statuses],
    ))
    return 0 if all(ok for _name, ok, _detail in statuses) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PARD (ASPLOS'15) reproduction: regenerate the paper's experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for figure in FIGURES:
        command = sub.add_parser(figure.name, help=figure.help)
        for flag, kwargs in figure.flags:
            command.add_argument(flag, **kwargs)
        if figure.parallel:
            _add_jobs_arg(command)
        if figure.points is not None:
            _add_telemetry_args(command)
        command.set_defaults(fn=cmd_one, figure=figure)

    everything = sub.add_parser(
        "all", help="run everything (figures keep going past failures)"
    )
    _add_jobs_arg(everything)
    _add_telemetry_args(everything)
    everything.add_argument(
        "--lint-gate", action="store_true",
        help="refuse to run if the tree has ERROR-severity lint findings",
    )
    everything.set_defaults(fn=cmd_all)

    lint = sub.add_parser(
        "lint",
        help="simulation-safety linter (same as python -m repro.analysis)",
    )
    lint.add_argument("lint_args", nargs=argparse.REMAINDER, metavar="...",
                      help="arguments forwarded to repro-lint")
    lint.set_defaults(fn=cmd_lint)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "lint":
        # Forwarded verbatim: argparse.REMAINDER drops leading options
        # (bpo-17050), so the linter gets its own argv untouched.
        from repro.analysis.lint.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
