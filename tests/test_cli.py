"""Tests for the command-line interface."""

import pickle

import pytest

import repro.cli as cli
from repro.cli import build_parser, main
from repro.figures import FIGURES, Figure
from repro.runner import SweepPoint


def run_broken(telemetry=None):
    raise RuntimeError("broken point")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for name in ("table2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "all"):
            args = parser.parse_args([name])
            assert callable(args.fn)

    def test_fig8_load_parsing(self):
        args = build_parser().parse_args(["fig8", "--loads", "100,200", "--measure-ms", "1.5"])
        assert args.loads == "100,200"
        assert args.measure_ms == 1.5


class TestCommands:
    def test_table2_prints_configuration(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "CPU" in out and "4MB" in out and "DDR3-1600" in out

    def test_fig12_prints_anchors(self, capsys):
        assert main(["fig12"]) == 0
        out = capsys.readouterr().out
        assert "1526" in out and "10.1%" in out
        assert "2359" in out and "3.1%" in out

    def test_fig11_runs(self, capsys):
        assert main(["fig11", "--requests", "1200"]) == 0
        out = capsys.readouterr().out
        assert "high priority" in out
        assert "x faster" in out

    @pytest.mark.slow
    def test_fig9_runs_small(self, capsys):
        assert main(["fig9", "--rps", "150000", "--total-ms", "3.0"]) == 0
        out = capsys.readouterr().out
        assert "final waymask" in out
        assert "trigger" in out


class TestFigureTable:
    def test_default_points_pickle(self):
        # Every default point must reach a pool worker intact: its run
        # function by name, its params (setups included) by value.
        for figure in FIGURES:
            for point in figure.sweep_points(figure.defaults()):
                assert pickle.loads(pickle.dumps(point)) == point, figure.name

    def test_all_keeps_going_past_failed_figures(self, capsys, monkeypatch):
        def unbuildable(_options, _first_index):
            raise RuntimeError("no points")

        def broken_point(_options, first_index):
            return [SweepPoint(index=first_index, run=run_broken,
                               params={}, label="lost")]

        table2, fig12 = FIGURES[0], FIGURES[-1]
        monkeypatch.setattr(cli, "FIGURES", (
            table2,
            Figure("unbuildable", "", merge=list, render=print, points=unbuildable),
            Figure("pointless", "", merge=list, render=print, points=broken_point),
            fig12,
        ))
        assert main(["all", "--jobs", "1"]) == 1
        captured = capsys.readouterr()
        assert "=== fig12" in captured.out and "1526" in captured.out
        summary = captured.out.split("=== summary")[1].splitlines()
        status = {line.split()[0]: line.split()[1] for line in summary[3:] if line}
        assert status == {"table2": "ok", "unbuildable": "FAILED",
                          "pointless": "FAILED", "fig12": "ok"}
        assert "1/1 points failed" in captured.out
        assert "[unbuildable] failed: RuntimeError: no points" in captured.err
