"""Golden CLI output: every subcommand's stdout and ``--help`` text.

The files under ``tests/golden/cli/`` hold the exact bytes
``repro.cli.main`` prints for each case below (reduced grids, so the
tier-1 cases run in a few seconds). A mismatch fails with a unified
diff. After an intentional output change, rewrite the files with::

    PYTHONPATH=src python tests/test_cli_golden.py

and say in the change description why the output moved.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli"

# (golden file stem, argv) for the stdout of one run.
RUNS = [
    ("table2", ["table2"]),
    ("fig12", ["fig12"]),
    ("fig11", ["fig11", "--requests", "1200", "--jobs", "1"]),
    ("fig7", ["fig7", "--phase-ms", "0.25"]),
    ("fig10", ["fig10", "--phase-ms", "20"]),
    ("fig9", ["fig9", "--rps", "150000", "--total-ms", "0.5"]),
]
SLOW_RUNS = [
    ("fig8", ["fig8", "--loads", "150000", "--measure-ms", "0.2"]),
]
# Subcommands whose --help text is pinned ("repro" is the top level).
HELPS = ["repro", "table2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "all"]


def capture(argv: list[str]) -> str:
    """Run the CLI in-process and return its stdout (``--help`` exits 0)."""
    out = io.StringIO()
    # argparse wraps help text to the terminal width; pin it.
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == 0, f"repro {' '.join(argv)} exited {code}"
    return out.getvalue()


def help_argv(command: str) -> list[str]:
    return ["--help"] if command == "repro" else [command, "--help"]


def check(stem: str, argv: list[str]) -> None:
    path = GOLDEN / f"{stem}.txt"
    expected = path.read_text()
    actual = capture(argv)
    if actual != expected:
        diff = "".join(difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile=str(path), tofile=f"repro {' '.join(argv)}",
        ))
        pytest.fail(f"CLI output differs from {path.name}:\n{diff}", pytrace=False)


@pytest.mark.parametrize("stem,argv", RUNS, ids=[stem for stem, _ in RUNS])
def test_stdout_matches_golden(stem, argv):
    check(stem, argv)


@pytest.mark.slow
@pytest.mark.parametrize("stem,argv", SLOW_RUNS, ids=[stem for stem, _ in SLOW_RUNS])
def test_slow_stdout_matches_golden(stem, argv):
    check(stem, argv)


@pytest.mark.parametrize("command", HELPS)
def test_help_matches_golden(command):
    check(f"{command}.help", help_argv(command))


def regenerate() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    cases = RUNS + SLOW_RUNS + [(f"{c}.help", help_argv(c)) for c in HELPS]
    for stem, argv in cases:
        (GOLDEN / f"{stem}.txt").write_text(capture(argv))
        print(f"wrote {stem}.txt", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
