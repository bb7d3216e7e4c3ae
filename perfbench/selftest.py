#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that ``BENCHMARK.json`` names the same workloads and the same
metrics (name, unit and direction) as ``run.py``, that it records why each
workload was chosen and that the model is validated in shape only, and
that a short-length run of every workload, untraced and traced, completes
correctly and prints exactly the metrics ``BENCHMARK.json`` lists. It
takes about half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark's own module, beside this file)


def _spec(entries: list[dict]) -> dict:
    return {entry["name"]: (entry["unit"], entry["better"]) for entry in entries}


def check_benchmark_json(bench: dict) -> list[str]:
    errors = []
    if _spec(bench["end_to_end"]) != run.END_TO_END:
        errors.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if _spec(bench["per_layer"]) != run.PER_LAYER:
        errors.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    names = [workload["name"] for workload in bench["workloads"]]
    if sorted(names) != sorted(run.SETUP_REPEATS):
        errors.append(f"BENCHMARK.json workloads {names} differ from run.py's")
    if not all(workload["why"].strip() for workload in bench["workloads"]):
        errors.append("a workload in BENCHMARK.json does not say why it was chosen")
    if not any("EXPERIMENTS.md" in workload["why"] for workload in bench["workloads"]):
        errors.append("BENCHMARK.json does not record the shape-only validation")
    return errors


def check_short_run(workload: str, trace: int) -> list[str]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace), "--short"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    label = f"{workload} --trace {trace}"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return [f"{label}: exit {done.returncode}\n{done.stderr}"]
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{label}: not correct: {result}")
    expected = run.PER_LAYER if trace else run.END_TO_END
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if printed != {name: unit for name, (unit, _better) in expected.items()}:
        errors.append(f"{label}: printed metrics {printed}")
    return errors


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_benchmark_json(bench)
    for workload in bench["workloads"]:
        for trace in (0, 1):
            errors += check_short_run(workload["name"], trace)
    for error in errors:
        print(f"selftest: {error}", file=sys.stderr)
    print("selftest: ok" if not errors else f"selftest: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
