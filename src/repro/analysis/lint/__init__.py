"""``repro.analysis.lint`` — AST-based simulation-safety linter.

A from-scratch, stdlib-only static-analysis framework enforcing the
invariants the reproduction's guarantees rest on: no wall-clock or
process-global randomness in simulated code (DET), event scheduling
only through the engine (EVT), telemetry that observes without
perturbing (TEL), picklable pure sweep-point functions (RUN) and
exception hygiene (EXC).

Entry points: ``python -m repro.analysis``, the ``repro-lint`` console
script, ``repro lint`` and the :func:`repro.analysis.lint.gate.lint_gate`
pre-flight used by ``repro all --lint-gate``.
"""

from repro.analysis.lint.baseline import Baseline, DEFAULT_BASELINE_NAME
from repro.analysis.lint.engine import (
    LintTarget,
    default_targets,
    lint_source,
    run_lint,
)
from repro.analysis.lint.findings import Finding, LintResult, Severity
from repro.analysis.lint.gate import check_tree, lint_gate
from repro.analysis.lint.registry import (
    PROFILES,
    Profile,
    Rule,
    all_rules,
    get_profile,
    get_rule,
    register_rule,
    rule_examples,
)
from repro.analysis.lint.reporters import render_json, render_text

__all__ = [
    "Baseline",
    "DEFAULT_BASELINE_NAME",
    "Finding",
    "LintResult",
    "LintTarget",
    "PROFILES",
    "Profile",
    "Rule",
    "Severity",
    "all_rules",
    "check_tree",
    "default_targets",
    "get_profile",
    "get_rule",
    "lint_gate",
    "lint_source",
    "register_rule",
    "render_json",
    "render_text",
    "rule_examples",
    "run_lint",
]
