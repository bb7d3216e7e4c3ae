"""RUN rules: sweep points must run pure, picklable module-level functions.

The parallel runner's serial-vs-parallel byte-equality guarantee holds
because a :class:`SweepPoint` travels to workers as (run function,
params, label), pickle sends the function by qualified name, and the
function recomputes everything from its params. A lambda or nested def
cannot be found by name in a worker, and a function that reads
module-level mutable state gives different answers depending on which
process (and after how many other points) it runs in.

Both rules anchor on ``SweepPoint(...)`` calls: the function passed as
``run`` (by keyword or as the second positional argument) is checked
when it is a lambda or a def in the same module.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.lint.findings import Severity
from repro.analysis.lint.registry import Rule, register_rule

_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "collections.defaultdict", "defaultdict",
    "collections.Counter", "Counter", "collections.OrderedDict",
    "OrderedDict", "collections.deque", "deque",
})


def _run_args(module) -> Iterator[tuple[ast.Call, ast.AST]]:
    """``(call, run argument)`` for every ``SweepPoint(...)`` call."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = module.resolve(node.func)
        if resolved is None or not (
            resolved == "SweepPoint" or resolved.endswith(".SweepPoint")
        ):
            continue
        for keyword in node.keywords:
            if keyword.arg == "run":
                yield node, keyword.value
        if len(node.args) >= 2:
            yield node, node.args[1]


def _run_def(module, call: ast.Call, run: ast.AST) -> Optional[ast.FunctionDef]:
    """The def a ``run`` argument names, as seen from the call: a def in
    an enclosing function shadows a module-level one."""
    if not isinstance(run, ast.Name):
        return None
    where = module.scope_of(call)
    found = None
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or node.name != run.id:
            continue
        scope = module.scope_of(node)
        if scope == "<module>":
            found = found or node
        elif where == scope or where.startswith(scope + "."):
            return node
    return found


@register_rule
class UnpicklableRunRule(Rule):
    """A sweep point's ``run`` function that is a lambda or a def inside
    another function is a closure: pickle sends functions by qualified
    name, so a worker cannot find it, and whatever it captured is
    silently frozen. Pass a plain module-level function and send the
    variation through the point's params.

    Bad::

        from repro.runner import SweepPoint

        def scaled_points(scale, xs):
            def run(x, telemetry=None):
                return scale * x
            return [SweepPoint(i, run, {"x": x}) for i, x in enumerate(xs)]

    Good::

        from repro.runner import SweepPoint

        def run_scaled(scale, x, telemetry=None):
            return scale * x

        def scaled_points(scale, xs):
            return [SweepPoint(i, run_scaled, {"scale": scale, "x": x})
                    for i, x in enumerate(xs)]
    """

    id = "RUN001"
    severity = Severity.ERROR
    title = "sweep point runs a closure or lambda"

    def check(self, module) -> Iterator:
        for call, run in _run_args(module):
            if isinstance(run, ast.Lambda):
                yield self.finding(
                    module, run,
                    "lambda passed as a sweep point's run function cannot "
                    "be pickled by name; use a module-level def",
                )
                continue
            func = _run_def(module, call, run)
            if func is not None and module.scope_of(func) != "<module>":
                yield self.finding(
                    module, run,
                    f"run function {func.name!r} is defined inside "
                    f"{module.scope_of(func)}; workers find run functions "
                    f"by name, so it must be module-level",
                )


@register_rule
class RunModuleStateRule(Rule):
    """Everything a point needs must arrive in its params: a sweep
    point's ``run`` function that reads module-level mutable state (or
    declares ``global``) computes different values depending on process
    history, which breaks the any-``--jobs`` byte-equality guarantee.

    Bad::

        from repro.runner import SweepPoint

        RESULT_CACHE = {}

        def run_cached(key, telemetry=None):
            return RESULT_CACHE.get(key, 0)

        def cached_points(keys):
            return [SweepPoint(i, run_cached, {"key": k})
                    for i, k in enumerate(keys)]

    Good::

        from repro.runner import SweepPoint

        def run_pure(value, telemetry=None):
            return value

        def pure_points(values):
            return [SweepPoint(i, run_pure, {"value": v})
                    for i, v in enumerate(values)]
    """

    id = "RUN002"
    severity = Severity.WARNING
    title = "sweep point's run function reads module-level mutable state"

    def check(self, module) -> Iterator:
        mutable = self._module_level_mutables(module)
        checked: set[str] = set()
        for call, run in _run_args(module):
            func = _run_def(module, call, run)
            if func is None or module.scope_of(func) != "<module>" \
                    or func.name in checked:
                continue
            checked.add(func.name)
            for node in ast.walk(func):
                if isinstance(node, ast.Global):
                    yield self.finding(
                        module, node,
                        f"run function {func.name!r} declares global "
                        f"{', '.join(node.names)}; pass state through the "
                        f"point's params",
                    )
                elif isinstance(node, ast.Name) and isinstance(
                    node.ctx, ast.Load
                ) and node.id in mutable:
                    yield self.finding(
                        module, node,
                        f"run function {func.name!r} reads module-level "
                        f"mutable {node.id!r}; pass it through the point's "
                        f"params",
                    )

    def _module_level_mutables(self, module) -> set[str]:
        names: set[str] = set()
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Assign):
                value, targets = stmt.value, stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value, targets = stmt.value, [stmt.target]
            else:
                continue
            if not self._is_mutable_literal(value, module):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    def _is_mutable_literal(self, value: ast.AST, module) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            return module.resolve(value.func) in _MUTABLE_FACTORIES
        return False
