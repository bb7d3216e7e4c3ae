"""Builder registry: resolve a :class:`SweepPoint`'s builder name.

A sweep point travels to worker processes as a picklable spec -- builder
*name* plus a params dict plus a seed -- never as a closure. Workers
resolve the name back to a callable through this registry, so a spec is
valid in any process that can import the repo.

The stock builders (one per kind of simulation point) live in
:mod:`repro.runner.builders`, imported lazily on first resolution to
keep this module dependency-free (it is imported by the sweep core,
which the experiment drivers themselves import). Tests and downstream
code may register additional builders with :func:`register_builder`;
registrations made before the process pool is created are inherited by
fork-started workers.

Builder signature::

    def builder(point: SweepPoint, telemetry: Optional[Telemetry]) -> value

where ``value`` must be picklable (it is shipped back to the parent).
"""

from __future__ import annotations

from typing import Callable, Optional

_BUILDERS: dict[str, Callable] = {}
_STOCK_LOADED = False


def register_builder(name: str, fn: Optional[Callable] = None):
    """Register ``fn`` under ``name``; usable as a decorator.

    Re-registering a name replaces the previous builder (last one wins),
    which keeps repeated test-module imports idempotent.
    """
    if fn is None:
        def decorator(f: Callable) -> Callable:
            _BUILDERS[name] = f
            return f
        return decorator
    _BUILDERS[name] = fn
    return fn


def _ensure_stock_builders() -> None:
    global _STOCK_LOADED
    if not _STOCK_LOADED:
        # Deferred: builders imports the experiment drivers, which import
        # the sweep core, which imports this module.
        import repro.runner.builders  # noqa: F401

        _STOCK_LOADED = True


def resolve_builder(name: str) -> Callable:
    """Return the builder registered under ``name`` (KeyError if absent)."""
    _ensure_stock_builders()
    try:
        return _BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILDERS)) or "<none>"
        raise KeyError(f"unknown builder {name!r}; registered: {known}") from None


def builder_names() -> list[str]:
    _ensure_stock_builders()
    return sorted(_BUILDERS)
