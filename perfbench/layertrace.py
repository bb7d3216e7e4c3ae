"""Host-time attribution to repro packages, measured from outside the program.

Two instruments, both installed by patching class attributes before the
machine is built and removed afterwards:

:class:`Capture`
    Used by every run, traced or not. It records the instances a point
    builds (servers, memory controllers, memcached workloads, engines) and
    times each ``Engine.run`` call, so the benchmark can read simulated
    outputs and split set-up from simulation. Its cost is one wrapper
    call per ``Engine.run`` and per constructor, none per event.

:class:`LayerTracer`
    The traced run. Every engine ``post``/``post_at``/``schedule``/
    ``schedule_at`` call is a ``sim`` span, and the callback it enqueues
    is wrapped so that its dispatch is a span charged to the package that
    defines it (a lambda's module, a bound method's defining module). The
    synchronous cross-layer entry points (cache access, memory-controller
    requests, control-plane accounting, MSHR allocation, DRAM bank
    timing, the PRM/core programming interface) and each workload's
    ``ops()`` iterator are spans too, and so is every response callback
    handed across one of those entry points. A span's self time is its
    duration minus the durations of the spans nested in it, so the self
    times of all spans partition the root span exactly.

Spans are aggregated in memory per (package, qualname) and written out
by the caller when the run ends. The thin ``Component``/``ClockDomain``
forwarding in front of ``Engine.post*`` is not a span: its cost is
charged to the calling layer.
"""

from __future__ import annotations

import time

_MISSING = object()


def package_of(module: str) -> str:
    """``repro.cache.cache`` -> ``cache``; anything outside repro -> ``other``."""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return "other"


class _Patcher:
    """Replace class attributes and put the originals back in reverse order."""

    def __init__(self) -> None:
        self._saved = []

    def patch(self, cls, name: str, make) -> None:
        """Set ``cls.name`` to ``make(original)``."""
        self._saved.append((cls, name, cls.__dict__.get(name, _MISSING)))
        setattr(cls, name, make(getattr(cls, name)))

    def restore(self) -> None:
        while self._saved:
            cls, name, raw = self._saved.pop()
            if raw is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, raw)


class SetupDone(Exception):
    """Raised at the first ``Engine.run`` of a set-up-only repeat."""


class Capture:
    """Record built instances and ``Engine.run`` host time for one point.

    With ``setup_only`` the first ``Engine.run`` call raises
    :class:`SetupDone` instead of simulating, which leaves exactly the
    host time spent before the first simulated event.
    """

    def __init__(self, setup_only: bool = False) -> None:
        self.setup_only = setup_only
        self.first_run_at = None  # perf_counter() at the first Engine.run
        self.run_s = 0.0  # host seconds inside Engine.run
        self.engines = []
        self.servers = []
        self.controllers = []
        self.memcached = []
        self._patcher = _Patcher()

    def __enter__(self) -> "Capture":
        from repro.dram.controller import MemoryController
        from repro.sim.engine import Engine
        from repro.system.server import PardServer
        from repro.workloads.memcached import MemcachedServer

        for cls, found in (
            (PardServer, self.servers),
            (MemoryController, self.controllers),
            (MemcachedServer, self.memcached),
        ):
            self._patcher.patch(cls, "__init__", self._recording_init(found))
        self._patcher.patch(Engine, "run", self._timed_run)
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()

    @staticmethod
    def _recording_init(found: list):
        def make(original):
            def __init__(obj, *args, **kwargs):
                original(obj, *args, **kwargs)
                found.append(obj)
            return __init__
        return make

    def _timed_run(self, original):
        capture = self

        def run(engine, until_ps=None):
            start = time.perf_counter()
            if capture.first_run_at is None:
                capture.first_run_at = start
                if capture.setup_only:
                    raise SetupDone
            if engine not in capture.engines:
                capture.engines.append(engine)
            try:
                return original(engine, until_ps)
            finally:
                capture.run_s += time.perf_counter() - start
        return run


class _TimedOps:
    """A workload's op iterator whose every ``next`` is one span."""

    __slots__ = ("_next",)

    def __init__(self, next_op) -> None:
        self._next = next_op

    def __iter__(self) -> "_TimedOps":
        return self

    def __next__(self):
        return self._next()


class LayerTracer:
    """Span-based self-time accounting per repro package (see module doc)."""

    def __init__(self) -> None:
        # (package, qualname) -> [calls, self_ns, total_ns]
        self.stats: dict[tuple[str, str], list[int]] = {}
        self.mshr_full_retries = 0
        self.bank_accesses = 0
        self.row_hits = 0
        self.roots: set[tuple[str, str]] = set()
        self._stack = [0]  # per open span: nanoseconds of its child spans
        self._keys = {}  # code object -> (package, qualname)
        self._own_codes = set()  # code objects of this tracer's wrappers
        self._patcher = _Patcher()

    # -- span primitives --------------------------------------------------

    def span(self, key: tuple[str, str], fn):
        """``fn`` wrapped so that each call is one span charged to ``key``."""
        stack = self._stack
        stat = self.stats.setdefault(key, [0, 0, 0])
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                stat[0] += 1
                stat[1] += duration - child
                stat[2] += duration
                stack[-1] += duration

        self._own_codes.add(timed.__code__)
        return timed

    def key_of(self, fn) -> tuple[str, str]:
        """The (package, qualname) a callable is charged to."""
        func = getattr(fn, "__func__", fn)
        code = getattr(func, "__code__", None)
        key = self._keys.get(code)
        if key is None:
            module = getattr(func, "__module__", None) or type(fn).__module__
            qualname = getattr(func, "__qualname__", type(fn).__qualname__)
            key = (package_of(module), qualname)
            if code is not None:
                self._keys[code] = key
        return key

    def callback(self, fn):
        """Wrap a callback handed across a layer boundary (once)."""
        if getattr(fn, "__code__", None) in self._own_codes:
            return fn
        return self.span(self.key_of(fn), fn)

    def root(self, key: tuple[str, str], fn, *args, **kwargs):
        """Run ``fn`` as a root span; a point may run several in turn."""
        self.roots.add(key)
        return self.span(key, fn)(*args, **kwargs)

    def root_ns(self) -> int:
        """Host nanoseconds inside root spans: what the self times partition."""
        return sum(self.stats[key][2] for key in self.roots)

    # -- installation ----------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        from repro.cache.cache import Cache
        from repro.cache.control_plane import LlcControlPlane
        from repro.cache.mshr import MshrFile, MshrFullError
        from repro.core.control_plane import ControlPlane
        from repro.core.programming import CpaRegisterFile
        from repro.dram.bank import BankState
        from repro.dram.control_plane import MemoryControlPlane
        from repro.dram.controller import MemoryController
        from repro.prm.firmware import Firmware
        from repro.sim.engine import Engine
        from repro.workloads.memcached import MemcachedServer
        from repro.workloads.stream import Stream

        patch = self._patcher.patch

        # The engine: scheduling calls are sim spans; the callback they
        # enqueue is charged to its own package when dispatched.
        for name in ("post", "post_at", "schedule", "schedule_at"):
            patch(Engine, name, self._scheduling(f"Engine.{name}"))
        patch(Engine, "run", lambda original: self.span(("sim", "Engine.run"), original))

        # Synchronous entry points that take a response callback.
        for cls, name in (
            (Cache, "access"),
            (Cache, "handle_request"),
            (MemoryController, "handle_request"),
        ):
            patch(cls, name, self._request_entry(cls, name))

        # Plain synchronous entry points.
        plain = [
            (LlcControlPlane, "record_access"),
            (LlcControlPlane, "record_fill"),
            (LlcControlPlane, "record_eviction"),
            (MemoryControlPlane, "record_service"),
            (ControlPlane, "__init__"),
            (ControlPlane, "allocate_ldom"),
            (CpaRegisterFile, "mmio_read"),
            (CpaRegisterFile, "mmio_write"),
        ] + [
            (Firmware, name)
            for name in ("__init__", "create_ldom", "launch_ldom", "register_script", "sh")
        ]
        for cls, name in plain:
            patch(cls, name, self._plain_entry(cls, name))

        tracer = self

        def allocate(original):
            timed = self.span(self._method_key(MshrFile, "allocate"), original)

            def wrapper(*args, **kwargs):
                try:
                    return timed(*args, **kwargs)
                except MshrFullError:
                    tracer.mshr_full_retries += 1
                    raise
            return wrapper
        patch(MshrFile, "allocate", allocate)

        def access_latency_cycles(original):
            timed = self.span(self._method_key(BankState, "access_latency_cycles"), original)

            def wrapper(bank, row, timing, high_priority):
                tracer.bank_accesses += 1
                if bank.row_state(row) == "hit":
                    tracer.row_hits += 1
                return timed(bank, row, timing, high_priority)
            return wrapper
        patch(BankState, "access_latency_cycles", access_latency_cycles)

        for cls in (MemcachedServer, Stream):
            patch(cls, "ops", self._ops(cls))
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()

    def _method_key(self, cls, name: str) -> tuple[str, str]:
        func = cls.__dict__[name]
        return (package_of(func.__module__), func.__qualname__)

    def _scheduling(self, qualname: str):
        def make(original):
            timed = self.span(("sim", qualname), original)
            callback = self.callback

            def wrapper(engine, when, fn):
                return timed(engine, when, callback(fn))
            return wrapper
        return make

    def _request_entry(self, cls, name: str):
        def make(original):
            timed = self.span(self._method_key(cls, name), original)
            callback = self.callback

            def wrapper(component, packet, on_response):
                return timed(component, packet, callback(on_response))
            return wrapper
        return make

    def _plain_entry(self, cls, name: str):
        return lambda original: self.span(self._method_key(cls, name), original)

    def _ops(self, cls):
        def make(original):
            key = self._method_key(cls, "ops")
            callback = self.callback

            def ops(workload):
                timed_next = self.span(key, original(workload).__next__)

                def next_op():
                    op = timed_next()
                    if op[0] == "call":
                        return ("call", callback(op[1]))
                    return op
                return _TimedOps(next_op)
            return ops
        return make

    # -- results ------------------------------------------------------------------

    def self_share(self, package: str) -> float:
        """``package``'s self time as a share of the root spans' host time."""
        self_ns = sum(stat[1] for (owner, _name), stat in self.stats.items()
                      if owner == package)
        return self_ns / self.root_ns()

    def calls_by_package(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for (package, _qualname), (calls, _self, _total) in self.stats.items():
            totals[package] = totals.get(package, 0) + calls
        return totals

    def span_table(self) -> list[dict]:
        """Every span name with its calls, self and inclusive time, largest first."""
        rows = [
            {"package": package, "name": qualname, "calls": calls,
             "self_ns": self_ns, "total_ns": total_ns}
            for (package, qualname), (calls, self_ns, total_ns) in self.stats.items()
            if calls
        ]
        rows.sort(key=lambda row: (-row["self_ns"], row["package"], row["name"]))
        return rows
