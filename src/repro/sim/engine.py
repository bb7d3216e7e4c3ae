"""Event-driven simulation engine.

Time is an integer number of picoseconds, which lets the CPU domain
(500 ps per cycle at 2 GHz) and the DRAM domain (1250 ps per cycle at
DDR3-1600's 800 MHz bus clock) coexist without rounding drift.

Components never advance time themselves; they schedule callbacks and the
engine invokes them in timestamp order. Ties are broken by scheduling
order, which keeps runs fully deterministic.

Two queue implementations share one API and one ordering contract:

:class:`Engine` (the production engine)
    A bucketed calendar queue. Events are grouped into per-timestamp
    buckets (a dict keyed by time) and a small heap orders only the
    *distinct* timestamps. Because hardware models align work to clock
    edges, many events share a timestamp, so a whole clock edge's worth
    of callbacks is dispatched with a single heap operation. Within a
    bucket events run in scheduling order, which is exactly the
    ``(time, sequence)`` order of the heap reference -- the two engines
    produce byte-identical event orderings for the same schedule.

:class:`HeapqEngine`
    The reference implementation: one binary heap of ``(time, sequence)``
    ordered events. Kept deliberately simple; property tests cross-check
    the calendar queue against it.

Both engines support two scheduling paths:

``schedule()`` / ``schedule_at()``
    Allocate an event record and return an :class:`EventHandle` that can
    cancel the callback. Cancellation is O(1): a live-event counter is
    decremented immediately and the dead record is dropped either when it
    reaches the head of the queue or by a lazy purge when dead records
    outnumber live ones.

``post()`` / ``post_at()``
    The allocation-free hot path: the bare callback is enqueued with no
    event record and no handle. Use it for the vast majority of
    schedules that are never cancelled (cache lookups, DRAM completions,
    core steps, statistics windows).

Both engines also share one failure contract: if a callback raises, the
exception propagates out of ``run()``, the raising event counts as
consumed (it is neither executed again nor counted in
``executed_total``), and the next ``run()`` resumes with the remaining
events. ``stop()`` from inside a callback resumes the same way.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Iterator, Optional

PS_PER_NS = 1_000
PS_PER_US = 1_000_000
PS_PER_MS = 1_000_000_000
PS_PER_S = 1_000_000_000_000

# Lazy-purge thresholds: rebuild the queue once at least this many
# cancelled records linger *and* they outnumber the live entries.
_PURGE_MIN_CANCELLED = 64

_NEVER = float("inf")  # run()'s time limit when it has none


class SimulationError(RuntimeError):
    """Raised for violations of engine scheduling rules."""


class _Event:
    """A cancellable scheduled callback.

    ``seq`` orders ties in the heap engine; the calendar engine orders
    ties by bucket append order and leaves ``seq`` at 0. ``done`` marks
    an event that already executed, so a late ``cancel()`` on its handle
    cannot corrupt the live-event counter.

    The calendar engine dispatches every bucket entry by calling it, so
    an event is callable: it runs its callback, or, when cancelled, only
    settles the engine's counters.
    """

    __slots__ = ("engine", "time_ps", "seq", "callback", "cancelled", "done")

    def __init__(self, engine: "Engine", time_ps: int, seq: int,
                 callback: Callable[[], None]):
        self.engine = engine
        self.time_ps = time_ps
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.done = False

    def __call__(self) -> None:
        if self.cancelled:
            engine = self.engine
            engine._cancelled_pending -= 1
            engine._skipped += 1
            return
        self.done = True
        self.callback()

    def __lt__(self, other: "_Event") -> bool:
        if self.time_ps != other.time_ps:
            return self.time_ps < other.time_ps
        return self.seq < other.seq


class EventHandle:
    """Handle returned by :meth:`Engine.schedule`; allows cancellation."""

    __slots__ = ("_engine", "_event")

    def __init__(self, engine: "Engine", event: _Event):
        self._engine = engine
        self._event = event

    def cancel(self) -> None:
        """Prevent the callback from running. Safe to call more than once,
        and a no-op once the event has executed."""
        event = self._event
        if not event.cancelled and not event.done:
            event.cancelled = True
            self._engine._on_cancel()

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def time_ps(self) -> int:
        return self._event.time_ps


class Engine:
    """Deterministic discrete-event engine over a bucketed calendar queue.

    >>> engine = Engine()
    >>> fired = []
    >>> _ = engine.schedule(100, lambda: fired.append(engine.now))
    >>> engine.run()
    1
    >>> fired
    [100]
    """

    kind = "calendar"

    def __init__(self) -> None:
        # Current simulation time in picoseconds. A plain attribute, not a
        # property: it is read on every memory access, and only run()
        # (and nothing outside the engine) writes it.
        self.now = 0
        # time_ps -> FIFO list of entries; an entry is either a bare
        # callback (post path) or an _Event (cancellable path).
        self._buckets: dict[int, list] = {}
        self._times: list[int] = []  # heap of the distinct bucket times
        # Invariant: live events == _queued - _cancelled_pending. Keeping
        # two counters instead of three makes the per-event bookkeeping a
        # single integer update on each of the insert and dispatch paths.
        self._queued = 0  # total entries queued, cancelled included
        self._cancelled_pending = 0  # cancelled records not yet dropped
        self._running = False
        self._stopped = False
        # The iterator over the bucket run() is dispatching, if any, and
        # the cancelled entries it has skipped this run.
        self._entries: Optional[Iterator] = None
        self._skipped = 0
        self.executed_total = 0

    # -- time ----------------------------------------------------------------

    @property
    def now_ns(self) -> float:
        return self.now / PS_PER_NS

    @property
    def now_us(self) -> float:
        return self.now / PS_PER_US

    @property
    def now_ms(self) -> float:
        return self.now / PS_PER_MS

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued. O(1)."""
        pending = self._queued - self._cancelled_pending
        entries = self._entries
        if entries is not None:
            # run() settles _queued per bucket; subtract what the bucket
            # in flight (the one at the current time) has dispatched.
            pending -= len(self._buckets[self.now]) - entries.__length_hint__()
        return pending

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay_ps: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay_ps`` picoseconds from now."""
        if delay_ps < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay_ps})")
        return self.schedule_at(self.now + int(delay_ps), callback)

    def schedule_at(self, time_ps: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at an absolute timestamp, cancellable."""
        time_ps = int(time_ps)
        if time_ps < self.now:
            raise SimulationError(
                f"cannot schedule at {time_ps} ps, already at {self.now} ps"
            )
        event = _Event(self, time_ps, 0, callback)
        bucket = self._buckets.get(time_ps)
        if bucket is None:
            self._buckets[time_ps] = [event]
            heapq.heappush(self._times, time_ps)
        else:
            bucket.append(event)
        self._queued += 1
        return EventHandle(self, event)

    # The two post methods inline the bucket insert: they are the hottest
    # functions in the whole simulator and every saved call level counts.

    def post(self, delay_ps: int, callback: Callable[[], None]) -> None:
        """Uncancellable fast path: no event record, no handle."""
        if delay_ps < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay_ps})")
        time_ps = self.now + int(delay_ps)
        bucket = self._buckets.get(time_ps)
        if bucket is None:
            self._buckets[time_ps] = [callback]
            heapq.heappush(self._times, time_ps)
        else:
            bucket.append(callback)
        self._queued += 1

    def post_at(self, time_ps: int, callback: Callable[[], None]) -> None:
        """Uncancellable fast path at an absolute timestamp."""
        time_ps = int(time_ps)
        if time_ps < self.now:
            raise SimulationError(
                f"cannot schedule at {time_ps} ps, already at {self.now} ps"
            )
        bucket = self._buckets.get(time_ps)
        if bucket is None:
            self._buckets[time_ps] = [callback]
            heapq.heappush(self._times, time_ps)
        else:
            bucket.append(callback)
        self._queued += 1

    # -- cancellation bookkeeping --------------------------------------------

    def _on_cancel(self) -> None:
        self._cancelled_pending += 1
        queued = self.pending_events + self._cancelled_pending
        if (
            self._cancelled_pending >= _PURGE_MIN_CANCELLED
            and self._cancelled_pending * 2 > queued
        ):
            self._purge()

    def _purge(self) -> None:
        """Drop cancelled records from every bucket not currently executing."""
        # Never rewrite the bucket run() is iterating over (its time is
        # off the heap while it runs).
        skip = self.now if self._running else None
        removed = 0
        for time_ps in list(self._buckets):
            if time_ps == skip:
                continue
            bucket = self._buckets[time_ps]
            kept = [
                e for e in bucket
                if not (e.__class__ is _Event and e.cancelled)
            ]
            if len(kept) != len(bucket):
                removed += len(bucket) - len(kept)
                if kept:
                    self._buckets[time_ps] = kept
                else:
                    del self._buckets[time_ps]
                    self._times.remove(time_ps)
        if removed:
            heapq.heapify(self._times)
            self._queued -= removed
            self._cancelled_pending -= removed

    # -- execution -----------------------------------------------------------

    def stop(self) -> None:
        """Stop the run loop after the current callback returns."""
        self._stopped = True

    def run(self, until_ps: Optional[int] = None) -> int:
        """Run events until the queue drains or ``until_ps`` is reached.

        Events stamped exactly at ``until_ps`` are executed. Returns the
        number of callbacks invoked. After a bounded run, time is advanced
        to ``until_ps`` even if the queue drained earlier, so repeated
        bounded runs tile the timeline predictably.

        The counters are settled once per bucket, not once per event:
        while a bucket is in flight its time is off the heap, and
        ``pending_events`` subtracts its dispatched entries through
        ``_entries``, the bucket's iterator.
        """
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        self._running = True
        self._stopped = False
        self._skipped = 0
        executed = 0  # entries dispatched; skipped ones are taken off at the end
        times = self._times
        buckets = self._buckets
        heappop = heapq.heappop
        limit = _NEVER if until_ps is None else until_ps
        bucket = None
        try:
            while times:
                time_ps = heappop(times)
                if time_ps > limit:
                    heapq.heappush(times, time_ps)
                    break
                bucket = buckets[time_ps]
                self.now = time_ps
                # The list iterator re-checks the length every step, so
                # callbacks that schedule more work at the current
                # timestamp extend this bucket and the new entries run in
                # this same pass, in append order.
                self._entries = entries = iter(bucket)
                for entry in entries:
                    entry()
                    if self._stopped:
                        break
                else:
                    dispatched = len(bucket)
                    executed += dispatched
                    self._queued -= dispatched
                    del buckets[time_ps]
                    continue
                # stop(): the next run() resumes after this entry.
                executed += self._consume_dispatched(bucket, entries)
                break
        except BaseException:
            if bucket is not None and buckets.get(self.now) is bucket:
                # A callback raised: it counts as consumed, not executed.
                executed += self._consume_dispatched(bucket, entries) - 1
            raise
        finally:
            self._running = False
            self._entries = None
            executed -= self._skipped
            self.executed_total += executed
        if until_ps is not None and self.now < until_ps and not self._stopped:
            self.now = until_ps
        return executed

    def _consume_dispatched(self, bucket: list, entries: Iterator) -> int:
        """Drop the dispatched prefix of the bucket run() left mid-way and
        put the rest back in the queue, so the next run() resumes with it.
        Returns the prefix length."""
        dispatched = len(bucket) - entries.__length_hint__()
        self._queued -= dispatched
        del bucket[:dispatched]
        if bucket:
            heapq.heappush(self._times, self.now)
        else:
            del self._buckets[self.now]
        return dispatched

    def run_for(self, duration_ps: int) -> int:
        """Run for a fixed duration from the current time."""
        return self.run(until_ps=self.now + int(duration_ps))

    def drain(self, callbacks: Iterable[Callable[[], None]] = ()) -> int:
        """Schedule ``callbacks`` immediately, then run the queue dry."""
        for callback in callbacks:
            self.post(0, callback)
        return self.run()


class HeapqEngine(Engine):
    """The reference engine: a single binary heap of ``(time, seq)`` events.

    Functionally identical to :class:`Engine` (the property suite asserts
    byte-identical orderings); kept as the straightforward implementation
    the calendar queue is validated -- and benchmarked -- against.
    """

    kind = "heapq"

    def __init__(self) -> None:
        super().__init__()
        self._queue: list[_Event] = []
        self._seq = 0

    def schedule_at(self, time_ps: int, callback: Callable[[], None]) -> EventHandle:
        time_ps = int(time_ps)
        if time_ps < self.now:
            raise SimulationError(
                f"cannot schedule at {time_ps} ps, already at {self.now} ps"
            )
        event = _Event(self, time_ps, self._seq, callback)
        self._seq += 1
        heapq.heappush(self._queue, event)
        self._queued += 1
        return EventHandle(self, event)

    def post(self, delay_ps: int, callback: Callable[[], None]) -> None:
        # The reference engine has no bare-callback representation; the
        # post path simply discards the handle.
        if delay_ps < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay_ps})")
        self.schedule_at(self.now + int(delay_ps), callback)

    def post_at(self, time_ps: int, callback: Callable[[], None]) -> None:
        self.schedule_at(time_ps, callback)

    def _purge(self) -> None:
        survivors = [e for e in self._queue if not e.cancelled]
        removed = len(self._queue) - len(survivors)
        if removed:
            heapq.heapify(survivors)
            self._queue = survivors
            self._queued -= removed
            self._cancelled_pending -= removed

    def run(self, until_ps: Optional[int] = None) -> int:
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        queue = self._queue
        try:
            while queue and not self._stopped:
                event = queue[0]
                if until_ps is not None and event.time_ps > until_ps:
                    break
                heapq.heappop(queue)
                self._queued -= 1
                if event.cancelled:
                    self._cancelled_pending -= 1
                    continue
                self.now = event.time_ps
                event.done = True
                event.callback()
                executed += 1
        finally:
            self._running = False
            self.executed_total += executed
        if until_ps is not None and self.now < until_ps and not self._stopped:
            self.now = until_ps
        return executed

