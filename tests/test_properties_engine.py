"""Randomized property tests for the event queue implementations.

A random scenario -- a self-expanding web of schedules, posts and
cancellations -- is replayed on the bucketed calendar queue and on the
heapq reference, and the two execution traces must be byte-identical:
same events, same timestamps, same tie-break order, same bounded-run
boundaries. Any divergence in ordering, cancellation handling,
``run(until_ps=...)`` semantics or recovery from a raising callback
shows up as a trace mismatch.
"""

import pytest

from repro.sim.engine import Engine, HeapqEngine
from repro.sim.rng import DeterministicRng

SEEDS = [7, 23, 101, 2015]
ENGINE_CLASSES = pytest.mark.parametrize(
    "engine_class", (Engine, HeapqEngine), ids=lambda cls: cls.kind
)


class ScenarioError(Exception):
    """Raised by a scenario callback chosen to fail."""


class _Scenario:
    """A deterministic random workload driven entirely by engine callbacks.

    Every fired event appends ``(now, label)`` to the trace, then draws
    from the scenario RNG to decide what to do next: spawn follow-up
    events (via ``schedule`` or the uncancellable ``post`` path), cancel
    a pending handle, or go quiet. Because every draw happens inside a
    callback, the RNG stream itself verifies ordering: two engines only
    see the same draws if they fire events in exactly the same order.
    With ``raise_share`` set, that share of callbacks raises
    :class:`ScenarioError` after doing its work.
    """

    def __init__(
        self, engine, seed: int, max_events: int = 400, raise_share: float = 0.0
    ):
        self.engine = engine
        self.rng = DeterministicRng(seed, name="engine-prop")
        self.trace = []
        self.spawned = 0
        self.max_events = max_events
        self.raise_share = raise_share
        self.handles = []

    def seed_events(self, count: int = 8) -> None:
        for _ in range(count):
            self._spawn()

    def _spawn(self) -> None:
        if self.spawned >= self.max_events:
            return
        label = self.spawned
        self.spawned += 1
        # Mix zero delays (same-timestamp ties) with spread-out ones.
        roll = self.rng.random()
        if roll < 0.3:
            delay = 0
        elif roll < 0.8:
            delay = self.rng.randint(1, 40) * 250
        else:
            delay = self.rng.randint(1, 5000)
        if self.rng.random() < 0.5:
            self.engine.post(delay, lambda: self._fire(label))
        else:
            handle = self.engine.schedule(delay, lambda: self._fire(label))
            self.handles.append(handle)

    def _fire(self, label: int) -> None:
        self.trace.append((self.engine.now, label))
        for _ in range(self.rng.randint(0, 2)):
            self._spawn()
        if self.handles and self.rng.random() < 0.25:
            victim = self.handles.pop(self.rng.randint(0, len(self.handles) - 1))
            victim.cancel()
        # Draw only when raising is on, so raise-free scenarios keep the
        # RNG stream they always had.
        if self.raise_share and self.rng.random() < self.raise_share:
            raise ScenarioError(label)


def run_scenario(engine_class, seed: int, bounded: bool, raise_share: float = 0.0):
    engine = engine_class()
    scenario = _Scenario(engine, seed, raise_share=raise_share)
    scenario.seed_events()
    boundaries = []
    if bounded:
        # Tile the timeline with random-sized bounded runs, exercising
        # the until_ps boundary (events exactly at the bound execute).
        slice_rng = DeterministicRng(seed, name="slices")
        while engine.pending_events > 0:
            try:
                executed = engine.run_for(slice_rng.randint(1, 200_000))
            except ScenarioError as exc:
                executed = f"raised {exc}"
            boundaries.append((engine.now, executed, engine.pending_events))
    else:
        # A raise leaves the engine mid-run; calling run() again resumes.
        while True:
            try:
                engine.run()
                break
            except ScenarioError as exc:
                boundaries.append((engine.now, f"raised {exc}", engine.pending_events))
    return scenario.trace, boundaries, engine.now, engine.pending_events


def run_both(seed: int, bounded: bool, raise_share: float = 0.0):
    return {
        engine_class.kind: run_scenario(engine_class, seed, bounded, raise_share)
        for engine_class in (Engine, HeapqEngine)
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_calendar_matches_heapq_free_run(seed):
    traces = run_both(seed, bounded=False)
    assert traces["calendar"] == traces["heapq"]
    trace = traces["calendar"][0]
    assert len(trace) > 50  # the scenario actually did something
    times = [t for t, _ in trace]
    assert times == sorted(times)  # monotone timestamps


@pytest.mark.parametrize("seed", SEEDS)
def test_calendar_matches_heapq_bounded_runs(seed):
    traces = run_both(seed, bounded=True)
    assert traces["calendar"] == traces["heapq"]


@pytest.mark.parametrize("bounded", [False, True], ids=["free", "bounded"])
@pytest.mark.parametrize("seed", SEEDS)
def test_calendar_matches_heapq_with_raising_callbacks(seed, bounded):
    """Both engines consume a raising event and resume identically:
    same traces, same raise points, same live-event counts."""
    traces = run_both(seed, bounded, raise_share=0.1)
    assert traces["calendar"] == traces["heapq"]
    trace, boundaries, _, pending = traces["calendar"]
    raised = [b for b in boundaries if str(b[1]).startswith("raised")]
    assert raised  # the scenario actually raised
    labels = [label for _, label in trace]
    assert len(labels) == len(set(labels))  # nothing replayed
    assert pending == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_scenario_is_reproducible(seed):
    """The same engine kind, run twice, is bit-identical with itself."""
    assert run_scenario(Engine, seed, bounded=False) == run_scenario(
        Engine, seed, bounded=False
    )


@ENGINE_CLASSES
def test_random_cancellations_never_fire(engine_class):
    """Cancelled events never execute, survivors all do, and the live
    counter tracks exactly, across random cancellation patterns."""
    rng = DeterministicRng(99, name="cancel")
    engine = engine_class()
    fired = []
    handles = []
    for i in range(300):
        handles.append(engine.schedule(rng.randint(0, 10_000), lambda i=i: fired.append(i)))
    cancelled = set()
    for i, handle in enumerate(handles):
        if rng.random() < 0.4:
            handle.cancel()
            cancelled.add(i)
    assert engine.pending_events == 300 - len(cancelled)
    executed = engine.run()
    assert executed == 300 - len(cancelled)
    assert set(fired) == set(range(300)) - cancelled
    assert engine.pending_events == 0


@ENGINE_CLASSES
def test_until_boundary_includes_events_at_bound(engine_class):
    engine = engine_class()
    fired = []
    for t in (100, 200, 200, 300):
        engine.post_at(t, lambda t=t: fired.append(t))
    engine.run(until_ps=200)
    assert fired == [100, 200, 200]
    assert engine.now == 200
    engine.run()
    assert fired == [100, 200, 200, 300]
