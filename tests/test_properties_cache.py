"""Property-based invariants of the cache substrate.

These drive random tagged access streams through a small cache and
check global invariants the design must maintain regardless of input:
occupancy accounting consistency, capacity bounds, way-mask confinement
and request conservation.
"""

from hypothesis import example, given, settings, strategies as st

from tests.helpers import FakeMemory
from repro.cache.cache import Cache, CacheConfig
from repro.cache.control_plane import LlcControlPlane
from repro.sim.clock import ClockDomain, CPU_CLOCK_PS
from repro.sim.engine import Engine
from repro.sim.packet import MemOp, MemoryPacket

ACCESS = st.tuples(
    st.integers(min_value=1, max_value=3),       # ds_id
    st.integers(min_value=0, max_value=63),      # line index
    st.booleans(),                               # is_write
)


def run_stream(accesses, ways=4, sets=4, masks=None):
    engine = Engine()
    control = LlcControlPlane(engine, num_ways=ways)
    for ds_id in (1, 2, 3):
        overrides = {}
        if masks and ds_id in masks:
            overrides["waymask"] = masks[ds_id]
        control.allocate_ldom(ds_id, **overrides)
    clock = ClockDomain(engine, CPU_CLOCK_PS)
    memory = FakeMemory(engine, latency_ps=10_000)
    config = CacheConfig("c", size_bytes=sets * ways * 64, ways=ways)
    cache = Cache(engine, clock, config, memory, control=control)
    completed = []
    for ds_id, line, is_write in accesses:
        pkt = MemoryPacket(
            ds_id=ds_id, addr=line * 64,
            op=MemOp.WRITE if is_write else MemOp.READ,
        )
        cache.handle_request(pkt, lambda p: completed.append(p))
        engine.run()
    return cache, control, completed


@settings(max_examples=40, deadline=None)
@given(st.lists(ACCESS, min_size=1, max_size=120))
def test_every_access_completes(accesses):
    _cache, _control, completed = run_stream(accesses)
    assert len(completed) == len(accesses)


@settings(max_examples=40, deadline=None)
@given(st.lists(ACCESS, min_size=1, max_size=120))
def test_occupancy_accounting_matches_tag_array(accesses):
    """The control plane's incremental occupancy counters always agree
    with a full scan of the tag array (the paper's capacity statistic)."""
    cache, control, _ = run_stream(accesses)
    for ds_id in (1, 2, 3):
        assert control.occupancy_bytes(ds_id) == cache.occupancy_blocks(ds_id) * 64


@settings(max_examples=40, deadline=None)
@given(st.lists(ACCESS, min_size=1, max_size=120))
def test_total_occupancy_bounded_by_capacity(accesses):
    cache, control, _ = run_stream(accesses)
    total_blocks = sum(cache.occupancy_blocks(d) for d in (1, 2, 3))
    assert total_blocks <= cache.config.num_sets * cache.config.ways


@settings(max_examples=30, deadline=None)
@given(st.lists(ACCESS, min_size=10, max_size=150))
def test_disjoint_masks_confine_occupancy(accesses):
    """With disjoint way masks, no DS-id ever holds more ways per set
    than its mask allows."""
    masks = {1: 0b0001, 2: 0b0110, 3: 0b1000}
    cache, control, _ = run_stream(accesses, masks=masks)
    allowed = {d: bin(m).count("1") for d, m in masks.items()}
    for set_index, cache_set in cache._sets.items():
        per_dsid = {}
        for line in cache_set.lines:
            if line.valid:
                per_dsid[line.ds_id] = per_dsid.get(line.ds_id, 0) + 1
        for ds_id, count in per_dsid.items():
            assert count <= allowed[ds_id], (
                f"set {set_index}: DS-id {ds_id} holds {count} ways, "
                f"mask allows {allowed[ds_id]}"
            )


@settings(max_examples=30, deadline=None)
@given(st.lists(ACCESS, min_size=1, max_size=120))
def test_hit_plus_miss_equals_accesses(accesses):
    cache, control, _ = run_stream(accesses)
    assert cache.total_hits + cache.total_misses == len(accesses)


@settings(max_examples=30, deadline=None)
@given(st.lists(ACCESS, min_size=1, max_size=100))
def test_writeback_owners_are_writers(accesses):
    """Every writeback reaching memory carries the DS-id of some LDom
    that actually wrote (writebacks only exist for dirtied blocks)."""
    engine = Engine()
    control = LlcControlPlane(engine, num_ways=2)
    for ds_id in (1, 2, 3):
        control.allocate_ldom(ds_id)
    clock = ClockDomain(engine, CPU_CLOCK_PS)
    memory = FakeMemory(engine, latency_ps=10_000)
    config = CacheConfig("c", size_bytes=2 * 2 * 64, ways=2)  # tiny: 2 sets
    cache = Cache(engine, clock, config, memory, control=control)
    writers = set()
    for ds_id, line, is_write in accesses:
        if is_write:
            writers.add(ds_id)
        pkt = MemoryPacket(
            ds_id=ds_id, addr=line * 64,
            op=MemOp.WRITE if is_write else MemOp.READ,
        )
        cache.handle_request(pkt, lambda p: None)
        engine.run()
    for packet in memory.requests_of(op=MemOp.WRITEBACK):
        assert packet.owner_ds_id in writers


# -- the tag array's index and free-way views -------------------------------

STEP = st.one_of(
    st.tuples(st.just("access"), st.integers(1, 3), st.integers(0, 63), st.booleans()),
    st.tuples(st.just("flush"), st.integers(1, 3)),
    # Run for a while (fills take 10 ns) or until the queue drains.
    st.tuples(st.just("run"), st.sampled_from([1_000, 4_000, 12_000, None])),
)
MASK_SETS = st.sampled_from([
    None,                              # everyone shares all ways
    {1: 0b0001, 2: 0b0110, 3: 0b1000},  # disjoint
    {1: 0b0001, 2: 0b0001, 3: 0b0011},  # narrow and overlapping
])


def assert_tag_views_match_lines(cache):
    """Each set's index and free mask agree with a scan of its lines."""
    for set_index, cache_set in cache._sets.items():
        valid = [(way, line) for way, line in enumerate(cache_set.lines) if line.valid]
        pairs = [(line.tag, line.ds_id) for _way, line in valid]
        assert len(set(pairs)) == len(pairs), f"set {set_index}: duplicate (tag, ds_id)"
        assert cache_set.index == {
            (line.tag << 16) | line.ds_id: way for way, line in valid
        }, f"set {set_index}: index out of step with the lines"
        assert cache_set.free == sum(
            1 << way for way, line in enumerate(cache_set.lines)
            if not line.valid and line.tag == 0
        ), f"set {set_index}: free mask out of step with the lines"


@settings(max_examples=150, deadline=None)
@given(st.lists(STEP, min_size=1, max_size=150), MASK_SETS)
@example(
    # DS-ids 1 and 2 may only use way 0: 2's fill reserves the way 1's
    # fill is still heading for, 1's line lands and is flushed, then 2's
    # fill lands on a way the flush had marked free.
    steps=[
        ("access", 1, 0, False), ("run", 4_000), ("access", 2, 4, False),
        ("run", 4_000), ("run", 4_000), ("flush", 1), ("run", None),
    ],
    masks={1: 0b0001, 2: 0b0001, 3: 0b0011},
)
def test_index_and_free_mask_track_the_lines(steps, masks):
    """Accesses issued back to back (so fills overlap and narrow masks
    land fills on reserved ways), writes, partial runs, and flushes mixed
    in at any point: the per-set views stay exact, and every access
    completes."""
    engine = Engine()
    control = LlcControlPlane(engine, num_ways=4)
    for ds_id in (1, 2, 3):
        overrides = {"waymask": masks[ds_id]} if masks else {}
        control.allocate_ldom(ds_id, **overrides)
    clock = ClockDomain(engine, CPU_CLOCK_PS)
    memory = FakeMemory(engine, latency_ps=10_000)
    config = CacheConfig("c", size_bytes=4 * 4 * 64, ways=4)
    cache = Cache(engine, clock, config, memory, control=control)
    issued, completed = 0, []
    for step in steps:
        if step[0] == "access":
            _kind, ds_id, line, is_write = step
            pkt = MemoryPacket(
                ds_id=ds_id, addr=line * 64,
                op=MemOp.WRITE if is_write else MemOp.READ,
            )
            cache.handle_request(pkt, completed.append)
            issued += 1
        elif step[0] == "flush":
            cache.flush_dsid(step[1])
        elif step[1] is None:
            engine.run()
        else:
            engine.run_for(step[1])
        assert_tag_views_match_lines(cache)
    engine.run()
    assert_tag_views_match_lines(cache)
    assert len(completed) == issued
