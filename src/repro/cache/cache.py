"""Set-associative cache model.

One :class:`Cache` class serves both the private L1s and the shared LLC;
the difference is that the LLC is constructed with an
:class:`~repro.cache.control_plane.LlcControlPlane`, which supplies
per-DS-id way masks for victim selection and receives per-DS-id
hit/miss/occupancy accounting. The control-plane interactions happen off
the critical path -- the hit latency is identical with and without a
control plane attached, which is the paper's "no extra cycles" claim for
the LLC control plane (§7.2) and is asserted by a benchmark.

DS-id semantics (PARD Fig. 4): the tag array stores an ``owner DS-id``
next to each tag, a hit requires *both* the address tag and the DS-id to
match, and an evicted dirty block's writeback is tagged with the owner
DS-id, not the requester's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cache.mshr import MshrFile, MshrFullError
from repro.cache.replacement import WayMaskedPlru
from repro.sim.clock import ClockDomain
from repro.sim.component import Component, ResponseCallback
from repro.sim.engine import Engine
from repro.sim.packet import MemOp, MemoryPacket

_READ = MemOp.READ


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    ways: int
    line_size: int = 64
    hit_latency_cycles: int = 2
    mshr_entries: int = 16
    retry_cycles: int = 4  # back-off when the MSHR file is full

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_size <= 0:
            raise ValueError("cache geometry must be positive")
        if self.size_bytes % (self.ways * self.line_size):
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"ways*line_size = {self.ways * self.line_size}"
            )
        if self.line_size & (self.line_size - 1):
            raise ValueError(f"{self.name}: line size {self.line_size} must be a power of two")
        sets = self.num_sets
        if sets & (sets - 1):
            raise ValueError(f"{self.name}: number of sets {sets} must be a power of two")
        if self.ways & (self.ways - 1):
            raise ValueError(f"{self.name}: ways {self.ways} must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_size)


class _Line:
    """One way of the tag array.

    ``tag`` holds the line's block number (address >> line_shift): the
    address tag with the set bits kept, so the index key and the
    write-back address are one shift each. -1 marks a way reserved for
    a fill.
    """

    __slots__ = ("tag", "ds_id", "valid", "dirty")

    def __init__(self) -> None:
        self.tag = 0
        self.ds_id = 0
        self.valid = False
        self.dirty = False


class _Set:
    """One set's ways, their PLRU tree, and two views of the tag array.

    ``index`` maps ``(tag << 16) | ds_id`` to the way of every valid line
    (DS-ids fit in 16 bits, so the key is unique per pair);
    ``free`` has bit ``w`` set while way ``w`` is invalid with tag 0
    (never filled, or flushed), the ways a fill takes before PLRU is
    consulted. Every write to a line's tag or valid bit updates both.
    Sets are created on first access and never deleted, so a pending
    lookup or fill may hold on to one.
    """

    __slots__ = ("lines", "plru", "index", "free")

    def __init__(self, ways: int):
        self.lines = [_Line() for _ in range(ways)]
        self.plru = WayMaskedPlru(ways)
        self.index: dict[int, int] = {}
        self.free = (1 << ways) - 1


class Cache(Component):
    """A write-allocate, writeback, set-associative cache."""

    def __init__(
        self,
        engine: Engine,
        clock: ClockDomain,
        config: CacheConfig,
        downstream: Component,
        control=None,
        telemetry=None,
    ):
        super().__init__(engine, config.name, clock)
        self.config = config
        self.downstream = downstream
        self.control = control
        self.telemetry = (
            telemetry if (telemetry is not None and telemetry.enabled) else None
        )
        self._sets: dict[int, _Set] = {}
        self.mshrs = MshrFile(config.mshr_entries)
        # Power-of-two geometry: block = address >> line_shift, and the
        # block's low bits select the set.
        self._line_shift = config.line_size.bit_length() - 1
        self._set_mask = config.num_sets - 1
        self._full_mask = (1 << config.ways) - 1
        self._hit_ps = config.hit_latency_cycles * clock.period_ps
        # Plain hit counter for caches without a control plane (the L1s);
        # misses are counted by the MSHR file (see total_misses).
        self.total_hits = 0
        if self.telemetry is not None:
            # Callback gauges over the plain counters: zero hot-path cost,
            # read only at snapshot time.
            reg = self.telemetry.registry
            reg.gauge_fn(f"cache.{self.name}.hits", lambda: self.total_hits)
            reg.gauge_fn(f"cache.{self.name}.misses", lambda: self.total_misses)
            reg.gauge_fn(f"cache.{self.name}.miss_rate", lambda: self.miss_rate)
        if control is not None:
            control.bind_cache(self)

    # -- request path -----------------------------------------------------

    def handle_request(self, packet: MemoryPacket, on_response: ResponseCallback) -> None:
        """Accept a tagged cache access; respond after the modeled latency."""
        block = packet.addr >> self._line_shift
        set_index = block & self._set_mask
        cache_set = self._sets.get(set_index) or self._new_set(set_index)
        self._post_lookup(self.config.hit_latency_cycles, packet, on_response, cache_set, block)

    def access(self, packet: MemoryPacket, on_response: ResponseCallback) -> Optional[int]:
        """Fast-path entry: a hit completes synchronously.

        Returns the hit latency in picoseconds when the line is resident
        (``on_response`` is then *not* called); a miss takes the normal
        event-driven path and returns None. Keeping hits off the event
        queue is purely a simulator optimization -- the modeled latency is
        identical to :meth:`handle_request`.
        """
        block = packet.addr >> self._line_shift
        set_index = block & self._set_mask
        cache_set = self._sets.get(set_index) or self._new_set(set_index)
        way = cache_set.index.get((block << 16) | packet.ds_id)
        if way is None:
            # handle_request's event, posted without decoding again.
            self._post_lookup(
                self.config.hit_latency_cycles, packet, on_response, cache_set, block
            )
            return None
        cache_set.plru.touch(way)
        if packet.op is not _READ:
            cache_set.lines[way].dirty = True
        self.total_hits += 1
        if self.control is not None:
            self.control.record_access(packet.ds_id, True)
        if packet.span is not None:
            packet.span.hop(f"{self.name}.hit", self.engine.now + self._hit_ps)
        return self._hit_ps

    def _lookup(
        self, packet: MemoryPacket, on_response: ResponseCallback,
        cache_set: _Set, block: int,
    ) -> None:
        """The posted tag check, and on a miss everything up to the fill.

        The line is looked up again (a fill may have landed since the
        request arrived). A miss allocates or merges into an MSHR, and a
        primary miss picks and evicts the victim and sends the fill
        downstream. A full MSHR file retries this same step after
        ``retry_cycles``; the miss is counted once, when the MSHR file
        accepts it.
        """
        ds_id = packet.ds_id
        key = (block << 16) | ds_id
        way = cache_set.index.get(key)
        if way is not None:
            cache_set.plru.touch(way)
            if packet.op is not _READ:
                cache_set.lines[way].dirty = True
            self.total_hits += 1
            if self.control is not None:
                self.control.record_access(ds_id, True)
            if packet.span is not None:
                packet.span.hop(f"{self.name}.hit", self.engine.now)
            on_response(packet)
            return
        now = self.engine.now
        line_addr = block << self._line_shift
        try:
            entry, is_primary = self.mshrs.allocate(
                line_addr, ds_id, now, packet.op is not _READ, on_response, packet
            )
        except MshrFullError:
            # Structural stall: try the same lookup again after a back-off.
            self._post_lookup(self.config.retry_cycles, packet, on_response, cache_set, block)
            return
        control = self.control
        if control is not None:
            control.record_access(ds_id, False)
        if packet.span is not None:
            packet.span.hop(f"{self.name}.miss", now)
        if not is_primary:
            return  # merged into an in-flight fill
        # The victim is chosen under the requester's way mask (from the
        # control plane's parameter table): the lowest free way if there
        # is one, else the PLRU victim. The slot is reserved (tag -1, so
        # neither valid nor free) so concurrent misses to the same set
        # pick different ways.
        if control is None:
            mask = self._full_mask
        else:
            mask = self._full_mask & control.waymask(ds_id)
        free = cache_set.free & mask
        if free:
            way = (free & -free).bit_length() - 1
            cache_set.free &= ~(1 << way)
        else:
            way = cache_set.plru.victim(mask)  # a way of mask: not free
        victim = cache_set.lines[way]
        if victim.valid:  # _evict, inlined: most misses evict
            del cache_set.index[(victim.tag << 16) | victim.ds_id]
            victim.valid = False
            if control is not None:
                control.record_eviction(victim.ds_id)
            if victim.dirty:
                self._write_back(victim)
        victim.tag = -1
        cache_set.plru.touch(way)

        def filled(_resp=None) -> None:
            """The fill is back: wake the MSHR waiters, then install the
            line in the way reserved for it. (A closure over this miss's
            set, block and way, so the fill needs no record of its own.)"""
            self.mshrs.complete(line_addr, ds_id)
            line = cache_set.lines[way]
            if line.valid:
                # A concurrent fill landed in the reserved way (possible when
                # a narrow way mask forces PLRU onto a reserved slot).
                self._evict(cache_set, line)
            line.tag = block
            line.ds_id = ds_id
            line.valid = True
            line.dirty = entry.is_write
            cache_set.index[key] = way
            if cache_set.free:
                # Normally already clear (the way was reserved), but a flush
                # may have freed it after a concurrent fill landed here.
                cache_set.free &= ~(1 << way)
            cache_set.plru.touch(way)
            if self.control is not None:
                self.control.record_fill(ds_id)

        # The fill inherits the missing request's span, so the trail
        # continues downstream (LLC, DRAM).
        fill = MemoryPacket(ds_id, now, None, packet.span, line_addr, self.config.line_size)
        sync_latency = self.downstream.access(fill, filled)
        if sync_latency is not None:
            self.engine.post(sync_latency, filled)

    def _post_lookup(
        self, cycles: int, packet: MemoryPacket, on_response: ResponseCallback,
        cache_set: _Set, block: int,
    ) -> None:
        """Post the tag check of ``packet`` ``cycles`` after the next clock
        edge, with the set and block its address decoded to. (Kept out of
        ``_lookup`` so that its packet and callback need no closure cells
        on the common path.)"""
        self.clock.post_cycles(
            cycles, lambda: self._lookup(packet, on_response, cache_set, block)
        )

    def _evict(self, cache_set: _Set, line: _Line) -> None:
        """Invalidate a valid line for reuse of its way: drop it from the
        set's index, charge its owner and write it back if dirty."""
        del cache_set.index[(line.tag << 16) | line.ds_id]
        line.valid = False
        if self.control is not None:
            self.control.record_eviction(line.ds_id)
        if line.dirty:
            self._write_back(line)

    def _write_back(self, victim: _Line) -> None:
        """Send a dirty victim downstream at once, tagged with its owner's
        DS-id (PARD §4.1), not the requester's. Writebacks contend in the
        memory controller's queue."""
        owner = victim.ds_id
        packet = MemoryPacket(
            ds_id=owner,
            addr=victim.tag << self._line_shift,
            size=self.config.line_size,
            op=MemOp.WRITEBACK,
            owner_ds_id=owner,
            birth_ps=self.engine.now,
        )
        self.downstream.handle_request(packet, lambda _resp: None)

    def _new_set(self, set_index: int) -> _Set:
        """Create and register a set on its first access (sets are
        allocated lazily); callers first check that it does not exist."""
        cache_set = self._sets[set_index] = _Set(self.config.ways)
        return cache_set

    # -- management operations ---------------------------------------------

    def flush_dsid(self, ds_id: int) -> int:
        """Invalidate every block owned by ``ds_id``, writing back dirty
        ones. Returns the number of blocks flushed.

        The firmware runs this when an LDom is destroyed so that its
        DRAM window can be recycled without leaking data into (or
        serving stale data to) a later tenant.
        """
        flushed = 0
        for cache_set in self._sets.values():
            for way, line in enumerate(cache_set.lines):
                if line.valid and line.ds_id == ds_id:
                    if line.dirty:
                        self._write_back(line)
                    del cache_set.index[(line.tag << 16) | ds_id]
                    line.valid = False
                    line.tag = 0
                    line.dirty = False
                    cache_set.free |= 1 << way
                    flushed += 1
                    if self.control is not None:
                        self.control.record_eviction(ds_id)
        return flushed

    # -- introspection ---------------------------------------------------------

    def occupancy_blocks(self, ds_id: int) -> int:
        """Blocks currently owned by ``ds_id`` (counted from the tag array,
        like the paper's per-DS-id capacity statistic)."""
        count = 0
        for cache_set in self._sets.values():
            for line in cache_set.lines:
                if line.valid and line.ds_id == ds_id:
                    count += 1
        return count

    @property
    def total_misses(self) -> int:
        """Misses the MSHR file accepted: each one allocates or merges
        exactly once, however often a full MSHR file made it retry."""
        return self.mshrs.primary_misses + self.mshrs.secondary_misses

    @property
    def miss_rate(self) -> float:
        total = self.total_hits + self.total_misses
        return self.total_misses / total if total else 0.0
