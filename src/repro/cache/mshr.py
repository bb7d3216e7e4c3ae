"""Miss status holding registers.

An MSHR entry tracks one outstanding line fill, keyed by the int
``(line_addr << 16) | ds_id`` (DS-ids fit in 16 bits). The DS-id is part
of the key because two LDoms can legally have outstanding misses on the
same LDom-physical address (PARD Fig. 4 step 4 allocates the MSHR "for
the request and the DS-id").
Secondary misses to an in-flight line merge into the existing entry
instead of issuing a duplicate memory request.

Every request waiting on a fill is a ``(callback, packet)`` pair in its
entry, called as ``callback(packet)`` when the fill completes, so merging
a miss allocates no closure.
"""

from __future__ import annotations

from typing import Callable, Optional


class MshrFullError(RuntimeError):
    """All MSHRs are busy; the cache must stall the request."""


class MshrEntry:
    """One outstanding fill.

    ``waiters`` holds ``(callback, packet)`` pairs, called as
    ``callback(packet)`` in arrival order when the fill completes.
    """

    __slots__ = ("line_addr", "ds_id", "issued_at_ps", "is_write", "waiters")

    def __init__(self, line_addr: int, ds_id: int, issued_at_ps: int,
                 is_write: bool, waiters: list[tuple[Callable, object]]) -> None:
        self.line_addr = line_addr
        self.ds_id = ds_id
        self.issued_at_ps = issued_at_ps
        self.is_write = is_write
        self.waiters = waiters

    def __repr__(self) -> str:
        return (f"MshrEntry(line_addr={self.line_addr:#x}, ds_id={self.ds_id}, "
                f"waiters={len(self.waiters)})")


class MshrFile:
    """A bounded set of MSHR entries with secondary-miss merging."""

    def __init__(self, num_entries: int = 16):
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        self.num_entries = num_entries
        self._entries: dict[int, MshrEntry] = {}
        self.primary_misses = 0
        self.secondary_misses = 0

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.num_entries

    def lookup(self, line_addr: int, ds_id: int) -> Optional[MshrEntry]:
        return self._entries.get((line_addr << 16) | ds_id)

    def allocate(
        self,
        line_addr: int,
        ds_id: int,
        now_ps: int,
        is_write: bool = False,
        on_fill: Optional[Callable] = None,
        packet: object = None,
    ) -> tuple[MshrEntry, bool]:
        """Allocate or merge; returns ``(entry, is_primary)``.

        ``is_primary`` is True when this call created the entry (and the
        caller must issue the downstream fill request). ``on_fill``, if
        given, is called as ``on_fill(packet)`` when the fill completes.
        """
        key = (line_addr << 16) | ds_id
        entries = self._entries
        entry = entries.get(key)
        if entry is not None:
            self.secondary_misses += 1
            if is_write:
                entry.is_write = True
            if on_fill is not None:
                entry.waiters.append((on_fill, packet))
            return entry, False
        if len(entries) >= self.num_entries:  # is_full, inlined: every miss
            raise MshrFullError(
                f"all {self.num_entries} MSHRs busy at line {line_addr:#x}"
            )
        entry = entries[key] = MshrEntry(
            line_addr, ds_id, now_ps, is_write,
            [] if on_fill is None else [(on_fill, packet)],
        )
        self.primary_misses += 1
        return entry, True

    def complete(self, line_addr: int, ds_id: int) -> MshrEntry:
        """Retire the entry on fill and call its waiters; returns it."""
        try:
            entry = self._entries.pop((line_addr << 16) | ds_id)
        except KeyError:
            raise KeyError(f"no MSHR for line {line_addr:#x} ds_id {ds_id}")
        for on_fill, packet in entry.waiters:
            on_fill(packet)
        return entry
