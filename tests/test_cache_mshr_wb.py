"""Unit tests for MSHRs and the writeback buffer."""

import pytest

from repro.cache.mshr import MshrFile, MshrFullError
from repro.cache.writeback import WritebackBuffer


class TestMshrFile:
    def test_primary_allocation(self):
        mshrs = MshrFile(4)
        entry, primary = mshrs.allocate(0x100, 1, now_ps=10)
        assert primary
        assert entry.line_addr == 0x100
        assert mshrs.occupancy == 1
        assert mshrs.primary_misses == 1

    def test_secondary_miss_merges(self):
        mshrs = MshrFile(4)
        mshrs.allocate(0x100, 1, now_ps=10)
        entry, primary = mshrs.allocate(0x100, 1, now_ps=20)
        assert not primary
        assert mshrs.occupancy == 1
        assert mshrs.secondary_misses == 1

    def test_same_line_different_dsid_gets_own_entry(self):
        # Two LDoms can miss on the same LDom-physical line; these are
        # different blocks and need different fills (PARD Fig. 4).
        mshrs = MshrFile(4)
        _, p1 = mshrs.allocate(0x100, 1, now_ps=0)
        _, p2 = mshrs.allocate(0x100, 2, now_ps=0)
        assert p1 and p2
        assert mshrs.occupancy == 2

    def test_full_raises(self):
        mshrs = MshrFile(1)
        mshrs.allocate(0x100, 1, now_ps=0)
        with pytest.raises(MshrFullError):
            mshrs.allocate(0x200, 1, now_ps=0)

    def test_merge_allowed_when_full(self):
        mshrs = MshrFile(1)
        mshrs.allocate(0x100, 1, now_ps=0)
        _, primary = mshrs.allocate(0x100, 1, now_ps=0)
        assert not primary

    def test_complete_notifies_waiters_in_order(self):
        # Waiters are (callback, packet) pairs, called as callback(packet).
        mshrs = MshrFile(4)
        woken = []
        mshrs.allocate(0x100, 1, now_ps=0, on_fill=woken.append, packet="a")
        mshrs.allocate(0x100, 1, now_ps=0, on_fill=woken.append, packet="b")
        mshrs.complete(0x100, 1)
        assert woken == ["a", "b"]
        assert mshrs.occupancy == 0

    def test_write_intent_is_sticky(self):
        mshrs = MshrFile(4)
        mshrs.allocate(0x100, 1, now_ps=0, is_write=False)
        entry, _ = mshrs.allocate(0x100, 1, now_ps=0, is_write=True)
        assert entry.is_write

    def test_complete_unknown_raises(self):
        with pytest.raises(KeyError):
            MshrFile(4).complete(0x100, 1)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            MshrFile(0)


class TestWritebackBuffer:
    def test_fifo_order(self):
        buf = WritebackBuffer(4)
        buf.push(0x100, 1, now_ps=0)
        buf.push(0x200, 2, now_ps=1)
        assert buf.pop().line_addr == 0x100
        assert buf.pop().owner_ds_id == 2

    def test_capacity(self):
        buf = WritebackBuffer(1)
        buf.push(0x100, 1, 0)
        assert buf.is_full
        with pytest.raises(OverflowError):
            buf.push(0x200, 1, 0)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            WritebackBuffer(2).pop()

    def test_peek_does_not_remove(self):
        buf = WritebackBuffer(2)
        buf.push(0x100, 3, 0)
        assert buf.peek().owner_ds_id == 3
        assert buf.occupancy == 1

    def test_entry_records_owner_dsid(self):
        buf = WritebackBuffer(2)
        entry = buf.push(0x100, owner_ds_id=7, now_ps=5)
        assert entry.owner_ds_id == 7
        assert entry.queued_at_ps == 5

    def test_total_enqueued_counts(self):
        buf = WritebackBuffer(4)
        for i in range(3):
            buf.push(i * 64, 0, 0)
        assert buf.total_enqueued == 3

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            WritebackBuffer(0)
