"""Unit tests for MSHRs."""

import pytest

from repro.cache.mshr import MshrFile, MshrFullError


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

