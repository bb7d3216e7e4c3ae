"""Unit tests for the priority FR-FCFS scheduler."""

import pytest

from repro.dram.bank import BankState
from repro.dram.scheduler import PendingRequest, PriorityFrFcfsScheduler
from repro.dram.timing import DramTiming
from repro.sim.packet import MemoryPacket


def make_request(bank=0, row=0, priority=0, enq=0, ds_id=0):
    return PendingRequest(
        packet=MemoryPacket(ds_id=ds_id, addr=0),
        bank_index=bank,
        row=row,
        priority=priority,
        enqueued_at_ps=enq,
        on_response=lambda p: None,
        ds_id=ds_id,
    )


def make_banks(n=4):
    return [BankState(i) for i in range(n)]


class TestPriorityQueues:
    def test_high_priority_first(self):
        sched = PriorityFrFcfsScheduler(priority_levels=2)
        sched.enqueue(make_request(priority=0, enq=0, ds_id=1))
        sched.enqueue(make_request(priority=1, enq=100, ds_id=2))
        banks = make_banks()
        chosen = sched.select(banks, now_ps=200)
        assert chosen.packet.ds_id == 2  # newer but higher priority

    def test_priority_out_of_range_rejected(self):
        sched = PriorityFrFcfsScheduler(priority_levels=2)
        with pytest.raises(ValueError):
            sched.enqueue(make_request(priority=2))

    def test_single_level_fifo_baseline(self):
        sched = PriorityFrFcfsScheduler(priority_levels=1)
        sched.enqueue(make_request(enq=10, ds_id=1))
        sched.enqueue(make_request(enq=5, ds_id=2))
        chosen = sched.select(make_banks(), now_ps=100)
        assert chosen.packet.ds_id == 2  # oldest first

    def test_occupancy_tracks_enqueue_and_select(self):
        sched = PriorityFrFcfsScheduler(2)
        sched.enqueue(make_request())
        sched.enqueue(make_request(priority=1))
        assert sched.occupancy == 2
        sched.select(make_banks(), 0)
        assert sched.occupancy == 1

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            PriorityFrFcfsScheduler(0)


class TestPopReady:
    def test_empty_returns_none_and_no_wait(self):
        assert PriorityFrFcfsScheduler(2).pop_ready(make_banks(), 0) == (None, 0)

    def test_pops_fifo_head_of_highest_priority(self):
        sched = PriorityFrFcfsScheduler(2)
        sched.enqueue(make_request(priority=0, enq=0, ds_id=1))
        sched.enqueue(make_request(priority=1, enq=20, ds_id=2))
        sched.enqueue(make_request(priority=1, enq=10, ds_id=3))
        order = []
        while True:
            request, _wait = sched.pop_ready(make_banks(), 100)
            if request is None:
                break
            order.append(request.ds_id)
        assert order == [2, 3, 1]  # enqueue order within a priority
        assert sched.occupancy == 0

    def test_busy_head_blocks_lower_priority(self):
        sched = PriorityFrFcfsScheduler(2)
        banks = make_banks()
        banks[1].ready_at_ps = 500
        sched.enqueue(make_request(bank=0, priority=0, ds_id=1))
        sched.enqueue(make_request(bank=1, priority=1, ds_id=2))
        assert sched.pop_ready(banks, 100) == (None, 500)
        assert sched.occupancy == 2
        request, wait = sched.pop_ready(banks, 500)
        assert (request.ds_id, wait) == (2, 0)


class TestFrFcfs:
    def test_row_hit_preferred_over_older_miss(self):
        sched = PriorityFrFcfsScheduler(1)
        banks = make_banks()
        timing = DramTiming()
        banks[0].record_access(7, 0, 0, timing, 1250, False)  # row 7 open
        sched.enqueue(make_request(bank=0, row=3, enq=0, ds_id=1))   # older, miss
        sched.enqueue(make_request(bank=0, row=7, enq=50, ds_id=2))  # newer, hit
        chosen = sched.select(banks, now_ps=100)
        assert chosen.packet.ds_id == 2

    def test_oldest_hit_wins_among_hits(self):
        sched = PriorityFrFcfsScheduler(1)
        banks = make_banks()
        timing = DramTiming()
        banks[0].record_access(7, 0, 0, timing, 1250, False)
        sched.enqueue(make_request(bank=0, row=7, enq=50, ds_id=1))
        sched.enqueue(make_request(bank=0, row=7, enq=10, ds_id=2))
        chosen = sched.select(banks, now_ps=100)
        assert chosen.packet.ds_id == 2

    def test_busy_bank_requests_skipped(self):
        sched = PriorityFrFcfsScheduler(1)
        banks = make_banks()
        banks[0].ready_at_ps = 1_000_000
        sched.enqueue(make_request(bank=0, enq=0, ds_id=1))
        sched.enqueue(make_request(bank=1, enq=50, ds_id=2))
        chosen = sched.select(banks, now_ps=100)
        assert chosen.packet.ds_id == 2

    def test_returns_none_when_no_bank_ready(self):
        sched = PriorityFrFcfsScheduler(1)
        banks = make_banks()
        banks[0].ready_at_ps = 1_000_000
        sched.enqueue(make_request(bank=0))
        assert sched.select(banks, now_ps=100) is None
        assert sched.occupancy == 1  # not consumed

    def test_low_priority_served_when_high_bank_busy(self):
        sched = PriorityFrFcfsScheduler(2)
        banks = make_banks()
        banks[0].ready_at_ps = 1_000_000
        sched.enqueue(make_request(bank=0, priority=1, ds_id=1))
        sched.enqueue(make_request(bank=1, priority=0, ds_id=2))
        chosen = sched.select(banks, now_ps=100)
        assert chosen.packet.ds_id == 2


class TestNextBankReady:
    def test_empty_queue_returns_none(self):
        sched = PriorityFrFcfsScheduler(1)
        assert sched.next_bank_ready_ps(make_banks(), 0) is None

    def test_earliest_ready_time(self):
        sched = PriorityFrFcfsScheduler(1)
        banks = make_banks()
        banks[0].ready_at_ps = 500
        banks[1].ready_at_ps = 300
        sched.enqueue(make_request(bank=0))
        sched.enqueue(make_request(bank=1))
        assert sched.next_bank_ready_ps(banks, now_ps=0) == 300

    def test_ready_now_clamps_to_now(self):
        sched = PriorityFrFcfsScheduler(1)
        banks = make_banks()
        sched.enqueue(make_request(bank=0))
        assert sched.next_bank_ready_ps(banks, now_ps=700) == 700
