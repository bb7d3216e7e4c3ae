"""Unit tests for the strict-priority FIFO scheduler."""

import pytest

from repro.dram.bank import BankState
from repro.dram.scheduler import PendingRequest, PriorityScheduler
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
        sched = PriorityScheduler(priority_levels=2)
        sched.enqueue(make_request(priority=0, enq=0, ds_id=1))
        sched.enqueue(make_request(priority=1, enq=100, ds_id=2))
        chosen, _wait = sched.pop_ready(make_banks(), now_ps=200)
        assert chosen.packet.ds_id == 2  # newer but higher priority

    def test_priority_out_of_range_rejected(self):
        sched = PriorityScheduler(priority_levels=2)
        with pytest.raises(ValueError):
            sched.enqueue(make_request(priority=2))

    def test_single_level_fifo_baseline(self):
        sched = PriorityScheduler(priority_levels=1)
        sched.enqueue(make_request(enq=10, ds_id=1))
        sched.enqueue(make_request(enq=5, ds_id=2))
        chosen, _wait = sched.pop_ready(make_banks(), now_ps=100)
        assert chosen.packet.ds_id == 1  # first enqueued, not oldest stamp

    def test_occupancy_tracks_enqueue_and_select(self):
        sched = PriorityScheduler(2)
        sched.enqueue(make_request())
        sched.enqueue(make_request(priority=1))
        assert sched.occupancy == 2
        sched.pop_ready(make_banks(), 0)
        assert sched.occupancy == 1

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            PriorityScheduler(0)


class TestPopReady:
    def test_empty_returns_none_and_no_wait(self):
        assert PriorityScheduler(2).pop_ready(make_banks(), 0) == (None, 0)

    def test_pops_fifo_head_of_highest_priority(self):
        sched = PriorityScheduler(2)
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
        sched = PriorityScheduler(2)
        banks = make_banks()
        banks[1].ready_at_ps = 500
        sched.enqueue(make_request(bank=0, priority=0, ds_id=1))
        sched.enqueue(make_request(bank=1, priority=1, ds_id=2))
        assert sched.pop_ready(banks, 100) == (None, 500)
        assert sched.occupancy == 2
        request, wait = sched.pop_ready(banks, 500)
        assert (request.ds_id, wait) == (2, 0)
