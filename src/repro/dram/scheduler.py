"""Memory request scheduling: priority queues with strict-priority arbitration.

PARD's memory control plane adds *priority queueing* in front of the
DRAM scheduler (Fig. 5): requests are steered into per-priority queues by
their DS-id's priority parameter, and the arbiter serves the head of the
highest non-empty queue first, FIFO within a queue
(:meth:`PriorityScheduler.pop_ready`, called from
``MemoryController._pump``). With a single priority level this is one
FIFO queue, the baseline ("w/o control plane") configuration of Fig. 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.dram.bank import BankState
from repro.sim.packet import MemoryPacket


@dataclass(slots=True, init=False)
class PendingRequest:
    """A queued memory request with its decoded DRAM coordinates.

    ``ds_id`` is the packet's effective DS-id (the owner's, for a
    writeback). One is allocated per DRAM request, so the constructor is
    written out by hand; it takes the generated one's arguments.
    """

    packet: MemoryPacket
    bank_index: int
    row: int
    priority: int
    enqueued_at_ps: int
    on_response: Callable[[MemoryPacket], None]
    ds_id: int

    def __init__(
        self,
        packet: MemoryPacket,
        bank_index: int,
        row: int,
        priority: int,
        enqueued_at_ps: int,
        on_response: Callable[[MemoryPacket], None],
        ds_id: int,
    ) -> None:
        self.packet = packet
        self.bank_index = bank_index
        self.row = row
        self.priority = priority
        self.enqueued_at_ps = enqueued_at_ps
        self.on_response = on_response
        self.ds_id = ds_id


class PriorityScheduler:
    """Bounded set of FIFO priority queues with strict-priority arbitration."""

    def __init__(self, priority_levels: int = 2):
        if priority_levels <= 0:
            raise ValueError("priority_levels must be positive")
        self.priority_levels = priority_levels
        # One FIFO list per priority level, lowest priority first, and
        # the same lists highest priority first for arbitration.
        self._queues: list[list[PendingRequest]] = [[] for _ in range(priority_levels)]
        self._queues_by_rank = self._queues[::-1]

    @property
    def occupancy(self) -> int:
        return sum(len(q) for q in self._queues)

    def queue_depth(self, priority: int) -> int:
        return len(self._queues[priority])

    def enqueue(self, request: PendingRequest) -> None:
        if not 0 <= request.priority < self.priority_levels:
            raise ValueError(
                f"priority {request.priority} out of range "
                f"[0, {self.priority_levels})"
            )
        self._queues[request.priority].append(request)

    def pop_ready(
        self, banks: list[BankState], now_ps: int
    ) -> tuple[Optional[PendingRequest], int]:
        """Strict-priority FIFO arbitration for the memory controller.

        The head of the highest non-empty queue owns the dispatch port.
        Returns ``(head, 0)`` with the head removed when its bank can
        take a command at ``now_ps``; ``(None, ready_at_ps)`` when the
        head's bank is busy until then; ``(None, 0)`` when every queue
        is empty.
        """
        for queue in self._queues_by_rank:
            if queue:
                head = queue[0]
                ready_at_ps = banks[head.bank_index].ready_at_ps
                if ready_at_ps > now_ps:
                    return None, ready_at_ps
                del queue[0]
                return head, 0
        return None, 0
