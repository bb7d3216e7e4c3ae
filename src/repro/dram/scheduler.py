"""Memory request scheduling: priority queues + FR-FCFS.

PARD's memory control plane adds *priority queueing* in front of the
DRAM scheduler (Fig. 5): requests are steered into per-priority queues by
their DS-id's priority parameter, and the arbiter picks from the highest
non-empty priority first, applying FR-FCFS (first-ready = row-buffer hit
first, then oldest first [Rixner et al., ISCA'00]) within the chosen
queue. With a single priority level this degrades to plain FR-FCFS,
which is the baseline ("w/o control plane") configuration of Fig. 11.

The memory controller arbitrates with :meth:`PriorityFrFcfsScheduler.pop_ready`:
strict priority over FIFO queue heads (see ``MemoryController._pump``).
:meth:`PriorityFrFcfsScheduler.select` is the FR-FCFS variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.dram.bank import BankState
from repro.sim.packet import MemoryPacket


@dataclass(slots=True)
class PendingRequest:
    """A queued memory request with its decoded DRAM coordinates.

    ``ds_id`` is the packet's effective DS-id (the owner's, for a
    writeback).
    """

    packet: MemoryPacket
    bank_index: int
    row: int
    priority: int
    enqueued_at_ps: int
    on_response: Callable[[MemoryPacket], None]
    ds_id: int
    issued_at_ps: Optional[int] = field(default=None)


class PriorityFrFcfsScheduler:
    """Bounded set of priority queues with FR-FCFS selection."""

    def __init__(self, priority_levels: int = 2):
        if priority_levels <= 0:
            raise ValueError("priority_levels must be positive")
        self.priority_levels = priority_levels
        # One FIFO list per priority level, lowest priority first, and
        # the same lists highest priority first for arbitration.
        self._queues: list[list[PendingRequest]] = [[] for _ in range(priority_levels)]
        self._queues_by_rank = self._queues[::-1]
        self.total_enqueued = 0

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
        self.total_enqueued += 1

    def requeue(self, request: PendingRequest) -> None:
        """Return a selected-but-not-issued request to its queue.

        FR-FCFS ordering is by enqueue timestamp, so the position in the
        backing list does not matter.
        """
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

    def select(self, banks: list[BankState], now_ps: int) -> Optional[PendingRequest]:
        """Pick (and remove) the next request to issue, or None.

        Highest priority queue first; within a queue, FR-FCFS restricted
        to requests whose bank can accept a command now.
        """
        for priority in range(self.priority_levels - 1, -1, -1):
            queue = self._queues[priority]
            if not queue:
                continue
            chosen = self._fr_fcfs(queue, banks, now_ps)
            if chosen is not None:
                queue.remove(chosen)
                return chosen
        return None

    def next_bank_ready_ps(self, banks: list[BankState], now_ps: int) -> Optional[int]:
        """Earliest future time any queued request's bank becomes ready."""
        earliest: Optional[int] = None
        for queue in self._queues:
            for request in queue:
                ready = banks[request.bank_index].ready_at_ps
                candidate = max(ready, now_ps)
                if earliest is None or candidate < earliest:
                    earliest = candidate
        return earliest

    @staticmethod
    def _fr_fcfs(
        queue: list[PendingRequest], banks: list[BankState], now_ps: int
    ) -> Optional[PendingRequest]:
        first_ready: Optional[PendingRequest] = None
        oldest: Optional[PendingRequest] = None
        for request in queue:
            bank = banks[request.bank_index]
            if bank.ready_at_ps > now_ps:
                continue  # the bank cannot take a command yet
            if bank.row_state(request.row) == "hit":
                if first_ready is None or request.enqueued_at_ps < first_ready.enqueued_at_ps:
                    first_ready = request
            if oldest is None or request.enqueued_at_ps < oldest.enqueued_at_ps:
                oldest = request
        return first_ready if first_ready is not None else oldest
