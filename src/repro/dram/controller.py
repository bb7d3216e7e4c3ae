"""The memory controller (PARD Fig. 5).

Request flow, mirroring the paper's numbered steps:

1. A tagged request arrives; the control plane's parameter table supplies
   the DS-id's address mapping, scheduling priority and row-buffer policy.
2. The LDom-physical address is translated to a DRAM address.
3. The request enters the priority queue selected by its DS-id.
4. The arbiter issues requests high-priority-first, FIFO within a
   priority, subject to bank timing and data-bus availability.
5. The control plane updates its statistics table (bandwidth, average
   queueing delay, service count) and evaluates triggers at window ticks.

Without a control plane the controller is the Fig. 11 baseline: one
FIFO queue, no address translation, no priority.

The timing model is command-accurate at the granularity of whole
accesses: per-bank row state decides hit/closed/conflict latency
(DDR3-1600 11-11-11, Table 2), tRAS is enforced on precharge, and the
shared data bus serializes bursts. Refresh is modeled but off by
default (it would add the same ~3% to every configuration and no paper
experiment depends on it); see :meth:`MemoryController._refresh`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.address import translate_window
from repro.dram.bank import BankState
from repro.dram.scheduler import PendingRequest, PriorityScheduler
from repro.dram.timing import DramGeometry, DramTiming, decompose_address
from repro.sim.clock import ClockDomain
from repro.sim.component import Component, ResponseCallback
from repro.sim.engine import Engine
from repro.sim.packet import MemoryPacket
from repro.sim.stats import LatencyRecorder


class MemoryController(Component):
    """A single-channel DDR3 memory controller."""

    def __init__(
        self,
        engine: Engine,
        clock: ClockDomain,
        timing: Optional[DramTiming] = None,
        geometry: Optional[DramGeometry] = None,
        control=None,
        priority_levels: int = 2,
        hp_row_buffer: bool = True,
        enable_refresh: bool = False,
        translate_addresses: bool = True,
        name: str = "memctrl",
        telemetry=None,
    ):
        super().__init__(engine, name, clock)
        self.timing = timing or DramTiming()
        self.geometry = geometry or DramGeometry()
        self.control = control
        self.translate_addresses = translate_addresses
        self.telemetry = (
            telemetry if (telemetry is not None and telemetry.enabled) else None
        )
        self._qdelay_hist = None
        if self.telemetry is not None:
            reg = self.telemetry.registry
            reg.gauge_fn(f"dram.{name}.served_requests", lambda: self.served_requests)
            reg.gauge_fn(f"dram.{name}.served_bytes", lambda: self.served_bytes)
            reg.gauge_fn(
                f"dram.{name}.mean_qdelay_cycles",
                lambda: self.mean_queue_delay_cycles,
            )
            # Queueing delay in memory cycles; log-spaced from 1 cycle to
            # ~32k cycles covers idle through heavily-backlogged queues.
            self._qdelay_hist = reg.histogram(
                f"dram.{name}.qdelay_cycles", start=1.0, growth=2.0, count=16
            )
        if control is None:
            # Fig. 11 baseline: a single FIFO queue.
            priority_levels = 1
            hp_row_buffer = False
        self.hp_row_buffer = hp_row_buffer
        # Per-request constants, in picoseconds of this clock domain.
        self._cycle_ps = clock.period_ps
        self._burst_ps = self.timing.t_burst * clock.period_ps
        self.scheduler = PriorityScheduler(priority_levels)
        self._top_priority = priority_levels - 1
        self.banks = [
            BankState(i, hp_row_buffer=hp_row_buffer)
            for i in range(self.geometry.total_banks)
        ]
        self.bus_free_at_ps = 0
        # The armed arbitration wakeup and its time (see _arm_wakeup).
        self._wakeup_handle = None
        self._wakeup_at_ps = 0
        # Queueing delay per priority level, in memory cycles (Fig. 11).
        self.queue_delay = [
            LatencyRecorder(f"{name}.qdelay.p{p}") for p in range(priority_levels)
        ]
        self.served_requests = 0
        self.served_bytes = 0
        self.refreshes_performed = 0
        if control is not None:
            control.bind_controller(self)
        if enable_refresh:
            self.engine.post(
                self.timing.t_refi * clock.period_ps, self._refresh
            )

    def _refresh(self) -> None:
        """All-bank refresh: precharge every row and block the banks for
        tRFC. Off by default (it costs every configuration the same
        ~tRFC/tREFI ≈ 3% and no paper experiment depends on it); enable
        with ``enable_refresh=True`` for refresh-sensitivity studies.
        """
        cycle_ps = self.clock.period_ps
        blocked_until = self.now + self.timing.t_rfc * cycle_ps
        for bank in self.banks:
            bank.close()
            if bank.ready_at_ps < blocked_until:
                bank.ready_at_ps = blocked_until
        self.refreshes_performed += 1
        self.engine.post(self.timing.t_refi * cycle_ps, self._refresh)
        self.engine.post_at(blocked_until, self._pump)

    # -- request entry ------------------------------------------------------

    def handle_request(self, packet: MemoryPacket, on_response: ResponseCallback) -> None:
        ds_id = packet.effective_ds_id
        addr = packet.addr
        priority = 0
        control = self.control
        if control is not None:
            # One read of the DS-id's live parameter row serves the
            # address mapping and the priority.
            policy = control.parameters.live_row(ds_id)
            if policy is not None:
                size = policy["addr_size"]
                if size and self.translate_addresses:
                    addr = translate_window(policy["addr_base"], size, addr)
                # Clamped to the levels this controller has.
                priority = policy["priority"]
                if priority > self._top_priority:
                    priority = self._top_priority
                if priority < 0:
                    priority = 0
        bank_index, row, _column = decompose_address(addr, self.geometry)
        now = self.engine.now
        self.scheduler.enqueue(PendingRequest(
            packet, bank_index, row, priority, now, on_response, ds_id
        ))
        if packet.span is not None:
            packet.span.hop(f"{self.name}.enqueue", now)
        self._pump()

    # -- arbitration / issue --------------------------------------------------

    def _pump(self) -> None:
        """Dispatch queued requests to bank state machines (Fig. 5).

        Each priority class is a strict FIFO: only the head of a queue
        can dispatch, and it dispatches when its bank's state machine is
        free -- so a bank conflict at the head blocks everything behind
        it (head-of-line blocking). That is exactly why the baseline
        single-queue controller shows large queueing delays at moderate
        utilization, and why the control plane's priority queues help: a
        high-priority request waits only for its own queue's head-of-line
        and its own bank, never behind the low-priority backlog.

        Arbitration is strictly "high-priority first" (§4.2): one
        dispatch port, owned by the head of the highest non-empty queue
        even while that head's bank is busy. This keeps the two
        configurations capacity-equivalent (the port, banks and data bus
        are identical); the control plane redistributes *waiting*, which
        is what Fig. 11 measures.
        """
        banks = self.banks
        scheduler = self.scheduler
        while True:
            request, busy_until_ps = scheduler.pop_ready(banks, self.engine.now)
            if request is None:
                # Strict priority: the preferred head owns the dispatch
                # port even while its bank is busy. An armed wakeup at or
                # before its ready time suffices (see _arm_wakeup).
                if busy_until_ps and (
                    self._wakeup_handle is None or busy_until_ps < self._wakeup_at_ps
                ):
                    self._arm_wakeup(busy_until_ps)
                return
            self._issue(request)

    def _issue(self, request: PendingRequest) -> None:
        bank = self.banks[request.bank_index]
        # The extra row buffer is for high-priority DS-ids whose rowbuf
        # parameter allows it (read at issue, like the rest of the policy).
        high_priority = False
        if request.priority and self.hp_row_buffer:
            control = self.control
            high_priority = control is None or bool(control.rowbuf_enabled(request.ds_id))
        timing = self.timing
        row = request.row
        latency_cycles = bank.access_latency_cycles(row, timing, high_priority)
        cycle_ps = self._cycle_ps
        issue_ps = self.engine.now
        # The shared data bus serializes bursts; row preparation overlaps
        # with other banks' transfers.
        data_start_ps = issue_ps + (latency_cycles - timing.t_burst) * cycle_ps
        if data_start_ps < self.bus_free_at_ps:
            data_start_ps = self.bus_free_at_ps
        done_ps = self.bus_free_at_ps = data_start_ps + self._burst_ps
        done_ps = bank.record_access(
            row, issue_ps, done_ps, timing, cycle_ps, high_priority, latency_cycles
        )
        delay_cycles = (issue_ps - request.enqueued_at_ps) / cycle_ps
        self.queue_delay[request.priority].record(delay_cycles)
        if self._qdelay_hist is not None:
            self._qdelay_hist.record(delay_cycles)
        if request.packet.span is not None:
            request.packet.span.hop(f"{self.name}.issue", issue_ps)

        def complete() -> None:
            """The access is done: account it, respond, and re-arbitrate."""
            packet = request.packet
            size = packet.size
            self.served_requests += 1
            self.served_bytes += size
            if packet.span is not None:
                packet.span.hop(f"{self.name}.complete", done_ps)
            if self.control is not None:
                self.control.record_service(request.ds_id, size, delay_cycles)
            request.on_response(packet)
            self._pump()

        self.engine.post_at(done_ps, complete)

    def _arm_wakeup(self, wake_at_ps: int) -> None:
        """Schedule the next arbitration pass at ``wake_at_ps``, replacing
        a later armed one.

        ``_pump`` calls this only when no wakeup is armed at or before
        ``wake_at_ps`` (a busy bank's ready time, so in the future). Only
        this method arms or cancels the wakeup, so ``_wakeup_at_ps`` is
        the armed handle's time and a handle is never left cancelled. A
        wakeup that already fired, whose time is in the past, also counts
        as armed: after the first wakeup fires, progress comes from the
        ``_pump`` run by each completion, when the busy bank's access
        ends.
        """
        if self._wakeup_handle is not None:
            self._wakeup_handle.cancel()
        self._wakeup_at_ps = wake_at_ps
        self._wakeup_handle = self.engine.schedule_at(wake_at_ps, self._pump)

    # -- introspection ------------------------------------------------------------

    @property
    def mean_queue_delay_cycles(self) -> float:
        count = sum(recorder.count for recorder in self.queue_delay)
        if not count:
            return 0.0
        return sum(recorder.total for recorder in self.queue_delay) / count
