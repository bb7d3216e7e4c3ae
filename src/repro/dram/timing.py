"""DDR3 timing and geometry (Table 2 of the paper).

The simulated channel is DDR3-1600 11-11-11 with Micron MT41J512M8-class
4 Gbit chips: one channel, two ranks, eight banks per rank, 1 KB row
buffers, burst length 8. All timing constants are expressed in memory
bus cycles (tCK = 1.25 ns); the controller converts to picoseconds via
its clock domain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.clock import DRAM_CLOCK_PS


@dataclass(frozen=True)
class DramTiming:
    """DDR3 timing constraints in memory cycles.

    Table 2 gives nanosecond values at tCK = 1.25 ns:
    tRCD = tCL = tRP = 13.75 ns = 11 cycles, tRAS = 35 ns = 28 cycles,
    tRRD = 6 ns ~ 5 cycles, burst of 8 transfers = 4 cycles (DDR).
    """

    t_rcd: int = 11  # row-to-column (ACTIVATE -> READ/WRITE)
    t_cl: int = 11   # CAS latency (READ -> first data)
    t_rp: int = 11   # row precharge
    t_ras: int = 28  # minimum row-active time (ACTIVATE -> PRECHARGE)
    t_rrd: int = 5   # ACTIVATE-to-ACTIVATE, different banks
    t_burst: int = 4  # BL8 on a DDR bus = 4 bus cycles
    t_refi: int = 6240  # refresh interval: 7.8 us at tCK = 1.25 ns
    t_rfc: int = 208    # refresh cycle time: 260 ns for a 4 Gbit device

    def __post_init__(self) -> None:
        for field_name in (
            "t_rcd", "t_cl", "t_rp", "t_ras", "t_rrd", "t_burst", "t_refi", "t_rfc"
        ):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")
        # Issue-to-last-data latencies in cycles, computed once (the
        # controller reads one per request): a row-buffer hit, a
        # precharged bank (row empty), and another row open (precharge
        # first). All timings are positive, so hit < closed < conflict.
        set_derived = object.__setattr__
        set_derived(self, "row_hit_latency", self.t_cl + self.t_burst)
        set_derived(self, "row_closed_latency", self.t_rcd + self.t_cl + self.t_burst)
        set_derived(
            self, "row_conflict_latency", self.t_rp + self.t_rcd + self.t_cl + self.t_burst
        )


@dataclass(frozen=True)
class DramGeometry:
    """Channel organization; Table 2's single-channel configuration."""

    ranks: int = 2
    banks_per_rank: int = 8
    row_bytes: int = 1024
    capacity_bytes: int = 8 * 1024 ** 3  # 8 GB

    def __post_init__(self) -> None:
        if min(self.ranks, self.banks_per_rank, self.row_bytes) <= 0:
            raise ValueError("geometry values must be positive")
        if self.row_bytes & (self.row_bytes - 1):
            raise ValueError("row_bytes must be a power of two")
        # Derived once; decompose_address reads them on every request.
        set_derived = object.__setattr__
        set_derived(self, "total_banks", self.ranks * self.banks_per_rank)
        set_derived(self, "row_shift", self.row_bytes.bit_length() - 1)

    @property
    def rows_per_bank(self) -> int:
        return self.capacity_bytes // (self.total_banks * self.row_bytes)


def decompose_address(addr: int, geometry: DramGeometry) -> tuple[int, int, int]:
    """DRAM physical address -> ``(bank_index, row, column)``.

    Consecutive rows interleave across banks so streaming workloads
    spread over the whole channel (standard row-interleaved mapping).
    ``bank_index`` is flat across ranks (0 .. total_banks-1).
    """
    if addr < 0:
        raise ValueError(f"negative DRAM address {addr}")
    row_number = addr >> geometry.row_shift  # row_bytes is a power of two
    total_banks = geometry.total_banks
    return (row_number % total_banks, row_number // total_banks,
            addr & (geometry.row_bytes - 1))


DRAM_CYCLE_PS = DRAM_CLOCK_PS
