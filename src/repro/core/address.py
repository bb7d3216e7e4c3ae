"""Per-LDom address mapping.

Each LDom sees a physical address space starting at 0 so it can run an
unmodified OS; the memory control plane's parameter table stores the
mapping that translates an LDom-physical address into a DRAM address
(PARD §4.2, Fig. 5). The mapping is a contiguous base+bound window here,
matching the paper's single AddrMap column per DS-id.
"""

from __future__ import annotations

from dataclasses import dataclass


class AddressTranslationError(Exception):
    """An LDom-physical address fell outside its DRAM window."""


def check_window(base: int, size: int) -> None:
    """Reject a window with a negative base or a non-positive size."""
    if base < 0 or size <= 0:
        raise ValueError(f"invalid mapping base={base} size={size}")


def translate_window(base: int, size: int, ldom_addr: int) -> int:
    """LDom-physical -> DRAM address through the window ``[base, base+size)``.

    Validates the window (``ValueError``) and bounds-checks the address
    (``AddressTranslationError``). The memory controller calls this with
    the cells of a parameter-table row, without building an
    :class:`AddressMapping` per request.
    """
    check_window(base, size)
    if not 0 <= ldom_addr < size:
        raise AddressTranslationError(
            f"LDom address {ldom_addr:#x} outside window of size {size:#x}"
        )
    return base + ldom_addr


@dataclass(frozen=True)
class AddressMapping:
    """A base+bound window mapping LDom-physical to DRAM addresses."""

    base: int
    size: int

    def __post_init__(self) -> None:
        check_window(self.base, self.size)

    @property
    def limit(self) -> int:
        """One past the highest DRAM address of the window."""
        return self.base + self.size

    def translate(self, ldom_addr: int) -> int:
        """LDom-physical -> DRAM address, bounds-checked."""
        return translate_window(self.base, self.size, ldom_addr)

    def reverse(self, dram_addr: int) -> int:
        """DRAM address -> LDom-physical, bounds-checked."""
        if not self.base <= dram_addr < self.limit:
            raise AddressTranslationError(
                f"DRAM address {dram_addr:#x} outside window "
                f"[{self.base:#x}, {self.limit:#x})"
            )
        return dram_addr - self.base

    def overlaps(self, other: "AddressMapping") -> bool:
        return self.base < other.limit and other.base < self.limit
