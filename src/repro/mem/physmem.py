"""Sparse physical memory and the permission-checked memory bus.

:class:`PhysicalMemory` is the raw DRAM array (sparse, page-granular, so a
1 GB machine costs only what is actually touched).  :class:`MemoryBus`
wraps it with the two hardware checkers that ZION's isolation rests on:
per-hart PMP for CPU accesses and the platform IOPMP for DMA.  All software
below M mode and all devices must go through the bus; only the SM's own
M-mode accesses bypass permission checks (as the PMP architecture
specifies for M mode).
"""

from __future__ import annotations

import struct

from repro.errors import MemoryError_, TrapRaised
from repro.isa.iopmp import IopmpUnit
from repro.isa.traps import AccessType, access_fault_for

PAGE_SIZE = 4096

_U64 = struct.Struct("<Q")
#: Bound once: a lookup through an enum class runs its metaclass's
#: attribute hook, and every PMP- or IOPMP-checked access names one.
_LOAD, _STORE, _FETCH = AccessType.LOAD, AccessType.STORE, AccessType.FETCH


def page_of(addr: int) -> int:
    """Page index containing physical address ``addr``."""
    return addr >> 12


def page_base(addr: int) -> int:
    """Base address of the page containing ``addr``."""
    return addr & ~(PAGE_SIZE - 1)


class PhysicalMemory:
    """Byte-addressable sparse DRAM.

    Pages materialise (zero-filled) on first write; reads of untouched
    pages return zeros, matching DRAM scrubbed at boot.
    """

    def __init__(self, base: int, size: int):
        if base % PAGE_SIZE or size % PAGE_SIZE:
            raise ValueError("memory base and size must be page-aligned")
        self.base = base
        self.size = size
        # Cached bound: ``end`` is consulted on every u64 access, and a
        # property call per check was measurable on the walk path.
        self._end = base + size
        self._pages: dict[int, bytearray] = {}

    @property
    def end(self) -> int:
        return self._end

    def contains(self, addr: int, size: int = 1) -> bool:
        """Whether the range lies inside this DRAM."""
        return self.base <= addr and addr + size <= self._end

    def _check_range(self, addr: int, size: int) -> None:
        if size < 0:
            raise MemoryError_(f"negative access size {size}")
        if not self.contains(addr, size):
            raise MemoryError_(
                f"physical access [{addr:#x}, {addr + size:#x}) outside "
                f"DRAM [{self.base:#x}, {self.end:#x})"
            )

    def _page(self, index: int, create: bool) -> bytearray | None:
        page = self._pages.get(index)
        if page is None and create:
            page = bytearray(PAGE_SIZE)
            self._pages[index] = page
        return page

    def read(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes at ``addr`` (zeros for untouched pages)."""
        self._check_range(addr, size)
        offset = addr & (PAGE_SIZE - 1)
        if offset + size <= PAGE_SIZE:
            # Single-page fast path: one slice, no bytearray assembly.
            page = self._pages.get(addr >> 12)
            if page is None:
                return bytes(size)
            return bytes(page[offset : offset + size])
        out = bytearray()
        while size:
            offset = addr & (PAGE_SIZE - 1)
            chunk = min(size, PAGE_SIZE - offset)
            page = self._page(page_of(addr), create=False)
            if page is None:
                out += bytes(chunk)
            else:
                out += page[offset : offset + chunk]
            addr += chunk
            size -= chunk
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` at ``addr``, materialising pages as needed."""
        size = len(data)
        self._check_range(addr, size)
        offset = addr & (PAGE_SIZE - 1)
        if offset + size <= PAGE_SIZE:
            index = addr >> 12
            page = self._pages.get(index)
            if page is None:
                page = bytearray(PAGE_SIZE)
                self._pages[index] = page
            page[offset : offset + size] = data
            return
        view = memoryview(data)
        while view:
            offset = addr & (PAGE_SIZE - 1)
            chunk = min(len(view), PAGE_SIZE - offset)
            page = self._page(page_of(addr), create=True)
            page[offset : offset + chunk] = view[:chunk]
            addr += chunk
            view = view[chunk:]

    def read_u64(self, addr: int) -> int:
        """Read one aligned 64-bit little-endian word."""
        if addr & 7:
            raise MemoryError_(f"misaligned u64 read at {addr:#x}")
        if not (self.base <= addr and addr + 8 <= self._end):
            self._check_range(addr, 8)
        # Aligned u64s never straddle a page: unpack in place.
        page = self._pages.get(addr >> 12)
        if page is None:
            return 0
        return _U64.unpack_from(page, addr & (PAGE_SIZE - 1))[0]

    def write_u64(self, addr: int, value: int) -> None:
        """Write one aligned 64-bit little-endian word."""
        if addr & 7:
            raise MemoryError_(f"misaligned u64 write at {addr:#x}")
        if not (self.base <= addr and addr + 8 <= self._end):
            self._check_range(addr, 8)
        index = addr >> 12
        page = self._pages.get(index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[index] = page
        _U64.pack_into(page, addr & (PAGE_SIZE - 1), value & (1 << 64) - 1)

    def zero_range(self, addr: int, size: int) -> None:
        """Scrub a range (page-efficient; whole pages are dropped)."""
        self._check_range(addr, size)
        if size == PAGE_SIZE and not addr & (PAGE_SIZE - 1):
            # Exactly one aligned page (the allocator's scrub): drop it.
            self._pages.pop(addr >> 12, None)
            return
        while size:
            offset = addr & (PAGE_SIZE - 1)
            chunk = min(size, PAGE_SIZE - offset)
            if offset == 0 and chunk == PAGE_SIZE:
                self._pages.pop(page_of(addr), None)
            else:
                page = self._page(page_of(addr), create=False)
                if page is not None:
                    page[offset : offset + chunk] = bytes(chunk)
            addr += chunk
            size -= chunk

    def resident_pages(self) -> int:
        """Number of materialised pages (simulator introspection)."""
        return len(self._pages)


class MemoryBus:
    """The checked path to physical memory.

    CPU accesses are checked against the issuing hart's PMP at the hart's
    *effective privilege* (VS/VU are below M like HS/U); DMA accesses are
    checked against the platform IOPMP by bus-master source ID.  Denials
    raise the architecturally-correct access-fault trap.
    """

    def __init__(self, dram: PhysicalMemory, iopmp: IopmpUnit | None = None):
        self.dram = dram
        self.iopmp = iopmp if iopmp is not None else IopmpUnit()

    # -- CPU side -----------------------------------------------------------

    def _cpu_check(self, hart, addr: int, size: int, access: AccessType) -> None:
        if not hart.pmp.check(addr, size, access, hart.mode):
            raise TrapRaised(
                access_fault_for(access),
                tval=addr,
                message=f"PMP denied {access.value} at {addr:#x} from {hart.mode.name}",
            )

    def cpu_read(self, hart, addr: int, size: int) -> bytes:
        """PMP-checked CPU load at the hart's current privilege."""
        self._cpu_check(hart, addr, size, _LOAD)
        return self.dram.read(addr, size)

    def cpu_write(self, hart, addr: int, data: bytes) -> None:
        """PMP-checked CPU store at the hart's current privilege."""
        self._cpu_check(hart, addr, len(data), _STORE)
        self.dram.write(addr, data)

    def cpu_read_u64(self, hart, addr: int) -> int:
        """PMP-checked 64-bit CPU load."""
        self._cpu_check(hart, addr, 8, _LOAD)
        return self.dram.read_u64(addr)

    def cpu_write_u64(self, hart, addr: int, value: int) -> None:
        """PMP-checked 64-bit CPU store."""
        self._cpu_check(hart, addr, 8, _STORE)
        self.dram.write_u64(addr, value)

    def cpu_zero_range(self, hart, addr: int, size: int) -> None:
        """PMP-checked bulk zeroing (the host's page-scrub primitive).

        One store-permission check over the whole range, then the raw
        sparse-aware clear: a scrub that strays into secure memory
        faults exactly like any other hypervisor store.
        """
        self._cpu_check(hart, addr, size, _STORE)
        self.dram.zero_range(addr, size)

    def cpu_fetch_check(self, hart, addr: int, size: int = 4) -> None:
        """PMP check for an instruction fetch (no data returned)."""
        self._cpu_check(hart, addr, size, _FETCH)

    # -- DMA side ------------------------------------------------------------

    def _dma_check(self, source_id: int, addr: int, size: int, access: AccessType) -> None:
        if not self.iopmp.check(source_id, addr, size, access):
            raise TrapRaised(
                access_fault_for(access),
                tval=addr,
                message=f"IOPMP denied {access.value} at {addr:#x} from device {source_id}",
            )

    def dma_read(self, source_id: int, addr: int, size: int) -> bytes:
        """IOPMP-checked device read by bus-master source id."""
        self._dma_check(source_id, addr, size, _LOAD)
        return self.dram.read(addr, size)

    def dma_write(self, source_id: int, addr: int, data: bytes) -> None:
        """IOPMP-checked device write by bus-master source id."""
        self._dma_check(source_id, addr, len(data), _STORE)
        self.dram.write(addr, data)

    def dma_check_range(self, source_id: int, addr: int, size: int, access: AccessType) -> None:
        """Permission-check a DMA range without moving data.

        Used by the accounting-only bulk-transfer path: the check is what
        security depends on; the byte movement is charged to the cycle
        ledger by the device model.
        """
        self._dma_check(source_id, addr, size, access)
