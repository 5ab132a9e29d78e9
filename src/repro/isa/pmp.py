"""Physical Memory Protection (PMP).

Faithful functional model of the PMP unit per the privileged spec: 16
entries, each an address-matching rule (OFF / TOR / NA4 / NAPOT) with R/W/X
permissions and a lock bit.  Matching priority is the entry index (lowest
wins); an access that only partially matches an entry fails; if no entry
matches, M-mode accesses succeed and lower-privilege accesses fail (when at
least one entry is implemented).

ZION uses PMP to carve the secure memory pool out of normal DRAM: the SM
flips the pool entry's permissions on every world switch so that Normal
mode (the hypervisor and everything below it) cannot touch CVM memory.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.isa.privilege import PrivilegeMode
from repro.isa.traps import AccessType

PMP_ENTRY_COUNT = 16


class PmpAddressMode(enum.Enum):
    """The A field of pmpcfg: how the entry's address range is encoded."""

    OFF = 0
    TOR = 1  # top of range: [previous entry's address, this address)
    NA4 = 2  # naturally aligned 4-byte region
    NAPOT = 3  # naturally aligned power-of-two region


@dataclasses.dataclass(frozen=True)
class PmpEntry:
    """One PMP entry: an address rule plus permissions.

    For convenience the simulator stores the region explicitly as
    ``(base, size)`` rather than the raw pmpaddr encoding; ``base`` and
    ``size`` must reflect a region the chosen mode could encode (NAPOT
    regions must be naturally-aligned powers of two).
    """

    mode: PmpAddressMode = PmpAddressMode.OFF
    base: int = 0
    size: int = 0
    readable: bool = False
    writable: bool = False
    executable: bool = False
    locked: bool = False
    #: ``(base, end, locked, readable, writable, executable)``, the tuple
    #: :meth:`PmpUnit.check` scans, or ``None`` for an entry that can
    #: never match (OFF or empty).  Built once, at construction.
    match: tuple | None = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode is PmpAddressMode.NA4 and self.size != 4:
            raise ValueError("NA4 entries cover exactly 4 bytes")
        if self.mode is PmpAddressMode.NAPOT:
            if self.size < 8 or self.size & (self.size - 1):
                raise ValueError("NAPOT size must be a power of two >= 8")
            if self.base % self.size:
                raise ValueError("NAPOT region must be naturally aligned")
        matchable = self.mode is not PmpAddressMode.OFF and self.size != 0
        object.__setattr__(self, "match", (
            self.base, self.end, self.locked, self.readable, self.writable, self.executable,
        ) if matchable else None)

    @property
    def end(self) -> int:
        return self.base + self.size

    def matches(self, addr: int, size: int) -> str:
        """'full', 'partial', or 'none' match of [addr, addr+size)."""
        if self.mode is PmpAddressMode.OFF or self.size == 0:
            return "none"
        lo, hi = addr, addr + size
        if hi <= self.base or lo >= self.end:
            return "none"
        if lo >= self.base and hi <= self.end:
            return "full"
        return "partial"

    def permits(self, access: AccessType) -> bool:
        """Whether the entry's permissions allow the access type."""
        if access is AccessType.LOAD:
            return self.readable
        if access is AccessType.STORE:
            return self.writable
        return self.executable


class PmpUnit:
    """The per-hart array of PMP entries plus the checking logic."""

    def __init__(self, entry_count: int = PMP_ENTRY_COUNT):
        self.entry_count = entry_count
        self._entries = [PmpEntry() for _ in range(entry_count)]
        self._rebuild()

    def _rebuild(self) -> None:
        # The matchable entries' tuples in priority order: check() runs
        # once per guest access, and iterating 16 PmpEntry objects (enum
        # compare + method calls each) dominated it.
        self._active = [e.match for e in self._entries if e.match is not None]
        self._any_implemented = bool(self._active) or any(
            e.mode is not PmpAddressMode.OFF for e in self._entries
        )

    def __getitem__(self, index: int) -> PmpEntry:
        return self._entries[index]

    def set_entry(self, index: int, entry: PmpEntry) -> None:
        """Program entry ``index``; locked entries refuse modification."""
        if self._entries[index].locked:
            raise PermissionError(f"PMP entry {index} is locked")
        self._entries[index] = entry
        self._rebuild()

    def set_entries(self, programme) -> None:
        """Program several ``(index, entry)`` pairs with one rebuild.

        The same writes as one :meth:`set_entry` per pair, except that
        every target is checked for the lock bit before any is written,
        so a refused programme leaves the unit untouched.
        """
        entries = self._entries
        for index, _entry in programme:
            if entries[index].locked:
                raise PermissionError(f"PMP entry {index} is locked")
        for index, entry in programme:
            entries[index] = entry
        self._rebuild()

    def entries(self):
        """A copy of the 16-entry array."""
        return list(self._entries)

    def check(self, addr: int, size: int, access: AccessType, mode: PrivilegeMode) -> bool:
        """Whether the access is permitted under the current configuration.

        ``mode`` is the *effective* privilege of the access; virtual modes
        (VS/VU) are below M and subject to PMP exactly like HS/U.
        """
        hi = addr + size
        is_m = mode is PrivilegeMode.M
        for base, end, locked, readable, writable, executable in self._active:
            if hi <= base or addr >= end:
                continue
            if addr < base or hi > end:
                return False  # partial match always fails
            if is_m and not locked:
                return True
            if access is AccessType.LOAD:
                return readable
            if access is AccessType.STORE:
                return writable
            return executable
        if is_m:
            return True
        return not self._any_implemented
