"""IOPMP: physical memory protection for bus masters (DMA).

Models the RISC-V IOPMP proposal at the level ZION uses it: a table of
(source-id, region, permissions) rules checked on every DMA transaction.
The SM programs a deny rule covering the secure memory pool for all
device source IDs, so a malicious peripheral cannot read or tamper with
CVM memory even though the CPU-side PMP does not see DMA traffic.
"""

from __future__ import annotations

import dataclasses

from repro.isa.traps import AccessType

#: Bound once: a lookup through an enum class runs its metaclass's
#: attribute hook, and :meth:`IopmpEntry.permits` runs per DMA check.
_LOAD, _STORE = AccessType.LOAD, AccessType.STORE


@dataclasses.dataclass(frozen=True)
class IopmpEntry:
    """One IOPMP rule.

    ``source_id`` is the bus-master ID the rule applies to, or ``None``
    for a rule that matches every master.  Rules are priority-ordered;
    the first matching rule decides.
    """

    base: int
    size: int
    source_id: int | None = None
    readable: bool = False
    writable: bool = False

    @property
    def end(self) -> int:
        return self.base + self.size

    def matches(self, source_id: int, addr: int, size: int) -> str:
        """'full', 'partial' or 'none' match of the DMA access."""
        if self.source_id is not None and self.source_id != source_id:
            return "none"
        lo, hi = addr, addr + size
        if hi <= self.base or lo >= self.end:
            return "none"
        if lo >= self.base and hi <= self.end:
            return "full"
        return "partial"

    def permits(self, access: AccessType) -> bool:
        """Whether the rule's permissions allow the access type."""
        if access is _LOAD:
            return self.readable
        if access is _STORE:
            return self.writable
        return False  # devices do not fetch


class IopmpUnit:
    """The platform IOPMP: checks every DMA transaction."""

    def __init__(self):
        self._entries: list[IopmpEntry] = []

    def entries(self):
        """A copy of the current rule list, in priority order."""
        return list(self._entries)

    def add_entry(self, entry: IopmpEntry) -> int:
        """Append a rule at the lowest priority; returns its index."""
        self._entries.append(entry)
        return len(self._entries) - 1

    def insert_entry(self, index: int, entry: IopmpEntry) -> None:
        """Insert a rule at ``index`` (higher priority than what follows)."""
        self._entries.insert(index, entry)

    def clear(self) -> None:
        """Remove every rule (back to the default-allow reset state)."""
        self._entries.clear()

    def check(self, source_id: int, addr: int, size: int, access: AccessType) -> bool:
        """Whether the DMA access is permitted.

        Default-deny once any rule is programmed (matching the IOPMP
        spec's initial-state recommendation for secure platforms);
        default-allow on a platform with no IOPMP rules at all.
        """
        for entry in self._entries:
            match = entry.matches(source_id, addr, size)
            if match == "none":
                continue
            if match == "partial":
                return False
            return entry.permits(access)
        return not self._entries
