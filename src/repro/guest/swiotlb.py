"""SWIOTLB: the guest's bounce-buffer pool in shared memory.

A confidential VM cannot let devices DMA into its private memory (the
IOPMP forbids it), so its kernel routes all virtio buffers through a
bounce pool placed in the shared GPA region.  The paper's setup enables
SWIOTLB on *both* the normal and the confidential VM ("Both normal and
confidential VMs were configured with one vCPU, 256MB memory, and SWIOTLB
enabled"), so bounce-copy costs appear on both sides of every comparison;
what differs is only where the pool lives and the exit path around it.
"""

from __future__ import annotations

from repro.cycles import Category
from repro.errors import MemoryError_

#: Bound once: a lookup through an enum class runs its metaclass's
#: attribute hook.
_COPY = Category.COPY

#: Linux's default maximum single SWIOTLB mapping (128 slots x 2 KB).
MAX_MAPPING = 256 * 1024


class Swiotlb:
    """Slot allocator over a contiguous bounce window in GPA space."""

    def __init__(self, base_gpa: int, size: int, ledger, costs, slot_size: int = 2048):
        self.base_gpa = base_gpa
        self.size = size
        self.slot_size = slot_size
        self._ledger = ledger
        self._costs = costs
        self._slots = size // slot_size
        self._free = list(range(self._slots - 1, -1, -1))
        self._allocated: dict[int, int] = {}  # gpa -> slot count

    @property
    def free_slots(self) -> int:
        return len(self._free)

    def map_single(self, length: int) -> int:
        """Allocate a bounce region for one mapping; returns its GPA."""
        if length <= 0:
            # ``free[-0:]`` would be the whole stack, recorded as 0 slots.
            raise MemoryError_(f"SWIOTLB mapping length {length} is not positive")
        if length > MAX_MAPPING:
            raise MemoryError_(
                f"SWIOTLB mapping of {length} exceeds the {MAX_MAPPING} limit"
            )
        needed = -(-length // self.slot_size)
        if needed > len(self._free):
            raise MemoryError_("SWIOTLB exhausted")
        # Contiguous slots: take from the low end of the free stack.
        taken = sorted(self._free[-needed:])
        if all(b - a == 1 for a, b in zip(taken, taken[1:])):
            # The stack's tail is the run: pop it whole.
            del self._free[-needed:]
        else:
            # Fall back: linear scan for a contiguous run.
            taken = self._find_run(needed)
            for slot in taken:
                self._free.remove(slot)
        gpa = self.base_gpa + taken[0] * self.slot_size
        self._allocated[gpa] = needed
        return gpa

    def _find_run(self, needed: int) -> list[int]:
        free_sorted = sorted(self._free)
        run: list[int] = []
        for slot in free_sorted:
            if run and slot != run[-1] + 1:
                run = []
            run.append(slot)
            if len(run) == needed:
                return run
        raise MemoryError_("SWIOTLB fragmented: no contiguous run")

    def unmap_single(self, gpa: int) -> None:
        """Release a mapping's slots back to the pool."""
        needed = self._allocated.pop(gpa, None)
        if needed is None:
            raise MemoryError_(f"SWIOTLB unmap of unmapped GPA {gpa:#x}")
        first = (gpa - self.base_gpa) // self.slot_size
        self._free.extend(range(first, first + needed))

    def bounce(self, length: int) -> None:
        """Charge one direction of a bounce copy (private <-> shared)."""
        self._ledger.charge(Category.COPY, self._costs.copy_bytes(length))

    # -- batched mappings (one pass over the pool per batch) ---------------

    def map_many(self, lengths) -> list[int]:
        """Allocate bounce regions for a whole batch; returns their GPAs.

        All-or-nothing: if the pool runs out (or fragments) partway
        through, every mapping already made for this batch is released
        before the :class:`~repro.errors.MemoryError_` propagates, so a
        failed batch never leaks slots.
        """
        gpas: list[int] = []
        try:
            for length in lengths:
                gpas.append(self.map_single(length))
        except MemoryError_:
            for gpa in gpas:
                self.unmap_single(gpa)
            raise
        return gpas

    def unmap_many(self, gpas) -> None:
        """Release a batch of mappings back to the pool."""
        for gpa in gpas:
            self.unmap_single(gpa)

    def bounce_many(self, lengths) -> None:
        """Charge one direction of the bounce copies for a whole batch.

        One ledger charge for the summed per-buffer copy costs --
        bit-identical to charging each buffer separately, so batched and
        naive drivers account the same bytes at the same price.
        """
        self._ledger.charge(
            _COPY,
            sum(self._costs.copy_bytes(length) for length in lengths),
        )
