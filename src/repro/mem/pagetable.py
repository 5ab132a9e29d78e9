"""Sv39 (stage-1) and Sv39x4 (stage-2) page tables.

Tables are real: :meth:`PageTable.map` writes 64-bit PTE words into
simulated physical memory through a caller-supplied *accessor*, and
:meth:`PageTable.walk` reads them back.  The accessor carries the
privilege of whoever is editing the table -- the SM edits through an
unchecked M-mode accessor, the hypervisor through a PMP-checked one -- so
"the hypervisor cannot modify a CVM's page table" is enforced by the same
mechanism as on hardware: the table lives in PMP-protected memory.

PTE layout follows the privileged spec: V/R/W/X/U/G/A/D in bits 0..7 and
the PPN in bits 10..53.  A PTE with V=1 and R=W=X=0 is a pointer to the
next level; leaves are permitted at any level (superpages) with the usual
alignment requirement.
"""

from __future__ import annotations

import functools
import struct
from bisect import bisect_left
from itertools import compress

from repro.errors import MemoryError_
from repro.isa.traps import AccessType
from repro.mem.physmem import PAGE_SIZE, PhysicalMemory

PTE_V = 1 << 0
PTE_R = 1 << 1
PTE_W = 1 << 2
PTE_X = 1 << 3
PTE_U = 1 << 4
PTE_G = 1 << 5
PTE_A = 1 << 6
PTE_D = 1 << 7

_PPN_SHIFT = 10
_PPN_MASK = ((1 << 44) - 1) << _PPN_SHIFT
#: The lowest PTE word with a bit above the PPN (reserved, PBMT, N).
_ABOVE_PPN = 1 << 54

#: PTE permission bit required for each access type.
_REQUIRED_BIT = {
    AccessType.LOAD: PTE_R,
    AccessType.STORE: PTE_W,
    AccessType.FETCH: PTE_X,
}
# The same mapping as a member attribute: permission checks run once per
# guest access, and an attribute load beats an enum-keyed dict hash.
for _access, _bit in _REQUIRED_BIT.items():
    _access.required_pte_bit = _bit
del _access, _bit


def pte_pack(pa: int, flags: int) -> int:
    """Build a PTE word pointing at physical address ``pa``."""
    if pa % PAGE_SIZE:
        raise ValueError(f"PTE target must be page-aligned: {pa:#x}")
    return (pa >> 12) << _PPN_SHIFT | flags


def pte_target(pte: int) -> int:
    """Physical address a PTE points at."""
    return (pte & _PPN_MASK) >> _PPN_SHIFT << 12


def pte_is_leaf(pte: int) -> bool:
    """Whether the PTE is a leaf (any of R/W/X set)."""
    return bool(pte & (PTE_R | PTE_W | PTE_X))


def _reaches(ordered: list, after: int, end: int) -> bool:
    """Whether a sorted list of PTE words, none at or above bit 54, holds
    a word whose PA lies in ``(after, end)``.

    Such a word is ``ppn << 10 | flags``, so its PA lies in the window
    exactly when the word lies in ``[(after // 4096 + 1) << 10,
    ceil(end / 4096) << 10)``: two bisects decide it.
    """
    return bisect_left(ordered, -(-end // PAGE_SIZE) << _PPN_SHIFT) > bisect_left(
        ordered, (after // PAGE_SIZE + 1) << _PPN_SHIFT
    )


#: A scan that covers no slot of a table.
_NO_SLOTS = range(0)
#: The words of an untouched (all-zero) 512-entry table page.
_ZERO_WORDS = (0,) * (PAGE_SIZE // 8)


@functools.cache
def _slot_indices(bits: int) -> tuple:
    """The slot indices of a ``bits``-wide table as a tuple, shared by every
    scheme, for ``compress`` to pick valid slots from: iterating a tuple
    allocates no integer per slot, as iterating a ``range`` does."""
    return tuple(range(1 << bits))


class WalkResult:
    """Outcome of a successful translation walk.

    A ``__slots__`` value object (one is built per completed walk, which
    is once or twice per guest access on the TLB-miss path).
    """

    __slots__ = ("pa", "flags", "level", "levels_touched")

    def __init__(self, pa: int, flags: int, level: int, levels_touched: int):
        self.pa = pa
        self.flags = flags
        self.level = level  # 0 = 4 KB leaf; higher = superpage
        self.levels_touched = levels_touched  # table reads (cycle charging)

    def __repr__(self):
        return (
            f"WalkResult(pa={self.pa:#x}, flags={self.flags:#x}, "
            f"level={self.level}, levels_touched={self.levels_touched})"
        )

    def __eq__(self, other):
        if not isinstance(other, WalkResult):
            return NotImplemented
        return (
            self.pa == other.pa
            and self.flags == other.flags
            and self.level == other.level
            and self.levels_touched == other.levels_touched
        )


class PageTable:
    """A radix page table scheme (generic over Sv39 / Sv39x4 geometry)."""

    #: VPN field widths from root (index 0) to leaf.
    vpn_bits: tuple = (9, 9, 9)

    def __init__(self):
        self.levels = len(self.vpn_bits)
        # Per-depth geometry, precomputed once: recomputing these (a
        # slice + sum per PTE) dominated walk time on the hot path.
        self._shifts = tuple(
            12 + sum(self.vpn_bits[depth + 1 :]) for depth in range(self.levels)
        )
        self._masks = tuple((1 << bits) - 1 for bits in self.vpn_bits)
        self._spans = tuple(PAGE_SIZE << (shift - 12) for shift in self._shifts)
        self._va_limit = 1 << self.va_bits
        # One whole table page per level, unpacked in a single call.
        self._table_words = tuple(
            struct.Struct(f"<{1 << bits}Q") for bits in self.vpn_bits
        )
        self._slots = tuple(range(1 << bits) for bits in self.vpn_bits)
        self._indices = tuple(_slot_indices(bits) for bits in self.vpn_bits)

    @property
    def root_entries(self) -> int:
        return 1 << self.vpn_bits[0]

    @property
    def root_size(self) -> int:
        return self.root_entries * 8

    @property
    def va_bits(self) -> int:
        return 12 + sum(self.vpn_bits)

    def _index(self, va: int, depth: int) -> int:
        """Index into the table at ``depth`` (0 = root) for ``va``."""
        return (va >> self._shifts[depth]) & self._masks[depth]

    def _leaf_span(self, depth: int) -> int:
        """Bytes covered by a leaf installed at ``depth``."""
        return self._spans[depth]

    def _check_va(self, va: int) -> None:
        if not 0 <= va < self._va_limit:
            raise MemoryError_(
                f"address {va:#x} outside the {self.va_bits}-bit space"
            )

    # -- mapping -----------------------------------------------------------

    def map(self, accessor, root_pa: int, va: int, pa: int, flags: int, alloc_table, level: int = 0):
        """Install a leaf mapping ``va -> pa``.

        ``alloc_table`` is called to obtain a zeroed, page-aligned frame for
        each intermediate table that must be created; the caller thereby
        controls *where tables live* (ZION's split-table design hinges on
        this).  ``level`` 0 maps a 4 KB page; ``level`` 1 a 2 MB superpage,
        etc.  Returns the list of table frames allocated.
        """
        self._check_va(va)
        leaf_depth = self.levels - 1 - level
        span = self._leaf_span(leaf_depth)
        if va % span or pa % span:
            raise ValueError(
                f"level-{level} mapping requires {span:#x} alignment"
            )
        allocated = []
        table = root_pa
        read_u64 = accessor.read_u64
        shifts = self._shifts
        masks = self._masks
        for depth in range(leaf_depth):
            slot = table + 8 * ((va >> shifts[depth]) & masks[depth])
            pte = read_u64(slot)
            if not pte & PTE_V:
                child = alloc_table()
                allocated.append(child)
                accessor.write_u64(slot, pte_pack(child, PTE_V))
                table = child
            elif pte & 0b1110:  # leaf (R|W|X)
                raise MemoryError_(
                    f"cannot map {va:#x}: covered by a superpage at depth {depth}"
                )
            else:
                table = (pte & _PPN_MASK) >> _PPN_SHIFT << 12
        slot = table + 8 * ((va >> shifts[leaf_depth]) & masks[leaf_depth])
        old = accessor.read_u64(slot)
        if old & PTE_V:
            raise MemoryError_(f"{va:#x} is already mapped")
        accessor.write_u64(slot, pte_pack(pa, flags | PTE_V))
        return allocated

    def unmap(self, accessor, root_pa: int, va: int) -> int:
        """Remove the leaf covering ``va``; returns the old target PA."""
        self._check_va(va)
        table = root_pa
        for depth in range(self.levels):
            slot = table + 8 * self._index(va, depth)
            pte = accessor.read_u64(slot)
            if not pte & PTE_V:
                raise MemoryError_(f"{va:#x} is not mapped")
            if pte_is_leaf(pte):
                accessor.write_u64(slot, 0)
                return pte_target(pte)
            table = pte_target(pte)
        raise MemoryError_(f"walk for {va:#x} bottomed out without a leaf")

    # -- translation -----------------------------------------------------------

    def walk(self, accessor, root_pa: int, va: int) -> WalkResult | None:
        """Translate ``va``; ``None`` when no valid leaf covers it."""
        self._check_va(va)
        read_u64 = accessor.read_u64
        shifts = self._shifts
        masks = self._masks
        table = root_pa
        for depth in range(self.levels):
            slot = table + 8 * ((va >> shifts[depth]) & masks[depth])
            pte = read_u64(slot)
            if not pte & PTE_V:
                return None
            if pte & 0b1110:  # leaf (R|W|X)
                span = self._spans[depth]
                base = (pte & _PPN_MASK) >> _PPN_SHIFT << 12
                return WalkResult(
                    pa=base + (va & (span - 1)),
                    flags=pte & 0xFF,
                    level=self.levels - 1 - depth,
                    levels_touched=depth + 1,
                )
            table = (pte & _PPN_MASK) >> _PPN_SHIFT << 12
        return None

    def permits(self, flags: int, access: AccessType) -> bool:
        """Whether leaf permission ``flags`` allow ``access``."""
        return bool(flags & access.required_pte_bit)

    # -- introspection -----------------------------------------------------------

    # The scans run on every invariant sweep and every migration export.
    # They read raw memory (the M-mode view, uncharged): ``memory`` is a
    # :class:`~repro.mem.physmem.PhysicalMemory` or anything with its
    # ``read(addr, size)``.  Each table page is read and unpacked in one
    # bulk call, and ``compress`` skips its (mostly) zero slots in C, so
    # only valid PTEs cost Python work.  ``lo``/``hi`` bound a scan to the
    # root slots that overlap ``[lo, hi)``; callers still filter leaves
    # by address, since a root slot spans a whole top-level region.

    def level_span(self, level: int) -> int:
        """Bytes covered by a leaf at ``level`` (0 = 4 KB page)."""
        return self._spans[self.levels - 1 - level]

    def _root_slots(self, lo: int, hi: int | None) -> range:
        if hi is None:
            hi = self._va_limit
        if hi <= lo:
            return range(0)
        shift = self._shifts[0]
        return range(max(lo, 0) >> shift, min(-(-hi >> shift), self.root_entries))

    def iter_leaves(self, memory, root_pa: int, lo: int = 0, hi: int | None = None):
        """Yield ``(va, pa, flags, level)`` for every installed leaf under the
        root slots overlapping ``[lo, hi)``, in ascending ``va`` order."""
        yield from self._iter(memory.read, root_pa, 0, 0, self._root_slots(lo, hi))

    def _iter(self, read, table: int, depth: int, va_prefix: int, slots: range):
        # A valid pointer PTE at the last level is skipped, as a hardware
        # walk and ``survey`` skip it: following it would let a table
        # that points back at itself recurse without bound.
        words = self._table_words[depth]
        shift = self._shifts[depth]
        level = self.levels - 1 - depth
        ptes = words.unpack(read(table, words.size))
        start, stop = slots.start, slots.stop
        for index in compress(self._indices[depth][start:stop], ptes[start:stop]):
            pte = ptes[index]
            if not pte & PTE_V:
                continue
            va = va_prefix | index << shift
            target = (pte & _PPN_MASK) >> _PPN_SHIFT << 12
            if pte & 0b1110:  # leaf (R|W|X)
                yield va, target, pte & 0xFF, level
            elif level:
                yield from self._iter(read, target, depth + 1, va, self._slots[depth + 1])

    def leaves_overlapping(self, memory, root_pa: int, regions,
                           lo: int = 0, hi: int | None = None) -> list:
        """The :meth:`iter_leaves` tuples, in its order, of every leaf whose
        whole span ``[pa, pa + span)`` overlaps one of ``regions``
        (``(base, size)`` pairs), under the root slots overlapping ``[lo, hi)``.

        Each table page is screened first: when no word sets a bit above
        the PPN, word order is PA order, so two bisects over the sorted
        words show whether any word can reach a region at all.  Only a
        table page the screen cannot clear tests its leaves against the
        region in one comprehension, so leaves that miss every region cost
        no Python call each; only overlapping leaves become tuples.
        """
        hits: set = set()
        self._overlapping(memory.read, root_pa, 0, 0, self._root_slots(lo, hi),
                          regions, hits)
        return sorted(hits)  # tuples start with va: sorted is walk order

    def _overlapping(self, read, table: int, depth: int, va_prefix: int,
                     slots: range, regions, hits: set) -> None:
        words = self._table_words[depth]
        ptes = words.unpack(read(table, words.size))
        in_range = ptes[slots.start : slots.stop]
        self._hits(ptes, in_range, depth, va_prefix, slots, regions, hits)
        if depth < self.levels - 1:
            shift = self._shifts[depth]
            for index in compress(self._indices[depth][slots.start : slots.stop], in_range):
                pte = ptes[index]
                if pte & PTE_V and not pte & 0b1110:  # valid pointer
                    self._overlapping(
                        read, (pte & _PPN_MASK) >> _PPN_SHIFT << 12, depth + 1,
                        va_prefix | index << shift, self._slots[depth + 1],
                        regions, hits,
                    )

    def _hits(self, ptes, in_range, depth: int, va_prefix: int, slots: range,
              regions, hits: set) -> None:
        """Add to ``hits`` the leaves among one table page's words
        ``in_range`` (``ptes`` over ``slots``) that overlap a region."""
        shift = self._shifts[depth]
        span = self._spans[depth]
        level = self.levels - 1 - depth
        # One C-speed sort per table page lets a region that no word can
        # reach skip the per-PTE comprehension; a word with a bit above
        # the PPN breaks the order ``_reaches`` relies on.
        ordered = sorted(in_range)
        screened = not ordered or ordered[-1] < _ABOVE_PPN
        for base, size in regions:
            after, end = base - span, base + size
            if screened and not _reaches(ordered, after, end):
                continue
            hits.update([
                (va_prefix | index << shift, pa, pte & 0xFF, level)
                for index in compress(slots, in_range)
                if (pte := ptes[index]) & PTE_V and pte & 0b1110  # valid leaf
                and after < (pa := (pte & _PPN_MASK) >> _PPN_SHIFT << 12) < end
            ])

    def survey(self, memory, root_pa: int, leaf_window=(0, 0), regions=(),
               region_window=(0, 0)) -> tuple:
        """Every table page and two leaf scans, in one walk.

        Returns ``(tables, leaves, overlapping)``: ``tables`` lists the
        root and then every page a valid pointer above the last level
        names, in walk order (the last level's pages are named but not
        read, unless a scan needs them); ``leaves`` is
        ``list(self.iter_leaves(memory, root_pa, *leaf_window))``; and
        ``overlapping`` is ``self.leaves_overlapping(memory, root_pa,
        regions, *region_window)``.  Each table page on the way is read
        once for all three, unpacked in place from its DRAM page when
        ``memory`` is a :class:`~repro.mem.physmem.PhysicalMemory` and the
        page lies inside it, and read through ``memory.read`` otherwise.
        """
        tables = [root_pa]
        leaves: list = []
        hits: set = set()
        self._survey(
            self._words_of(memory), root_pa, 0, 0,
            self._root_slots(*leaf_window), self._root_slots(*region_window),
            regions, tables, leaves, hits,
        )
        return tables, leaves, sorted(hits)

    def _survey(self, words_of, table: int, depth: int, va_prefix: int,
                leaf_slots: range, region_slots: range, regions,
                tables: list, leaves: list, hits: set) -> None:
        ptes = words_of(table, depth)
        if region_slots:
            self._hits(ptes, ptes[region_slots.start : region_slots.stop], depth,
                       va_prefix, region_slots, regions, hits)
        shift = self._shifts[depth]
        level = self.levels - 1 - depth
        if not level:
            # A last-level table lies under one root slot, so the leaf
            # scan takes all of it or none; its pointers are not followed.
            if leaf_slots:
                leaves.extend([
                    (va_prefix | index << shift, (pte & _PPN_MASK) >> _PPN_SHIFT << 12,
                     pte & 0xFF, 0)
                    for index in compress(self._indices[depth], ptes)
                    if (pte := ptes[index]) & PTE_V and pte & 0b1110  # valid leaf
                ])
            return
        below = self._slots[depth + 1]
        for index in compress(self._indices[depth], ptes):
            pte = ptes[index]
            if not pte & PTE_V:
                continue
            target = (pte & _PPN_MASK) >> _PPN_SHIFT << 12
            if pte & 0b1110:  # leaf (R|W|X)
                if index in leaf_slots:
                    leaves.append((va_prefix | index << shift, target, pte & 0xFF, level))
                continue
            tables.append(target)
            # A slot neither scan covers still names its tables, down to
            # the last level, whose pages only a scan reads.
            scanned_leaves = below if index in leaf_slots else _NO_SLOTS
            scanned_regions = below if index in region_slots else _NO_SLOTS
            if level > 1 or scanned_leaves or scanned_regions:
                self._survey(
                    words_of, target, depth + 1, va_prefix | index << shift,
                    scanned_leaves, scanned_regions, regions, tables, leaves, hits,
                )

    def _words_of(self, memory):
        """``words_of(table, depth)``: the PTE words of the table page at
        ``table``, unpacked in place when it is a page of ``memory``'s DRAM."""
        structs = self._table_words
        read = memory.read
        if not isinstance(memory, PhysicalMemory):
            return lambda table, depth: structs[depth].unpack(read(table, structs[depth].size))
        page_get = memory._pages.get
        lo, hi = memory.base, memory.end

        def words_of(table: int, depth: int):
            words = structs[depth]
            if words.size == PAGE_SIZE and not table & 0xFFF and lo <= table < hi:
                page = page_get(table >> 12)
                return _ZERO_WORDS if page is None else words.unpack_from(page)
            return words.unpack(read(table, words.size))

        return words_of


class Sv39(PageTable):
    """Stage-1 (or bare-supervisor) 39-bit scheme: 512-entry root."""

    vpn_bits = (9, 9, 9)


class Sv39x4(PageTable):
    """Stage-2 scheme: 41-bit guest-physical space, 16 KB / 2048-entry root."""

    vpn_bits = (11, 9, 9)
