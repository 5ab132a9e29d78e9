"""Two-stage address translation (VS-stage Sv39 over G-stage Sv39x4).

Implements the hypervisor-extension translation pipeline: a guest virtual
address is first translated by the guest-controlled VS-stage table (unless
``vsatp`` is Bare), and every resulting guest-physical address -- including
the VS-stage table pointers themselves -- is translated by the G-stage
table.  Misses raise the architecturally-correct fault: VS-stage misses are
ordinary page faults (handleable by the guest kernel), G-stage misses are
guest-page faults (the hypervisor's or SM's job), carrying the faulting GPA
for ``htval``.
"""

from __future__ import annotations

import struct

from repro.cycles import Category, CycleCosts, CycleLedger
from repro.errors import MemoryError_, TrapRaised
from repro.isa.traps import AccessType, guest_page_fault_for, page_fault_for
from repro.mem.pagetable import _PPN_MASK, _PPN_SHIFT, Sv39, Sv39x4
from repro.mem.physmem import PAGE_SIZE
from repro.mem.tlb import Tlb

_unpack_u64 = struct.Struct("<Q").unpack_from


class TranslationResult:
    """A completed translation.

    A ``__slots__`` value object rather than a dataclass: one is built
    per guest access, making construction cost part of the simulator's
    innermost loop.
    """

    __slots__ = ("pa", "gpa", "flags", "tlb_hit")

    def __init__(self, pa: int, gpa: int, flags: int, tlb_hit: bool):
        self.pa = pa
        self.gpa = gpa
        self.flags = flags
        self.tlb_hit = tlb_hit

    def __repr__(self):
        return (
            f"TranslationResult(pa={self.pa:#x}, gpa={self.gpa:#x}, "
            f"flags={self.flags:#x}, tlb_hit={self.tlb_hit})"
        )

    def __eq__(self, other):
        if not isinstance(other, TranslationResult):
            return NotImplemented
        return (
            self.pa == other.pa
            and self.gpa == other.gpa
            and self.flags == other.flags
            and self.tlb_hit == other.tlb_hit
        )


class AddressTranslator:
    """The per-machine translation unit (walker + TLB)."""

    def __init__(self, bus, costs: CycleCosts, ledger: CycleLedger, tlb: Tlb | None = None):
        self.bus = bus
        self.costs = costs
        self.ledger = ledger
        self.tlb = tlb if tlb is not None else Tlb()
        self.sv39 = Sv39()
        self.sv39x4 = Sv39x4()
        self._walk_cost = int(costs.page_walk_level)
        self._charge_walk = ledger.charger(Category.PAGE_WALK, costs.page_walk_level)
        sv = self.sv39x4
        #: :meth:`probe_gpa`'s per-level geometry and DRAM page lookup.
        self._probe_geometry = (sv._shifts, sv._masks, sv._spans, bus.dram._pages.get)
        self._charge_tlb_hit = ledger.charger(Category.TLB, costs.tlb_hit)
        self._charge_flush_page = ledger.charger(Category.TLB, costs.tlb_flush_page)

    def gpa_to_pa(self, hgatp_root: int, gpa: int, access: AccessType) -> tuple:
        """G-stage only: translate a GPA, returning ``(pa, flags)``.

        The walk is :meth:`probe_gpa`'s, charged ``page_walk_level`` per
        PTE read it performed -- a read that lands outside DRAM and
        raises :class:`~repro.errors.MemoryError_` included.  Raises the
        guest-page fault for ``access`` when unmapped or when the leaf
        lacks the needed permission.
        """
        self.sv39x4._check_va(gpa)
        try:
            pa, flags, levels, _slot = self.probe_gpa(hgatp_root, gpa)
        except MemoryError_ as error:
            self.ledger.charge(Category.PAGE_WALK, error.walk_levels * self._walk_cost)
            raise
        self.ledger.charge(Category.PAGE_WALK, levels * self._walk_cost)
        if pa is None or not flags & access.required_pte_bit:
            raise TrapRaised(
                guest_page_fault_for(access),
                tval=gpa,
                gpa=gpa,
                message=f"G-stage miss for {access.value} at GPA {gpa:#x}",
            )
        return pa, flags

    def probe_gpa(self, hgatp_root: int, gpa: int) -> tuple:
        """Uncharged, non-mutating G-stage walk for the guest-access engines.

        Returns ``(pa, flags, levels, leaf_slot)``:

        - valid leaf: the translation plus ``levels``, the number of PTE
          reads a charged walk performs;
        - invalid: ``pa`` is ``None``, ``levels`` is the reads a charged
          walk would perform before faulting, and ``leaf_slot`` is the
          physical slot of the invalid *full-depth* leaf PTE, or 0 when an
          intermediate table is missing.  The SM's fault handler writes
          the new leaf into that slot, and walks only when it is 0.

        The caller charges ``levels * page_walk_level`` itself once it
        commits to an outcome; probing performs no charge and no TLB or
        statistics mutation, so the caller can still fall back to the
        generic per-access path with nothing to undo.

        Sv39x4 always walks three levels, so the walk is unrolled and each
        PTE word is read in place from its DRAM page.
        """
        (s0, s1, s2), (m0, m1, m2), (span0, span1, span2), get = self._probe_geometry
        slot = hgatp_root + 8 * (gpa >> s0 & m0)
        page = get(slot >> 12)
        depth = 0
        if page is not None:
            pte = _unpack_u64(page, slot & 0xFFF)[0]
            if not pte & 1:  # PTE_V
                return None, 0, 1, 0
            base = (pte & _PPN_MASK) >> _PPN_SHIFT << 12
            if pte & 0b1110:  # leaf (R|W|X)
                return base + (gpa & span0 - 1), pte & 0xFF, 1, 0
            slot = base + 8 * (gpa >> s1 & m1)
            page = get(slot >> 12)
            depth = 1
            if page is not None:
                pte = _unpack_u64(page, slot & 0xFFF)[0]
                if not pte & 1:
                    return None, 0, 2, 0
                base = (pte & _PPN_MASK) >> _PPN_SHIFT << 12
                if pte & 0b1110:
                    return base + (gpa & span1 - 1), pte & 0xFF, 2, 0
                slot = base + 8 * (gpa >> s2 & m2)
                page = get(slot >> 12)
                depth = 2
                if page is not None:
                    pte = _unpack_u64(page, slot & 0xFFF)[0]
                    if not pte & 1:
                        return None, 0, 3, slot
                    if pte & 0b1110:
                        base = (pte & _PPN_MASK) >> _PPN_SHIFT << 12
                        return base + (gpa & span2 - 1), pte & 0xFF, 3, 0
                    return None, 0, 3, 0
        # The slot's DRAM page was never written, so its PTE reads as
        # zero (invalid) -- or the slot lies outside DRAM, and the read
        # raises MemoryError_, carrying the reads a charged walk made.
        try:
            self.bus.dram.read_u64(slot)  # zionlint: disable=ZL3 probe only: no committed outcome yet; each caller charges levels*page_walk_level in bulk once it commits (gpa_to_pa and the engine do; the fault handlers' refusal probes are uncharged, the trap already charged the walk)
        except MemoryError_ as error:
            error.walk_levels = depth + 1
            raise
        return None, 0, depth + 1, slot if depth == 2 else 0

    def translate(
        self,
        hart,
        vmid: int,
        gva: int,
        access: AccessType,
        hgatp_root: int,
        vsatp_root: int | None = None,
    ) -> TranslationResult:
        """Full two-stage translation of a guest access.

        ``vsatp_root`` of ``None`` means VS-stage Bare (GVA == GPA), the
        configuration our synthetic guests boot with.
        """
        vpage = gva >> 12
        cached = self.tlb.lookup(vmid, vpage)
        if cached is not None:
            ppage, flags = cached
            if flags & access.required_pte_bit:
                # TLB-hit fast path: no walker, no permits() dispatch.
                self._charge_tlb_hit()
                pa = ppage << 12 | gva & (PAGE_SIZE - 1)
                return TranslationResult(pa, gva, flags, True)
            # Permission-insufficient TLB entry: hardware re-walks.
            self.tlb.flush_page(vmid, vpage)

        if vsatp_root is None:
            gpa = gva
            leaf_flags = None
        else:
            gpa, leaf_flags = self._vs_stage(gva, access, hgatp_root, vsatp_root)

        pa, g_flags = self.gpa_to_pa(hgatp_root, gpa, access)
        flags = g_flags if leaf_flags is None else g_flags & leaf_flags

        # The access itself is PMP-checked at the hart's effective privilege.
        self.bus._cpu_check(hart, pa, 1, access)

        self.tlb.insert(vmid, vpage, pa >> 12, flags)
        return TranslationResult(pa, gpa, flags, False)

    def _vs_stage(self, gva: int, access: AccessType, hgatp_root: int, vsatp_root: int) -> tuple:
        """VS-stage walk; each table pointer is itself G-stage translated.

        Each VS-stage PTE read is a hardware-walker load of raw DRAM,
        charged one ``page_walk_level`` before it is made.
        """
        read_u64 = self.bus.dram.read_u64
        table_gpa = vsatp_root
        for depth in range(self.sv39.levels):
            table_pa, _ = self.gpa_to_pa(hgatp_root, table_gpa, AccessType.LOAD)
            slot = table_pa + 8 * self.sv39._index(gva, depth)
            self._charge_walk()
            pte = read_u64(slot)
            if not pte & 1:  # PTE_V
                raise TrapRaised(
                    page_fault_for(access),
                    tval=gva,
                    message=f"VS-stage miss at GVA {gva:#x}",
                )
            if pte & 0b1110:  # leaf (R|W|X)
                if not self.sv39.permits(pte & 0xFF, access):
                    raise TrapRaised(
                        page_fault_for(access),
                        tval=gva,
                        message=f"VS-stage permission fault at GVA {gva:#x}",
                    )
                span = self.sv39._leaf_span(depth)
                base = (pte >> 10) << 12
                return base + (gva & (span - 1)), pte & 0xFF
            table_gpa = (pte >> 10) << 12
        raise TrapRaised(page_fault_for(access), tval=gva, message="VS-stage bottomed out")

    # -- fence instructions ------------------------------------------------------

    def hfence_gvma(self, vmid: int | None = None) -> None:
        """Flush G-stage translations (all VMIDs when ``vmid`` is None)."""
        self.ledger.charge(Category.TLB, self.costs.tlb_flush_gvma)
        if vmid is None:
            self.tlb.flush_all()
        else:
            self.tlb.flush_vmid(vmid)

    def sfence_page(self, vmid: int, gva: int) -> None:
        """Flush one page's translation."""
        self._charge_flush_page()
        self.tlb.flush_page(vmid, gva >> 12)
