"""Two-stage translation: G-stage walks, VS-stage over G-stage, TLB, fences."""

import pytest

from repro.cycles import Category, CycleLedger, DEFAULT_COSTS
from repro.errors import MemoryError_, TrapRaised
from repro.isa.hart import Hart
from repro.isa.pmp import PmpAddressMode, PmpEntry
from repro.isa.privilege import PrivilegeMode
from repro.isa.traps import AccessType, ExceptionCause
from repro.mem.pagetable import PTE_R, PTE_W, PTE_X, Sv39, Sv39x4
from repro.mem.physmem import PAGE_SIZE, MemoryBus, PhysicalMemory
from repro.mem.translation import SV39X4_MASKS, SV39X4_SHIFTS, AddressTranslator

BASE = 0x8000_0000


class RawAccessor:
    def __init__(self, dram):
        self.dram = dram

    def read_u64(self, addr):
        return self.dram.read_u64(addr)

    def write_u64(self, addr, value):
        self.dram.write_u64(addr, value)


@pytest.fixture
def env():
    dram = PhysicalMemory(BASE, 64 << 20)
    bus = MemoryBus(dram)
    ledger = CycleLedger()
    translator = AddressTranslator(bus, DEFAULT_COSTS, ledger)
    hart = Hart(0, ledger)
    hart.mode = PrivilegeMode.VS
    # Allow-all PMP background.
    hart.pmp.set_entry(
        15,
        PmpEntry(
            mode=PmpAddressMode.TOR, base=BASE, size=64 << 20,
            readable=True, writable=True, executable=True,
        ),
    )
    acc = RawAccessor(dram)
    cursor = [BASE + (4 << 20)]

    def table_alloc():
        pa = cursor[0]
        cursor[0] += PAGE_SIZE
        return pa

    root = BASE + (2 << 20)
    dram.zero_range(root, 16 * 1024)
    return dram, bus, ledger, translator, hart, acc, table_alloc, root


def test_probe_geometry_is_sv39x4s():
    sv = Sv39x4()
    assert SV39X4_SHIFTS == sv._shifts
    assert SV39X4_MASKS == sv._masks


def test_bare_vs_stage_identity(env):
    dram, bus, ledger, tr, hart, acc, table_alloc, root = env
    Sv39x4().map(acc, root, 0x8000_0000, BASE + 0x100000, PTE_R | PTE_W, table_alloc)
    result = tr.translate(hart, 1, 0x8000_0123, AccessType.LOAD, root)
    assert result.pa == BASE + 0x100123
    assert result.gpa == 0x8000_0123
    assert not result.tlb_hit


def test_g_stage_miss_raises_guest_page_fault_with_gpa(env):
    _, _, _, tr, hart, _, _, root = env
    with pytest.raises(TrapRaised) as excinfo:
        tr.translate(hart, 1, 0x9999_0000, AccessType.STORE, root)
    assert excinfo.value.cause == ExceptionCause.STORE_GUEST_PAGE_FAULT
    assert excinfo.value.gpa == 0x9999_0000


def test_g_stage_permission_fault(env):
    _, _, _, tr, hart, acc, table_alloc, root = env
    Sv39x4().map(acc, root, 0x8000_0000, BASE + 0x100000, PTE_R, table_alloc)
    tr.translate(hart, 1, 0x8000_0000, AccessType.LOAD, root)
    with pytest.raises(TrapRaised) as excinfo:
        tr.translate(hart, 1, 0x8000_0000, AccessType.STORE, root)
    assert excinfo.value.cause == ExceptionCause.STORE_GUEST_PAGE_FAULT


def test_tlb_caches_translation(env):
    _, _, ledger, tr, hart, acc, table_alloc, root = env
    Sv39x4().map(acc, root, 0x8000_0000, BASE + 0x100000, PTE_R | PTE_W, table_alloc)
    first = tr.translate(hart, 1, 0x8000_0000, AccessType.LOAD, root)
    walk_cycles = ledger.by_category()[Category.PAGE_WALK]
    second = tr.translate(hart, 1, 0x8000_0008, AccessType.LOAD, root)
    assert second.tlb_hit
    assert second.pa == BASE + 0x100008
    assert ledger.by_category()[Category.PAGE_WALK] == walk_cycles  # no new walk


def test_hfence_gvma_flushes(env):
    _, _, _, tr, hart, acc, table_alloc, root = env
    Sv39x4().map(acc, root, 0x8000_0000, BASE + 0x100000, PTE_R, table_alloc)
    tr.translate(hart, 1, 0x8000_0000, AccessType.LOAD, root)
    tr.hfence_gvma()
    result = tr.translate(hart, 1, 0x8000_0000, AccessType.LOAD, root)
    assert not result.tlb_hit


def test_hfence_gvma_vmid_scoped(env):
    _, _, _, tr, hart, acc, table_alloc, root = env
    Sv39x4().map(acc, root, 0x8000_0000, BASE + 0x100000, PTE_R, table_alloc)
    tr.translate(hart, 1, 0x8000_0000, AccessType.LOAD, root)
    tr.translate(hart, 2, 0x8000_0000, AccessType.LOAD, root)
    tr.hfence_gvma(vmid=1)
    assert not tr.translate(hart, 1, 0x8000_0000, AccessType.LOAD, root).tlb_hit
    assert tr.translate(hart, 2, 0x8000_0000, AccessType.LOAD, root).tlb_hit


def test_permission_insufficient_tlb_entry_rewalks(env):
    """A TLB entry without W must not satisfy a store; hardware re-walks."""
    _, _, _, tr, hart, acc, table_alloc, root = env
    pt = Sv39x4()
    pt.map(acc, root, 0x8000_0000, BASE + 0x100000, PTE_R, table_alloc)
    tr.translate(hart, 1, 0x8000_0000, AccessType.LOAD, root)
    # Upgrade the PTE to writable; the stale TLB entry only has R.
    pt.unmap(acc, root, 0x8000_0000)
    pt.map(acc, root, 0x8000_0000, BASE + 0x100000, PTE_R | PTE_W, table_alloc)
    result = tr.translate(hart, 1, 0x8000_0000, AccessType.STORE, root)
    assert result.pa == BASE + 0x100000
    assert not result.tlb_hit


def test_final_access_pmp_checked(env):
    dram, _, _, tr, hart, acc, table_alloc, root = env
    # Map a GPA onto a PMP-protected frame.
    protected = BASE + 0x300000
    hart.pmp.set_entry(0, PmpEntry(mode=PmpAddressMode.TOR, base=protected, size=PAGE_SIZE))
    Sv39x4().map(acc, root, 0x8000_0000, protected, PTE_R | PTE_W, table_alloc)
    with pytest.raises(TrapRaised) as excinfo:
        tr.translate(hart, 1, 0x8000_0000, AccessType.LOAD, root)
    assert excinfo.value.cause == ExceptionCause.LOAD_ACCESS_FAULT


def test_vs_stage_translation_over_g_stage(env):
    """Guest paging: GVA -> (VS table) -> GPA -> (G table) -> PA."""
    dram, _, _, tr, hart, acc, table_alloc, root = env
    pt_g = Sv39x4()
    # Guest DRAM: GPA 0x8000_0000..+2MB -> host BASE+0x100000.
    for i in range(16):
        pt_g.map(
            acc, root, 0x8000_0000 + i * PAGE_SIZE,
            BASE + 0x100000 + i * PAGE_SIZE, PTE_R | PTE_W | PTE_X, table_alloc,
        )
    # The guest builds its own Sv39 table *inside guest memory* at GPA
    # 0x8000_0000 (host BASE+0x100000).
    guest_table_cursor = [0x8000_0000]

    def guest_table_alloc():
        gpa = guest_table_cursor[0]
        guest_table_cursor[0] += PAGE_SIZE
        return BASE + 0x100000 + (gpa - 0x8000_0000)  # host PA of that GPA

    # Build VS-stage mapping GVA 0x40_0000 -> GPA 0x8000_8000 by hand:
    # root (GPA 0x8000_0000) must contain GPA-based pointers, so we write
    # PTEs whose targets are GPAs.
    vs_root_gpa = guest_table_cursor[0]
    guest_table_alloc()
    level1_gpa = guest_table_cursor[0]
    guest_table_alloc()
    level0_gpa = guest_table_cursor[0]
    guest_table_alloc()

    def host_of(gpa):
        return BASE + 0x100000 + (gpa - 0x8000_0000)

    gva = 0x0040_0000
    idx2 = (gva >> 30) & 0x1FF
    idx1 = (gva >> 21) & 0x1FF
    idx0 = (gva >> 12) & 0x1FF
    dram.write_u64(host_of(vs_root_gpa) + 8 * idx2, (level1_gpa >> 12) << 10 | 1)
    dram.write_u64(host_of(level1_gpa) + 8 * idx1, (level0_gpa >> 12) << 10 | 1)
    target_gpa = 0x8000_8000
    dram.write_u64(host_of(level0_gpa) + 8 * idx0, (target_gpa >> 12) << 10 | PTE_R | PTE_W | 1)

    result = tr.translate(hart, 1, gva, AccessType.LOAD, root, vsatp_root=vs_root_gpa)
    assert result.gpa == target_gpa
    assert result.pa == host_of(target_gpa)


def test_vs_stage_miss_is_ordinary_page_fault(env):
    dram, _, _, tr, hart, acc, table_alloc, root = env
    pt_g = Sv39x4()
    pt_g.map(acc, root, 0x8000_0000, BASE + 0x100000, PTE_R | PTE_W, table_alloc)
    # Empty VS root at GPA 0x8000_0000 (zeroed host page).
    with pytest.raises(TrapRaised) as excinfo:
        tr.translate(hart, 1, 0x7000, AccessType.LOAD, root, vsatp_root=0x8000_0000)
    assert excinfo.value.cause == ExceptionCause.LOAD_PAGE_FAULT


def test_gpa_to_pa_direct(env):
    _, _, _, tr, hart, acc, table_alloc, root = env
    Sv39x4().map(acc, root, 0x8000_0000, BASE + 0x100000, PTE_R, table_alloc)
    pa, flags = tr.gpa_to_pa(root, 0x8000_0040, AccessType.LOAD)
    assert pa == BASE + 0x100040
    assert flags & PTE_R


class PerReadWalker:
    """A walker that charges one ``page_walk_level`` before each PTE read:
    the cost model ``gpa_to_pa`` charges in bulk from ``probe_gpa``."""

    def __init__(self, dram, ledger):
        self.dram = dram
        self.ledger = ledger

    def read_u64(self, addr):
        self.ledger.charge(Category.PAGE_WALK, DEFAULT_COSTS.page_walk_level)
        return self.dram.read_u64(addr)


def _outcome(call):
    try:
        return call()
    except TrapRaised as trap:
        return ("trap", trap.cause, trap.gpa)
    except MemoryError_ as error:
        return ("memory", str(error))


def test_gpa_to_pa_charges_the_per_read_walk(env):
    """Every outcome -- a leaf, an invalid root or leaf PTE, a permission
    miss, a table pointer out of DRAM -- charges what a walk charging each
    PTE read would, the read that left DRAM included."""
    dram, _, ledger, tr, _, acc, table_alloc, root = env
    pt = Sv39x4()
    pt.map(acc, root, 0x8000_0000, BASE + 0x100000, PTE_R, table_alloc)
    pt.map(acc, root, 0x4000_0000, BASE + 0x200000, PTE_R | PTE_W, table_alloc, level=1)
    # A level-1 pointer to a table outside DRAM, under GPA 0xC000_0000.
    dram.write_u64(root + 8 * (0xC000_0000 >> 30), (0x1000 >> 12) << 10 | 1)
    cases = [
        (0x8000_0040, AccessType.LOAD),   # 4 KB leaf: three reads
        (0x8000_0040, AccessType.STORE),  # present but not writable
        (0x8000_1000, AccessType.LOAD),   # invalid full-depth leaf
        (0x4000_0008, AccessType.STORE),  # 2 MB superpage: two reads
        (0x2_0000_0000, AccessType.LOAD),  # invalid root slot: one read
        (0xC000_0000, AccessType.LOAD),   # second read lands outside DRAM
        (1 << 41, AccessType.LOAD),       # outside the 41-bit space
    ]
    for gpa, access in cases:
        before = ledger.total
        got = _outcome(lambda: tr.gpa_to_pa(root, gpa, access))
        charged = ledger.total - before
        reference_ledger = CycleLedger()
        walker = PerReadWalker(dram, reference_ledger)

        def reference():
            result = pt.walk(walker, root, gpa)
            if result is None or not result.flags & access.required_pte_bit:
                raise TrapRaised(
                    ExceptionCause.LOAD_GUEST_PAGE_FAULT if access is AccessType.LOAD
                    else ExceptionCause.STORE_GUEST_PAGE_FAULT,
                    tval=gpa, gpa=gpa,
                )
            return result.pa, result.flags

        assert got == _outcome(reference), hex(gpa)
        assert charged == reference_ledger.total, hex(gpa)
    assert _outcome(lambda: tr.gpa_to_pa(root, 0xC000_0000, AccessType.LOAD))[0] == "memory"


def test_vs_stage_charges_each_pte_read_once(env):
    """A VS-stage walk charges its own three PTE reads plus one G-stage
    walk per table pointer and one for the final GPA."""
    dram, _, ledger, tr, hart, acc, table_alloc, root = env
    pt_g = Sv39x4()
    for i in range(4):
        pt_g.map(acc, root, 0x8000_0000 + i * PAGE_SIZE,
                 BASE + 0x100000 + i * PAGE_SIZE, PTE_R | PTE_W, table_alloc)
    host = lambda gpa: BASE + 0x100000 + (gpa - 0x8000_0000)
    gva = 0x0040_0000
    dram.write_u64(host(0x8000_0000) + 8 * (gva >> 30 & 0x1FF), (0x8000_1000 >> 12) << 10 | 1)
    dram.write_u64(host(0x8000_1000) + 8 * (gva >> 21 & 0x1FF), (0x8000_2000 >> 12) << 10 | 1)
    dram.write_u64(host(0x8000_2000) + 8 * (gva >> 12 & 0x1FF),
                   (0x8000_3000 >> 12) << 10 | PTE_R | 1)
    before = ledger.by_category().get(Category.PAGE_WALK, 0)
    result = tr.translate(hart, 1, gva, AccessType.LOAD, root, vsatp_root=0x8000_0000)
    assert result.pa == host(0x8000_3000)
    walked = ledger.by_category()[Category.PAGE_WALK] - before
    assert walked == (3 + 3 * 3 + 3) * DEFAULT_COSTS.page_walk_level
