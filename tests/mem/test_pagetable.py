"""Sv39 / Sv39x4 page tables over real simulated memory."""

import pytest

from repro.errors import MemoryError_
from repro.isa.traps import AccessType
from repro.mem.pagetable import (
    PTE_R,
    PTE_V,
    PTE_W,
    PTE_X,
    Sv39,
    Sv39x4,
    pte_is_leaf,
    pte_pack,
    pte_target,
)
from repro.mem.physmem import PAGE_SIZE, PhysicalMemory

BASE = 0x8000_0000


class RawAccessor:
    def __init__(self, dram):
        self.dram = dram

    def read_u64(self, addr):
        return self.dram.read_u64(addr)

    def write_u64(self, addr, value):
        self.dram.write_u64(addr, value)


@pytest.fixture
def dram():
    return PhysicalMemory(BASE, 64 << 20)


@pytest.fixture
def acc(dram):
    return RawAccessor(dram)


@pytest.fixture
def table_alloc(dram):
    cursor = [BASE + (1 << 20)]

    def alloc():
        pa = cursor[0]
        cursor[0] += PAGE_SIZE
        dram.zero_range(pa, PAGE_SIZE)
        return pa

    return alloc


class TestPteEncoding:
    def test_pack_unpack(self):
        pte = pte_pack(0x8123_4000, PTE_V | PTE_R)
        assert pte_target(pte) == 0x8123_4000
        assert pte & PTE_V
        assert pte_is_leaf(pte)

    def test_pointer_pte_is_not_leaf(self):
        assert not pte_is_leaf(pte_pack(0x8000_1000, PTE_V))

    def test_pack_requires_alignment(self):
        with pytest.raises(ValueError):
            pte_pack(0x8000_0100, PTE_V)


class TestSv39Geometry:
    def test_sv39_geometry(self):
        pt = Sv39()
        assert pt.levels == 3
        assert pt.root_entries == 512
        assert pt.root_size == 4096
        assert pt.va_bits == 39

    def test_sv39x4_geometry(self):
        pt = Sv39x4()
        assert pt.root_entries == 2048
        assert pt.root_size == 16 * 1024
        assert pt.va_bits == 41


class TestMapWalk:
    @pytest.fixture
    def root(self, table_alloc):
        return table_alloc()

    def test_map_then_walk(self, acc, root, table_alloc):
        pt = Sv39()
        pt.map(acc, root, 0x4000_0000, BASE + 0x200000, PTE_R | PTE_W, table_alloc)
        result = pt.walk(acc, root, 0x4000_0000)
        assert result is not None
        assert result.pa == BASE + 0x200000
        assert result.flags & PTE_R
        assert result.level == 0
        assert result.levels_touched == 3

    def test_offset_within_page_preserved(self, acc, root, table_alloc):
        pt = Sv39()
        pt.map(acc, root, 0x4000_0000, BASE + 0x200000, PTE_R, table_alloc)
        result = pt.walk(acc, root, 0x4000_0ABC)
        assert result.pa == BASE + 0x200ABC

    def test_unmapped_returns_none(self, acc, root):
        assert Sv39().walk(acc, root, 0x1234_5000) is None

    def test_double_map_rejected(self, acc, root, table_alloc):
        pt = Sv39()
        pt.map(acc, root, 0x1000, BASE + 0x300000, PTE_R, table_alloc)
        with pytest.raises(MemoryError_):
            pt.map(acc, root, 0x1000, BASE + 0x400000, PTE_R, table_alloc)

    def test_unmap(self, acc, root, table_alloc):
        pt = Sv39()
        pt.map(acc, root, 0x2000, BASE + 0x300000, PTE_R, table_alloc)
        old = pt.unmap(acc, root, 0x2000)
        assert old == BASE + 0x300000
        assert pt.walk(acc, root, 0x2000) is None

    def test_unmap_unmapped_rejected(self, acc, root):
        with pytest.raises(MemoryError_):
            Sv39().unmap(acc, root, 0x9000)

    def test_set_flags(self, acc, root, table_alloc):
        pt = Sv39()
        pt.map(acc, root, 0x3000, BASE + 0x300000, PTE_R | PTE_W, table_alloc)
        pt.set_flags(acc, root, 0x3000, PTE_R)
        result = pt.walk(acc, root, 0x3000)
        assert result.flags & PTE_R
        assert not result.flags & PTE_W
        assert result.pa == BASE + 0x300000

    def test_map_alignment_enforced(self, acc, root, table_alloc):
        with pytest.raises(ValueError):
            Sv39().map(acc, root, 0x1234, BASE, PTE_R, table_alloc)

    def test_va_range_enforced(self, acc, root, table_alloc):
        with pytest.raises(MemoryError_):
            Sv39().map(acc, root, 1 << 39, BASE, PTE_R, table_alloc)
        with pytest.raises(MemoryError_):
            Sv39().walk(acc, root, 1 << 40)

    def test_superpage_mapping(self, acc, root, table_alloc):
        pt = Sv39()
        pt.map(acc, root, 0x4020_0000, BASE + 0x400000, PTE_R | PTE_X, table_alloc, level=1)
        result = pt.walk(acc, root, 0x4020_1000)
        assert result.level == 1
        assert result.pa == BASE + 0x401000
        assert result.levels_touched == 2

    def test_superpage_alignment_enforced(self, acc, root, table_alloc):
        with pytest.raises(ValueError):
            Sv39().map(acc, root, 0x4000_1000, BASE, PTE_R, table_alloc, level=1)

    def test_cannot_map_under_superpage(self, acc, root, table_alloc):
        pt = Sv39()
        pt.map(acc, root, 0x4020_0000, BASE + 0x400000, PTE_R, table_alloc, level=1)
        with pytest.raises(MemoryError_):
            pt.map(acc, root, 0x4020_3000, BASE + 0x800000, PTE_R, table_alloc)

    def test_permits(self):
        pt = Sv39()
        assert pt.permits(PTE_R, AccessType.LOAD)
        assert not pt.permits(PTE_R, AccessType.STORE)
        assert pt.permits(PTE_W, AccessType.STORE)
        assert pt.permits(PTE_X, AccessType.FETCH)


class TestSv39x4:
    def test_wide_root_index(self, acc, dram, table_alloc):
        """GPAs above 2^38 index the extended root (2048 entries)."""
        pt = Sv39x4()
        root = BASE + 0x800000
        dram.zero_range(root, pt.root_size)
        gpa = (1 << 38) + 0x1000
        pt.map(acc, root, gpa, BASE + 0x500000, PTE_R | PTE_W, table_alloc)
        result = pt.walk(acc, root, gpa)
        assert result.pa == BASE + 0x500000
        # The root slot used must be beyond a plain Sv39 root's range.
        root_index = gpa >> 30
        assert root_index >= 256
        pte = dram.read_u64(root + 8 * root_index)
        assert pte & PTE_V

    def test_iter_leaves(self, acc, dram, table_alloc):
        pt = Sv39x4()
        root = BASE + 0x900000
        dram.zero_range(root, pt.root_size)
        mappings = {0x8000_0000: BASE, 0x8000_1000: BASE + PAGE_SIZE, (1 << 38): BASE + 0x10000}
        for gpa, pa in mappings.items():
            pt.map(acc, root, gpa, pa, PTE_R, table_alloc)
        leaves = {va: pa for va, pa, _flags, _level in pt.iter_leaves(dram, root)}
        assert leaves == mappings

    def test_iter_tables_includes_all_levels(self, acc, dram, table_alloc):
        pt = Sv39x4()
        root = BASE + 0xA00000
        dram.zero_range(root, pt.root_size)
        pt.map(acc, root, 0x8000_0000, BASE, PTE_R, table_alloc)
        tables = list(pt.iter_tables(dram, root))
        assert tables[0] == root
        assert len(tables) == 3  # root + two intermediate levels

    def test_scans_do_not_follow_a_last_level_pointer(self, acc, dram, table_alloc):
        """A root slot that points back at the root (a table in writable
        memory, corrupted or hostile): both scans stay bounded, and the
        pointer met at the last level is skipped, as a walk skips it."""
        pt = Sv39x4()
        root = BASE + 0xB00000
        dram.zero_range(root, pt.root_size)
        pt.map(acc, root, 0x8000_0000, BASE, PTE_R, table_alloc)
        dram.write_u64(root, (root >> 12) << 10 | PTE_V)
        assert list(pt.iter_leaves(dram, root)) == [(0x8000_0000, BASE, PTE_R | PTE_V, 0)]
        assert len(set(pt.iter_tables(dram, root))) == 3
