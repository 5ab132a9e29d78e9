"""Split-page-table shared memory (paper IV-E)."""

import pytest

from repro.errors import SecurityViolation
from repro.mem.pagetable import Sv39x4
from repro.mem.physmem import PAGE_SIZE


class _Raw:
    def __init__(self, dram):
        self.dram = dram

    def read_u64(self, addr):
        return self.dram.read_u64(addr)

    def write_u64(self, addr, value):
        self.dram.write_u64(addr, value)


@pytest.fixture
def env(machine):
    session = machine.launch_confidential_vm(image=b"x" * 4096)
    return machine, session, machine.monitor.split, session.cvm


def test_shared_root_index_boundary(env):
    machine, session, split, cvm = env
    base_index = split.shared_root_index_base(cvm)
    assert base_index == (1 << 38) >> 30 == 256


def test_root_contains_both_subtree_kinds(env):
    """The CVM root points at private (secure) and shared (normal) tables."""
    machine, session, split, cvm = env
    raw = _Raw(machine.dram)
    pool = machine.monitor.pool
    sv = Sv39x4()
    private_tables, shared_tables = [], []
    for index in range(sv.root_entries):
        pte = machine.dram.read_u64(cvm.hgatp_root + 8 * index)
        if not pte & 1:
            continue
        target = (pte >> 10) << 12
        if index < split.shared_root_index_base(cvm):
            private_tables.append(target)
        else:
            shared_tables.append(target)
    assert private_tables, "image load must have created private mappings"
    assert shared_tables, "launch must have linked the shared subtree"
    for table in private_tables:
        assert pool.contains(table, PAGE_SIZE)
    for table in shared_tables:
        assert not pool.contains(table, PAGE_SIZE)


def test_link_rejects_private_half_index(env):
    machine, session, split, cvm = env
    table = machine.host_allocator.alloc()
    machine.dram.zero_range(table, PAGE_SIZE)
    with pytest.raises(SecurityViolation):
        split.link_shared_subtree(cvm, 0, table)


def test_link_rejects_secure_pool_table(env):
    machine, session, split, cvm = env
    pool_page = machine.monitor.pool.regions[0][0]
    with pytest.raises(SecurityViolation):
        split.link_shared_subtree(cvm, 300, pool_page)


def test_link_rejects_unaligned_table(env):
    machine, session, split, cvm = env
    with pytest.raises(SecurityViolation):
        split.link_shared_subtree(cvm, 300, machine.host_allocator.alloc() + 8)


def test_link_rejects_subtree_premapping_secure_memory(env):
    """A donated table already aliasing the pool must be refused."""
    machine, session, split, cvm = env
    table = machine.host_allocator.alloc()
    machine.dram.zero_range(table, PAGE_SIZE)
    pool_page = machine.monitor.pool.regions[0][0]
    # Hypervisor forges a leaf-bearing subtree: entry 0 -> leaf table whose
    # slot 0 maps the pool.
    leaf_table = machine.host_allocator.alloc()
    machine.dram.zero_range(leaf_table, PAGE_SIZE)
    machine.dram.write_u64(leaf_table + 0, (pool_page >> 12) << 10 | 0b111 | 1)
    machine.dram.write_u64(table + 0, (leaf_table >> 12) << 10 | 1)
    with pytest.raises(SecurityViolation):
        split.link_shared_subtree(cvm, 300, table)


def test_map_private_rejects_foreign_frame(env):
    """Stage-2 disjointness: a frame owned by another CVM is refused."""
    machine, session, split, cvm = env
    other_id = machine.monitor.ecall_create_cvm()
    other = machine.monitor.cvms[other_id]
    allocator = machine.monitor._allocators[other_id]
    pa, _ = allocator.alloc_page(other_id, 0)
    with pytest.raises(SecurityViolation):
        split.map_private(cvm, cvm.layout.dram_base + 0x10000, pa, lambda: 0)


def test_map_private_rejects_gpa_outside_private_region(env):
    machine, session, split, cvm = env
    allocator = machine.monitor._allocators[cvm.cvm_id]
    pa, _ = allocator.alloc_page(cvm.cvm_id, 0)
    with pytest.raises(SecurityViolation):
        split.map_private(cvm, cvm.layout.shared_base, pa, lambda: 0)


def test_unmap_private_returns_frame(env):
    machine, session, split, cvm = env
    gpa = cvm.layout.dram_base  # image page mapped at launch
    pa = split.unmap_private(cvm, gpa)
    assert machine.monitor.pool.contains(pa, PAGE_SIZE)


def test_shared_leaf_safety_predicate(env):
    machine, session, split, cvm = env
    pool_base = machine.monitor.pool.regions[0][0]
    assert not split.shared_leaf_is_safe(pool_base)
    assert split.shared_leaf_is_safe(machine.config.dram_base + (512 << 20))


def test_relink_shared_subtree_flushes_stale_translations(env):
    """Swapping a live shared subtree must fence the old table's entries."""
    machine, session, split, cvm = env
    monitor = machine.monitor
    tlb = monitor.translator.tlb
    root_index, old_table = next(iter(cvm.shared_subtrees.items()))
    # A translation the hart walked through the soon-to-be-replaced
    # subtree, still sitting in the TLB when the host swaps tables.
    vpage = cvm.layout.shared_base >> 12
    tlb.insert(cvm.vmid, vpage, 0x1234, 0)
    assert tlb.lookup(cvm.vmid, vpage) is not None

    new_table = machine.host_allocator.alloc()
    machine.dram.zero_range(new_table, PAGE_SIZE)
    monitor.ecall_link_shared_subtree(cvm.cvm_id, root_index, new_table)

    assert cvm.shared_subtrees[root_index] == new_table
    assert new_table != old_table
    assert tlb.lookup(cvm.vmid, vpage) is None


def test_first_link_of_empty_slot_does_not_flush(env):
    """A first link installs into an empty slot: nothing stale to fence."""
    machine, session, split, cvm = env
    monitor = machine.monitor
    tlb = monitor.translator.tlb
    fresh_index = max(cvm.shared_subtrees) + 1
    vpage = cvm.layout.shared_base >> 12
    tlb.insert(cvm.vmid, vpage, 0x1234, 0)

    table = machine.host_allocator.alloc()
    machine.dram.zero_range(table, PAGE_SIZE)
    monitor.ecall_link_shared_subtree(cvm.cvm_id, fresh_index, table)

    assert cvm.shared_subtrees[fresh_index] == table
    assert tlb.lookup(cvm.vmid, vpage) is not None


def test_link_rejects_superpage_reaching_into_the_pool():
    """A donated 2 MB leaf based below the pool but ending inside it is
    refused: a leaf is checked across its whole span, not its first page."""
    from repro import Machine, MachineConfig

    # A 1 MB firmware region puts the pool at a 1 MB (not 2 MB) boundary.
    machine = Machine(MachineConfig(firmware_size=1 << 20))
    pool_base = machine.monitor.pool.regions[0][0]
    leaf_pa = pool_base & ~((2 << 20) - 1)
    assert leaf_pa < pool_base < leaf_pa + (2 << 20)
    session = machine.launch_confidential_vm(image=b"x" * 4096)
    table = machine.host_allocator.alloc()
    machine.dram.zero_range(table, PAGE_SIZE)
    machine.dram.write_u64(table + 8 * 3, (leaf_pa >> 12) << 10 | 0b111)
    with pytest.raises(SecurityViolation, match="maps secure memory"):
        machine.monitor.split.link_shared_subtree(session.cvm, 300, table)
