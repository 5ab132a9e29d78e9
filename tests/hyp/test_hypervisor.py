"""The KVM-like hypervisor: normal VMs, CVM hosting, pool expansion."""

import dataclasses

import pytest

from repro import Machine, MachineConfig
from repro.cycles import DEFAULT_COSTS, Category
from repro.errors import EcallError, MemoryError_, TrapRaised
from repro.isa.pmp import PmpAddressMode, PmpEntry
from repro.isa.traps import ExceptionCause
from repro.mem.pagetable import PTE_D, PTE_R, PTE_U, PTE_W, Sv39x4
from repro.mem.physmem import PAGE_SIZE
from repro.sm.cvm import GpaLayout


class Raw:
    def __init__(self, dram):
        self.dram = dram

    def read_u64(self, a):
        return self.dram.read_u64(a)

    def write_u64(self, a, v):
        self.dram.write_u64(a, v)


class TestNormalVmPath:
    def test_create_allocates_root_in_normal_memory(self, machine):
        vm = machine.hypervisor.create_normal_vm("vm0", machine.hart)
        assert vm.hgatp_root is not None
        assert not machine.monitor.pool.contains(vm.hgatp_root, 16 * 1024)

    def test_stage2_fault_maps_frame(self, machine):
        vm = machine.hypervisor.create_normal_vm("vm0", machine.hart)
        gpa = vm.layout.dram_base + 0x5000
        pa = machine.hypervisor.handle_normal_stage2_fault(machine.hart, vm, gpa)
        result = Sv39x4().walk(Raw(machine.dram), vm.hgatp_root, gpa)
        assert result.pa == pa
        assert vm.fault_count == 1

    def test_fault_cost_dominated_by_gup(self, machine):
        vm = machine.hypervisor.create_normal_vm("vm0", machine.hart)
        with machine.ledger.span() as span:
            machine.hypervisor.handle_normal_stage2_fault(
                machine.hart, vm, vm.layout.dram_base
            )
        assert span.cycles > machine.costs.kvm_fault_fixed

    def test_fault_given_a_walk_writes_its_leaf_slot_without_rewalking(self, monkeypatch):
        """With the engine's walk, the handler calls ``probe_gpa`` zero
        times and reads no table through ``_HypAccessor`` unless an
        intermediate table is missing; tables, charges and the returned
        frame match the handler that walks for itself."""
        from repro.hyp import hypervisor as hyp_module

        probes, table_reads = [0], [0]
        original_read = hyp_module._HypAccessor.read_u64

        def counted_read(accessor, addr):
            table_reads[0] += 1
            return original_read(accessor, addr)

        monkeypatch.setattr(hyp_module._HypAccessor, "read_u64", counted_read)

        def fault_twice(pass_walk):
            machine = Machine(MachineConfig())
            vm = machine.hypervisor.create_normal_vm("vm0", machine.hart)
            translator = machine.translator
            original_probe = translator.probe_gpa
            base = vm.layout.dram_base
            seen = []
            for gpa in (base + 0x5000, base + 0x6008):
                walk = original_probe(vm.hgatp_root, gpa) if pass_walk else None
                probes[0] = table_reads[0] = 0

                def counted_probe(*args):
                    probes[0] += 1
                    return original_probe(*args)

                translator.probe_gpa = counted_probe
                pa = machine.hypervisor.handle_normal_stage2_fault(
                    machine.hart, vm, gpa, walk
                )
                del translator.probe_gpa
                seen.append((walk and walk[3], probes[0], table_reads[0], pa))
            tables = machine.dram.read(vm.hgatp_root, 16 * 1024)
            return seen, tables, machine.ledger.by_category()

        walked, walked_tables, walked_cycles = fault_twice(pass_walk=True)
        (first_slot, first_probes, first_reads, _), (slot, probes_, reads, _) = walked
        # First fault: the intermediate tables are missing, so map walks.
        assert first_slot == 0 and first_probes == 0 and first_reads > 0
        # Second fault: same leaf table, so the leaf slot is written directly.
        assert slot != 0 and probes_ == 0 and reads == 0
        unwalked, unwalked_tables, unwalked_cycles = fault_twice(pass_walk=False)
        assert [pa for *_, pa in walked] == [pa for *_, pa in unwalked]
        assert all(probed == 1 for _, probed, _, _ in unwalked)
        assert walked_tables == unwalked_tables
        assert walked_cycles == unwalked_cycles

    def test_fault_given_a_present_leaf_walk_is_refused(self, machine):
        vm = machine.hypervisor.create_normal_vm("vm0", machine.hart)
        gpa = vm.layout.dram_base
        machine.hypervisor.handle_normal_stage2_fault(machine.hart, vm, gpa)
        walk = machine.translator.probe_gpa(vm.hgatp_root, gpa)
        with pytest.raises(MemoryError_):
            machine.hypervisor.handle_normal_stage2_fault(machine.hart, vm, gpa, walk)
        assert vm.fault_count == 1

    def test_exit_enter_mode_transitions(self, machine):
        from repro.isa.privilege import PrivilegeMode

        machine.hypervisor.normal_vm_enter(machine.hart)
        assert machine.hart.mode is PrivilegeMode.VS
        machine.hypervisor.normal_vm_exit(machine.hart)
        assert machine.hart.mode is PrivilegeMode.HS


class TestCvmHosting:
    def test_host_create_provisions_everything(self, machine):
        handle = machine.hypervisor.host_create_cvm(
            machine.monitor, machine.hart, image=b"img" * 100
        )
        assert handle.shared_vcpu_pages[0]
        assert handle.shared_subtrees
        assert handle.shared_window_base is not None
        cvm = machine.monitor.cvms[handle.cvm_id]
        assert cvm.measurement is not None

    def test_shared_window_translation(self, machine):
        handle = machine.hypervisor.host_create_cvm(
            machine.monitor, machine.hart, image=b"x"
        )
        layout = handle.layout
        hpa = machine.hypervisor.shared_gpa_to_hpa(handle, layout.shared_base + 0x2345)
        assert hpa == handle.shared_window_base + 0x2345

    def test_shared_translation_rejects_private_gpa(self, machine):
        handle = machine.hypervisor.host_create_cvm(
            machine.monitor, machine.hart, image=b"x"
        )
        with pytest.raises(ValueError):
            machine.hypervisor.shared_gpa_to_hpa(handle, handle.layout.dram_base)

    def test_shared_window_mapped_in_subtree(self, machine):
        """The premapped window is really present in the shared tables."""
        handle = machine.hypervisor.host_create_cvm(
            machine.monitor, machine.hart, image=b"x", shared_window=1 << 20
        )
        cvm = machine.monitor.cvms[handle.cvm_id]
        result = Sv39x4().walk(
            Raw(machine.dram), cvm.hgatp_root, handle.layout.shared_base + 0x8000
        )
        assert result is not None
        assert result.pa == handle.shared_window_base + 0x8000

    def test_window_larger_than_region_rejected(self, machine):
        with pytest.raises(ValueError):
            machine.hypervisor.host_create_cvm(
                machine.monitor, machine.hart,
                layout=GpaLayout(shared_size=1 << 20), shared_window=2 << 20,
            )


#: Windows the single shared subtree cannot hold: larger than the
#: region, not a page multiple, and past the subtree's 1 GiB.
BAD_WINDOWS = [
    (GpaLayout(shared_size=1 << 20), 2 << 20),
    (GpaLayout(), PAGE_SIZE + 1),
    (GpaLayout(shared_size=2 << 30), (1 << 30) + PAGE_SIZE),
]

SHARED_FLAGS = PTE_R | PTE_W | PTE_U | PTE_D


class TestWindowValidation:
    @pytest.mark.parametrize("layout,window", BAD_WINDOWS)
    def test_create_refuses_before_any_ecall(self, machine, layout, window):
        """No CVM, no handle and no donated page is left behind."""
        free_before = machine.host_allocator.free_bytes()
        with pytest.raises(ValueError):
            machine.hypervisor.host_create_cvm(
                machine.monitor, machine.hart, layout=layout, shared_window=window
            )
        assert machine.monitor.cvms == {}
        assert machine.hypervisor.cvm_handles == {}
        assert machine.host_allocator.free_bytes() == free_before

    @pytest.mark.parametrize("layout,window", BAD_WINDOWS)
    def test_adopt_refuses_before_donating(self, machine, layout, window):
        cvm_id = machine.monitor.ecall_create_cvm(layout, 1)
        free_before = machine.host_allocator.free_bytes()
        with pytest.raises(ValueError):
            machine.hypervisor.host_adopt_cvm(
                machine.monitor, machine.hart, cvm_id, shared_window=window
            )
        assert machine.monitor.cvms[cvm_id].shared_vcpus == [None]
        assert machine.hypervisor.cvm_handles == {}
        assert machine.host_allocator.free_bytes() == free_before

    def test_share_request_past_the_subtree_is_an_ecall_error(self):
        """The region allows it, the single 1 GiB subtree does not: the
        request is refused instead of wrapping onto the window's start.
        The DRAM is large enough that the backing itself would fit."""
        machine = Machine(MachineConfig(dram_size=2 << 30))
        session = machine.launch_confidential_vm(
            image=b"x", layout=GpaLayout(shared_size=2 << 30)
        )
        handle = session.handle
        size_before = handle.shared_window_size

        def workload(ctx):
            with pytest.raises(EcallError):
                ctx.request_shared_memory(1 << 30)

        machine.run(session, workload)
        assert handle.shared_window_size == size_before
        base = session.layout.shared_base
        assert machine.hypervisor.shared_gpa_to_hpa(handle, base) == handle.shared_window_base

    def test_host_share_past_the_subtree_refused_before_allocating(self):
        machine = Machine(MachineConfig(dram_size=2 << 30))
        handle = machine.hypervisor.host_create_cvm(
            machine.monitor, machine.hart, image=b"x",
            layout=GpaLayout(shared_size=2 << 30),
        )
        free_before = machine.host_allocator.free_bytes()
        with pytest.raises(ValueError):
            machine.hypervisor.on_share_request(machine.monitor, handle.cvm_id, 1 << 30)
        assert machine.host_allocator.free_bytes() == free_before
        assert handle.shared_window_size == 4 << 20

    def test_mapper_refuses_a_range_crossing_the_subtree_end(self, machine):
        hyp = machine.hypervisor
        handle = hyp.host_create_cvm(machine.monitor, machine.hart, image=b"x")
        subtree = handle.shared_subtrees[handle.layout.shared_base >> 30]
        before = machine.dram.read(subtree, PAGE_SIZE)
        generation = hyp.map_generation
        gpa = handle.layout.shared_base + (1 << 30) - PAGE_SIZE
        with pytest.raises(ValueError):
            hyp._map_range_in_subtree(
                machine.hart, subtree, gpa, handle.shared_window_base, 2 * PAGE_SIZE, SHARED_FLAGS
            )
        assert machine.dram.read(subtree, PAGE_SIZE) == before
        assert hyp.map_generation == generation


# -- the range mapper against the per-page mapper it replaced ------------------


def _per_page_map_range(hyp, hart, subtree, gpa, pa, size, flags):
    """Reference: one PMP-checked slot read, one PMP-checked leaf store,
    one epoch bump and one PAGE_WALK charge per page."""
    for offset in range(0, size, PAGE_SIZE):
        page_gpa = gpa + offset
        slot = subtree + 8 * ((page_gpa >> 21) & 0x1FF)
        pte = hyp.bus.cpu_read_u64(hart, slot)
        if not pte & 1:
            table = hyp._alloc_zeroed_page(hart)
            hyp.bus.cpu_write_u64(hart, slot, (table >> 12) << 10 | 1)
            pte = hyp.bus.cpu_read_u64(hart, slot)
        leaf = (pte >> 10) << 12
        hyp.bus.cpu_write_u64(
            hart, leaf + 8 * ((page_gpa >> 12) & 0x1FF),
            ((pa + offset) >> 12) << 10 | flags | 1,
        )
        hyp.map_generation += 1
        hyp.ledger.charge(Category.PAGE_WALK, 2 * hyp.costs.page_walk_level)


def _mapping_state(machine, handle):
    """Table bytes, ledger, epoch and per-page translation of a window."""
    tables = {}
    for subtree in handle.shared_subtrees.values():
        tables[subtree] = machine.dram.read(subtree, PAGE_SIZE)
        for index in range(512):
            pte = machine.dram.read_u64(subtree + 8 * index)
            if pte & 1:
                leaf = (pte >> 10) << 12
                tables[leaf] = machine.dram.read(leaf, PAGE_SIZE)
    ledger = machine.ledger.by_category()
    generation = machine.hypervisor.map_generation
    base = handle.layout.shared_base
    translations = [
        machine.hypervisor.shared_gpa_to_hpa(handle, base + offset)
        for offset in range(0, handle.shared_window_size, PAGE_SIZE)
    ]
    return tables, ledger, generation, translations


def _build(costs, per_page, window, extend=0, fault_pages=0):
    """Launch a CVM with ``window`` premapped, grow it by ``extend`` bytes
    and demand-map ``fault_pages`` more; return the mapping state with
    the epoch as a delta."""
    machine = Machine(MachineConfig(costs=costs))
    hyp = machine.hypervisor
    if per_page:
        hyp._map_range_in_subtree = lambda *args: _per_page_map_range(hyp, *args)
    generation = hyp.map_generation
    handle = hyp.host_create_cvm(
        machine.monitor, machine.hart, image=b"x", shared_window=window
    )
    if extend:
        hyp.on_share_request(machine.monitor, handle.cvm_id, extend)
    end = handle.layout.shared_base + handle.shared_window_size
    for page in range(fault_pages):
        hyp._fix_shared_fault(machine.hart, handle, end + page * PAGE_SIZE)
    tables, ledger, end_generation, translations = _mapping_state(machine, handle)
    return tables, ledger, end_generation - generation, translations


class TestRangeMapperMatchesPerPage:
    @pytest.mark.parametrize("pages", [1, 511, 512, 513, 1024])
    def test_premapped_window(self, pages):
        fast = _build(DEFAULT_COSTS, False, pages * PAGE_SIZE)
        assert fast == _build(DEFAULT_COSTS, True, pages * PAGE_SIZE)
        assert fast[2] == pages

    def test_share_request_across_a_2mb_boundary(self):
        """A 1 MB window grown by 1.5 MB fills the first leaf table and
        starts the next; two shared faults then map a page each."""
        args = (1 << 20, 3 << 19, 2)
        fast = _build(DEFAULT_COSTS, False, *args)
        assert fast == _build(DEFAULT_COSTS, True, *args)
        assert fast[2] == 256 + 384 + 2

    def test_non_integral_walk_cost(self):
        """Each page's 120.6-cycle charge floors to 120; a run of n pages
        must charge exactly n * 120, not int(n * 120.6)."""
        costs = dataclasses.replace(DEFAULT_COSTS, page_walk_level=60.3)
        args = (513 * PAGE_SIZE, 3 << 19, 1)
        assert _build(costs, False, *args) == _build(costs, True, *args)


class TestRangeMapperPmp:
    def test_denied_leaf_store_writes_no_pte_of_the_run(self, machine):
        """A PMP entry denies only the run's last PTE word: the one store
        faults and none of the run's other 255 PTEs land."""
        hyp = machine.hypervisor
        handle = hyp.host_create_cvm(
            machine.monitor, machine.hart, image=b"x", shared_window=1 << 20
        )
        subtree = handle.shared_subtrees[handle.layout.shared_base >> 30]
        leaf = (machine.dram.read_u64(subtree) >> 10) << 12
        before = machine.dram.read(leaf, PAGE_SIZE)
        machine.hart.pmp.set_entry(
            14, PmpEntry(PmpAddressMode.NAPOT, leaf + 8 * 511, 8, readable=True)
        )
        generation = hyp.map_generation
        walk_before = machine.ledger.by_category()[Category.PAGE_WALK]
        with pytest.raises(TrapRaised) as trap:
            hyp.on_share_request(machine.monitor, handle.cvm_id, 1 << 20)
        assert trap.value.cause is ExceptionCause.STORE_ACCESS_FAULT
        assert machine.dram.read(leaf, PAGE_SIZE) == before
        assert hyp.map_generation == generation
        assert machine.ledger.by_category()[Category.PAGE_WALK] == walk_before
        assert handle.shared_window_size == 1 << 20


class TestPoolExpansion:
    def test_expansion_registers_contiguous_chunk(self, machine):
        regions_before = len(machine.monitor.pool.regions)
        free_before = machine.monitor.pool.free_blocks
        machine.hypervisor.on_pool_expand_request(machine.monitor)
        assert len(machine.monitor.pool.regions) == regions_before + 1
        assert machine.monitor.pool.free_blocks > free_before
        assert machine.hypervisor.pool_expansions >= 1

    def test_expansion_charges_hyp_cost(self, machine):
        with machine.ledger.span() as span:
            machine.hypervisor.on_pool_expand_request(machine.monitor)
        assert span.breakdown[Category.HYP_LOGIC] >= machine.costs.hyp_expand_cost
