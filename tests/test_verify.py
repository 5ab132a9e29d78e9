"""The invariant checker: clean machines pass, corrupted ones report."""

import pytest

from repro import Machine, MachineConfig
from repro.mem.physmem import PAGE_SIZE
from repro.verify import assert_invariants, check_invariants


class TestCleanMachines:
    def test_fresh_machine(self, machine):
        assert check_invariants(machine) == []

    def test_after_single_cvm_run(self, machine):
        session = machine.launch_confidential_vm(image=b"clean" * 200)
        base = session.layout.dram_base + (8 << 20)
        machine.run(session, lambda ctx: ctx.write_bytes(base, b"data" * 100))
        assert_invariants(machine)

    def test_after_multi_tenant_io_scenario(self, machine):
        a = machine.launch_confidential_vm(image=b"a" * 8192)
        b = machine.launch_confidential_vm(image=b"b" * 8192)
        machine.attach_virtio_block(a)

        def io_workload(ctx):
            blk = ctx.blk_driver()
            blk.write(0, bytes(4096))
            blk.read(0, 4096)

        machine.run(a, io_workload)
        machine.run(b, lambda ctx: ctx.compute(100_000))
        assert_invariants(machine)

    def test_after_destroy(self, machine):
        session = machine.launch_confidential_vm(image=b"gone" * 500)
        machine.run(session, lambda ctx: ctx.compute(1000))
        machine.monitor.ecall_destroy(session.cvm.cvm_id)
        assert_invariants(machine)

    def test_after_pool_expansion(self):
        machine = Machine(MachineConfig(initial_pool_bytes=1 << 20))
        session = machine.launch_confidential_vm(image=b"x")
        from repro.workloads.memstress import sequential_write_stress

        machine.run(session, sequential_write_stress(600))
        assert machine.hypervisor.pool_expansions >= 1
        assert_invariants(machine)

    def test_after_migration(self, machine):
        from repro.sm.migration import derive_migration_key

        key = derive_migration_key(b"fleet", b"a", b"b")
        session = machine.launch_confidential_vm(image=b"mig" * 500)
        machine.run(session, lambda ctx: ctx.compute(1000))
        blob = machine.export_confidential_vm(session, key)
        assert_invariants(machine)  # source side clean after export
        destination = Machine(MachineConfig())
        destination.import_confidential_vm(blob, key)
        assert_invariants(destination)

    def test_normal_vms_do_not_trip_cvm_invariants(self, machine):
        session = machine.launch_normal_vm()
        base = session.layout.dram_base
        machine.run(session, lambda ctx: ctx.store(base + 0x5000, 1))
        assert_invariants(machine)


class TestCorruptionDetected:
    def test_cross_cvm_frame_sharing_detected(self, machine):
        """Forge a PTE in CVM A's table pointing at CVM B's frame."""
        a = machine.launch_confidential_vm(image=b"a" * 4096)
        b = machine.launch_confidential_vm(image=b"b" * 4096)
        from repro.mem.pagetable import Sv39x4

        class Raw:
            def read_u64(self, addr):
                return machine.dram.read_u64(addr)

            def write_u64(self, addr, value):
                machine.dram.write_u64(addr, value)

        b_frame = Sv39x4().walk(Raw(), b.cvm.hgatp_root, b.layout.dram_base).pa
        # Simulate an SM bug: bypass validation and map B's frame into A.
        Sv39x4().map(
            Raw(), a.cvm.hgatp_root, a.layout.dram_base + (64 << 20), b_frame,
            0b1110 | 0x10, lambda: machine.monitor._alloc_table_page(),
        )
        violations = check_invariants(machine)
        assert any("I3" in v or "I2" in v for v in violations)

    def test_shared_alias_detected(self, machine):
        session = machine.launch_confidential_vm(image=b"x")
        subtree = next(iter(session.handle.shared_subtrees.values()))
        pool_page = machine.monitor.pool.regions[0][0]
        level1 = (machine.dram.read_u64(subtree) >> 10) << 12
        machine.dram.write_u64(level1, (pool_page >> 12) << 10 | 0b10111 | 0x80)
        violations = check_invariants(machine)
        assert any("I4" in v for v in violations)

    def test_pmp_drift_detected(self, machine):
        from repro.isa.privilege import PrivilegeMode

        machine.launch_confidential_vm(image=b"x")
        # Simulate firmware corruption: the pool is left open on a hart
        # that resumes Normal-mode (HS) execution with no CVM running.
        machine.pmp_controller.open_pool(machine.harts[2])
        machine.harts[2].mode = PrivilegeMode.HS
        violations = check_invariants(machine)
        assert any("I5" in v for v in violations)

    def test_unscrubbed_free_page_detected(self, machine):
        page = machine.monitor.pool.pages_owned_by("free")[0]
        machine.dram.write(page, b"residual-secret")
        violations = check_invariants(machine)
        assert any("I7" in v for v in violations)

    def test_iopmp_gap_detected(self, machine):
        machine.iopmp.clear()  # a buggy SM forgot DMA coverage
        violations = check_invariants(machine)
        assert any("I6" in v for v in violations)

    def test_self_referencing_normal_vm_table_is_swept(self, machine):
        """A normal VM's stage-2 table lives in hypervisor-writable memory:
        a root slot pointing back at the root must not hang the sweep."""
        from repro.faults.invariants import check_postconditions
        from repro.mem.pagetable import PTE_V

        vm = machine.hypervisor.create_normal_vm("loop", machine.hart)
        machine.dram.write_u64(vm.hgatp_root, (vm.hgatp_root >> 12) << 10 | PTE_V)
        assert isinstance(check_postconditions(machine), list)

    def test_assert_raises_with_detail(self, machine):
        machine.iopmp.clear()
        with pytest.raises(AssertionError, match="I6"):
            assert_invariants(machine)
