"""Secure Monitor ECALL interface and fault handling."""

import pytest

from repro import Machine, MachineConfig
from repro.errors import EcallError, SecurityViolation
from repro.mem.physmem import PAGE_SIZE
from repro.sm.alloc import AllocStage
from repro.sm.cvm import CvmState, GpaLayout
from repro.sm.secmem import SECURE_BLOCK_SIZE


@pytest.fixture
def monitor(machine):
    return machine.monitor


class TestLifecycleEcalls:
    def test_create_allocates_root_in_pool(self, machine, monitor):
        cvm_id = monitor.ecall_create_cvm()
        cvm = monitor.cvms[cvm_id]
        assert cvm.hgatp_root % (16 * 1024) == 0
        assert monitor.pool.contains(cvm.hgatp_root, 16 * 1024)

    def test_create_requires_vcpus(self, monitor):
        with pytest.raises(EcallError):
            monitor.ecall_create_cvm(vcpu_count=0)

    def test_ids_are_unique(self, monitor):
        ids = {monitor.ecall_create_cvm() for _ in range(5)}
        assert len(ids) == 5
        vmids = {monitor.cvms[i].vmid for i in ids}
        assert len(vmids) == 5

    def test_finalize_requires_shared_vcpus(self, monitor):
        cvm_id = monitor.ecall_create_cvm()
        with pytest.raises(EcallError):
            monitor.ecall_finalize(cvm_id)

    def test_shared_vcpu_must_be_normal_memory(self, machine, monitor):
        cvm_id = monitor.ecall_create_cvm()
        pool_page = monitor.pool.regions[0][0]
        with pytest.raises(SecurityViolation):
            monitor.ecall_assign_shared_vcpu(cvm_id, 0, pool_page)

    def test_image_load_measured_and_mapped(self, machine, monitor):
        cvm_id = monitor.ecall_create_cvm()
        page = machine.host_allocator.alloc()
        monitor.ecall_assign_shared_vcpu(cvm_id, 0, page)
        image = b"kernel!!" * 512  # one page
        monitor.ecall_load_image(cvm_id, GpaLayout().dram_base, image)
        measurement = monitor.ecall_finalize(cvm_id)
        assert len(measurement) == 32
        cvm = monitor.cvms[cvm_id]
        assert cvm.state is CvmState.FINALIZED
        # The image bytes physically landed in a secure frame.
        from repro.mem.pagetable import Sv39x4

        class Raw:
            def read_u64(self, a):
                return machine.dram.read_u64(a)

        result = Sv39x4().walk(Raw(), cvm.hgatp_root, GpaLayout().dram_base)
        assert machine.dram.read(result.pa, 8) == b"kernel!!"
        assert monitor.pool.contains(result.pa, PAGE_SIZE)

    def test_identical_images_measure_identically(self):
        reports = []
        for _ in range(2):
            machine = Machine(MachineConfig())
            session = machine.launch_confidential_vm(image=b"same" * 1024)
            reports.append(session.cvm.measurement)
        assert reports[0] == reports[1]

    def test_different_images_measure_differently(self):
        a = Machine(MachineConfig()).launch_confidential_vm(image=b"aaaa" * 1024)
        b = Machine(MachineConfig()).launch_confidential_vm(image=b"bbbb" * 1024)
        assert a.cvm.measurement != b.cvm.measurement

    def test_load_image_after_finalize_rejected(self, machine, monitor):
        session = machine.launch_confidential_vm(image=b"x")
        with pytest.raises(ValueError):
            monitor.ecall_load_image(session.cvm.cvm_id, GpaLayout().dram_base, b"late")

    def test_unaligned_image_gpa_rejected(self, monitor):
        cvm_id = monitor.ecall_create_cvm()
        with pytest.raises(EcallError):
            monitor.ecall_load_image(cvm_id, GpaLayout().dram_base + 100, b"x")

    @pytest.mark.parametrize("pc", [-4, -1, 1 << 64, (1 << 64) + 4])
    def test_entry_point_outside_64_bits_refused_before_the_vcpu_changes(self, monitor, pc):
        cvm_id = monitor.ecall_create_cvm()
        vcpu = monitor.cvms[cvm_id].vcpu(0)
        before = (vcpu.pc, dict(vcpu.csrs), dict(vcpu.gprs))
        log = monitor.cvms[cvm_id].measurement_log
        measured = log._hash.copy().digest()
        with pytest.raises(EcallError, match="64-bit"):
            monitor.ecall_set_entry_point(cvm_id, 0, pc)
        assert (vcpu.pc, vcpu.csrs, vcpu.gprs) == before
        assert log._hash.copy().digest() == measured

    @pytest.mark.parametrize("pc", [0, (1 << 64) - 1])
    def test_entry_point_at_the_64_bit_bounds_accepted(self, monitor, pc):
        cvm_id = monitor.ecall_create_cvm()
        monitor.ecall_set_entry_point(cvm_id, 0, pc)
        vcpu = monitor.cvms[cvm_id].vcpu(0)
        assert vcpu.pc == vcpu.csrs["sepc"] == pc

    def test_shared_vcpu_area_must_be_a_dram_page(self, machine, monitor):
        cvm_id = monitor.ecall_create_cvm()
        page = machine.host_allocator.alloc()
        for base in (page + 8, machine.dram.end, -PAGE_SIZE):
            with pytest.raises(EcallError, match="not a DRAM page"):
                monitor.ecall_assign_shared_vcpu(cvm_id, 0, base)
        monitor.ecall_assign_shared_vcpu(cvm_id, 0, page)

    def test_unknown_cvm_rejected(self, monitor):
        with pytest.raises(EcallError):
            monitor.ecall_finalize(999)

    def test_suspend_resume_cycle(self, machine, monitor):
        session = machine.launch_confidential_vm(image=b"x")
        cvm_id = session.cvm.cvm_id
        monitor.ecall_suspend(cvm_id)
        assert monitor.cvms[cvm_id].state is CvmState.SUSPENDED
        with pytest.raises(ValueError):
            monitor.ecall_suspend(cvm_id)
        monitor.ecall_resume(cvm_id)
        assert monitor.cvms[cvm_id].state is CvmState.FINALIZED


class TestDestroy:
    def test_destroy_scrubs_frames(self, machine, monitor):
        session = machine.launch_confidential_vm(image=b"secret-bytes" * 300)
        cvm = session.cvm
        from repro.mem.pagetable import Sv39x4

        class Raw:
            def read_u64(self, a):
                return machine.dram.read_u64(a)

        pa = Sv39x4().walk(Raw(), cvm.hgatp_root, cvm.layout.dram_base).pa
        assert machine.dram.read(pa, 12) == b"secret-bytes"
        monitor.ecall_destroy(cvm.cvm_id)
        assert machine.dram.read(pa, 12) == bytes(12)
        assert cvm.state is CvmState.DESTROYED

    def test_destroy_recycles_blocks(self, machine, monitor):
        free_before = monitor.pool.free_blocks
        session = machine.launch_confidential_vm(image=b"z" * (SECURE_BLOCK_SIZE))
        assert monitor.pool.free_blocks < free_before
        monitor.ecall_destroy(session.cvm.cvm_id)
        # Data blocks return; only SM metadata blocks stay consumed.
        assert monitor.pool.free_blocks >= free_before - 1

    def test_destroyed_cvm_refuses_operations(self, machine, monitor):
        session = machine.launch_confidential_vm(image=b"x")
        monitor.ecall_destroy(session.cvm.cvm_id)
        with pytest.raises(ValueError):
            monitor.ecall_destroy(session.cvm.cvm_id)


class TestGuestServices:
    def test_attestation_report_roundtrip(self, machine, monitor):
        session = machine.launch_confidential_vm(image=b"measured")
        report = monitor.ecall_attestation_report(session.cvm.cvm_id, b"challenge")
        assert report.measurement == session.cvm.measurement
        assert report.report_data == b"challenge"
        assert monitor.attestation.verify_report(report)

    def test_report_requires_finalization(self, monitor):
        cvm_id = monitor.ecall_create_cvm()
        with pytest.raises(EcallError):
            monitor.ecall_attestation_report(cvm_id)

    def test_get_random_bounds(self, machine, monitor):
        session = machine.launch_confidential_vm(image=b"x")
        assert len(monitor.ecall_get_random(session.cvm.cvm_id, 64)) == 64
        with pytest.raises(EcallError):
            monitor.ecall_get_random(session.cvm.cvm_id, 0)
        with pytest.raises(EcallError):
            monitor.ecall_get_random(session.cvm.cvm_id, 10_000)


class TestFaultHandling:
    def test_fault_maps_private_page(self, machine, monitor):
        session = machine.launch_confidential_vm(image=b"x")
        cvm = session.cvm
        gpa = cvm.layout.dram_base + (8 << 20)
        stage = monitor.handle_guest_page_fault(machine.hart, cvm, 0, gpa)
        assert stage in (AllocStage.PAGE_CACHE, AllocStage.NEW_BLOCK)
        from repro.mem.pagetable import Sv39x4

        class Raw:
            def read_u64(self, a):
                return machine.dram.read_u64(a)

        result = Sv39x4().walk(Raw(), cvm.hgatp_root, gpa)
        assert result is not None
        assert monitor.pool.owner_of(result.pa) == cvm.cvm_id

    def test_fault_outside_regions_is_violation(self, machine, monitor):
        session = machine.launch_confidential_vm(image=b"x")
        with pytest.raises(SecurityViolation):
            monitor.handle_guest_page_fault(machine.hart, session.cvm, 0, 0x7000_0000)

    def test_fault_stage_counters_accumulate(self, machine, monitor):
        session = machine.launch_confidential_vm(image=b"x")
        cvm = session.cvm
        base = cvm.layout.dram_base + (16 << 20)
        for i in range(70):  # more than one 64-page block
            monitor.handle_guest_page_fault(machine.hart, cvm, 0, base + i * PAGE_SIZE)
        counts = monitor.fault_stage_counts
        assert counts[AllocStage.PAGE_CACHE] > counts[AllocStage.NEW_BLOCK] > 0


class TestPoolExpansion:
    def test_stage3_expands_pool_via_hypervisor(self):
        machine = Machine(MachineConfig(initial_pool_bytes=1 << 20))
        session = machine.launch_confidential_vm(image=b"x")
        cvm = session.cvm
        machine.monitor.world_switch.enter_cvm(machine.hart, cvm, cvm.vcpu(0))
        regions_before = len(machine.monitor.pool.regions)
        base = cvm.layout.dram_base + (4 << 20)
        # Exhaust the remaining pool; the SM must escalate to the host.
        for i in range(600):
            machine.monitor.handle_guest_page_fault(
                machine.hart, cvm, 0, base + i * PAGE_SIZE
            )
        assert machine.hypervisor.pool_expansions >= 1
        assert len(machine.monitor.pool.regions) > regions_before
        assert machine.monitor.fault_stage_counts[AllocStage.POOL_EXPANSION] >= 1

    def test_register_pool_memory_validates_overlap(self, machine, monitor):
        base, size = monitor.pool.regions[0]
        with pytest.raises(SecurityViolation):
            monitor.ecall_register_pool_memory(base, size)
