"""Memory-isolation attacks from the untrusted host (paper IV-C).

Every test here plays the adversary the threat model names: a fully
compromised hypervisor (and its devices).  The attacks are executed
through the same PMP/IOPMP-checked paths real software would use, and
must fail with the architecturally-correct fault.
"""

import pytest

from repro.errors import SecurityViolation, TrapRaised
from repro.isa.privilege import PrivilegeMode
from repro.isa.traps import ExceptionCause
from repro.mem.pagetable import Sv39x4
from repro.mem.physmem import PAGE_SIZE


@pytest.fixture
def env(machine):
    session = machine.launch_confidential_vm(image=b"TOP-SECRET-GUEST" * 256)
    # The hypervisor is "running": Normal mode, pool closed.
    machine.hart.mode = PrivilegeMode.HS
    return machine, session


def _secret_pa(machine, session):
    """Host-physical address of the CVM's first image page."""

    class Raw:
        def read_u64(self, a):
            return machine.dram.read_u64(a)

    return Sv39x4().walk(Raw(), session.cvm.hgatp_root, session.layout.dram_base).pa


class TestHypervisorCannotTouchSecureMemory:
    def test_read_of_cvm_data_faults(self, env):
        machine, session = env
        pa = _secret_pa(machine, session)
        with pytest.raises(TrapRaised) as excinfo:
            machine.bus.cpu_read(machine.hart, pa, 16)
        assert excinfo.value.cause == ExceptionCause.LOAD_ACCESS_FAULT

    def test_write_of_cvm_data_faults(self, env):
        machine, session = env
        pa = _secret_pa(machine, session)
        with pytest.raises(TrapRaised) as excinfo:
            machine.bus.cpu_write(machine.hart, pa, b"corrupted")
        assert excinfo.value.cause == ExceptionCause.STORE_ACCESS_FAULT

    def test_fetch_from_pool_faults(self, env):
        machine, session = env
        pa = _secret_pa(machine, session)
        with pytest.raises(TrapRaised):
            machine.bus.cpu_fetch_check(machine.hart, pa)

    def test_page_table_tampering_faults(self, env):
        """Controlled-channel defence: the CVM's tables are in the pool."""
        machine, session = env
        root = session.cvm.hgatp_root
        assert machine.monitor.pool.contains(root, 16 * 1024)
        with pytest.raises(TrapRaised):
            machine.bus.cpu_write_u64(machine.hart, root, 0)
        with pytest.raises(TrapRaised):
            machine.bus.cpu_read_u64(machine.hart, root)  # even reading it

    def test_every_pool_page_inaccessible(self, env):
        machine, session = env
        base, size = machine.monitor.pool.regions[0]
        for offset in range(0, size, size // 8):
            with pytest.raises(TrapRaised):
                machine.bus.cpu_read(machine.hart, base + offset, 8)

    def test_normal_memory_remains_accessible(self, env):
        machine, session = env
        page = machine.host_allocator.alloc()
        machine.bus.cpu_write(machine.hart, page, b"host data")
        assert machine.bus.cpu_read(machine.hart, page, 9) == b"host data"

    def test_pool_open_only_during_cvm_execution(self, env):
        """The window of accessibility is exactly CVM mode."""
        machine, session = env
        pa = _secret_pa(machine, session)
        vcpu = session.cvm.vcpu(0)
        machine.monitor.world_switch.enter_cvm(machine.hart, session.cvm, vcpu)
        # In CVM mode the guest's effective privilege may read its memory.
        assert machine.bus.cpu_read(machine.hart, pa, 10) == b"TOP-SECRET"
        machine.monitor.world_switch.exit_to_normal(
            machine.hart, session.cvm, vcpu, {"kind": "timer", "cause": 7}
        )
        with pytest.raises(TrapRaised):
            machine.bus.cpu_read(machine.hart, pa, 10)


class TestCvmToCvmIsolation:
    def test_stage2_frames_disjoint(self, machine):
        a = machine.launch_confidential_vm(image=b"A" * 8192)
        b = machine.launch_confidential_vm(image=b"B" * 8192)
        frames = {}
        for session in (a, b):
            frames[session.cvm.cvm_id] = {
                pa for _va, pa, _f, _l in Sv39x4().iter_leaves(
                    machine.dram, session.cvm.hgatp_root
                )
            }
        ids = list(frames)
        assert not frames[ids[0]] & frames[ids[1]]

    def test_sm_refuses_cross_cvm_mapping(self, machine):
        a = machine.launch_confidential_vm(image=b"A" * 4096)
        b = machine.launch_confidential_vm(image=b"B" * 4096)

        class Raw:
            def read_u64(self, addr):
                return machine.dram.read_u64(addr)

        b_frame = Sv39x4().walk(Raw(), b.cvm.hgatp_root, b.layout.dram_base).pa
        with pytest.raises(SecurityViolation):
            machine.monitor.split.map_private(
                a.cvm, a.layout.dram_base + (32 << 20), b_frame,
                machine.monitor._alloc_table_page,
            )

    def test_page_tables_not_mapped_into_any_cvm(self, machine):
        """No CVM GPA resolves to any CVM's page-table page."""
        a = machine.launch_confidential_vm(image=b"A" * 16384)
        b = machine.launch_confidential_vm(image=b"B" * 16384)
        table_pages = set()
        for session in (a, b):
            for table in Sv39x4().survey(machine.dram, session.cvm.hgatp_root)[0]:
                for offset in range(0, 16 * 1024 if table == session.cvm.hgatp_root else PAGE_SIZE, PAGE_SIZE):
                    table_pages.add(table + offset)
        for session in (a, b):
            for _va, pa, _f, _l in Sv39x4().iter_leaves(machine.dram, session.cvm.hgatp_root):
                assert pa not in table_pages

    def test_destroyed_cvm_leaves_nothing_readable(self, machine):
        session = machine.launch_confidential_vm(image=b"EPHEMERAL-SECRET" * 250)
        pa = _secret_pa(machine, session)
        machine.monitor.ecall_destroy(session.cvm.cvm_id)
        # Even the SM's own (M-mode) view sees only zeros now.
        assert machine.dram.read(pa, 16) == bytes(16)


class TestDmaAttacks:
    def test_device_dma_read_of_pool_faults(self, env):
        machine, session = env
        pa = _secret_pa(machine, session)
        with pytest.raises(TrapRaised):
            machine.bus.dma_read(source_id=5, addr=pa, size=64)

    def test_device_dma_write_of_pool_faults(self, env):
        machine, session = env
        pa = _secret_pa(machine, session)
        with pytest.raises(TrapRaised):
            machine.bus.dma_write(source_id=5, addr=pa, data=b"\x00" * 64)

    def test_dma_blocked_even_while_cvm_runs(self, env):
        """PMP opens for the CPU in CVM mode; the IOPMP never opens."""
        machine, session = env
        pa = _secret_pa(machine, session)
        vcpu = session.cvm.vcpu(0)
        machine.monitor.world_switch.enter_cvm(machine.hart, session.cvm, vcpu)
        with pytest.raises(TrapRaised):
            machine.bus.dma_read(source_id=1, addr=pa, size=8)

    def test_dma_to_shared_window_allowed(self, env):
        """virtio must still work: the shared window is normal memory."""
        machine, session = env
        hpa = session.handle.shared_window_base
        machine.bus.dma_write(source_id=1, addr=hpa, data=b"frame")
        assert machine.bus.dma_read(source_id=1, addr=hpa, size=5) == b"frame"

    def test_virtio_descriptor_aimed_at_pool_faults(self, env):
        """A malicious device/hyp pointing a descriptor at secure memory."""
        machine, session = env
        from repro.hyp.virtio import Descriptor, Virtqueue

        device = machine.attach_virtio_block(session)
        device.dma_translate = lambda gpa: _secret_pa(machine, session)  # evil
        queue = Virtqueue(ring_gpa=session.layout.shared_base)
        device.attach_queue(0, queue)
        queue.post(Descriptor(gpa=0, length=512, device_writes=True,
                              header={"type": "read", "sector": 0}))
        with pytest.raises(TrapRaised):
            device.process_queue(0)
