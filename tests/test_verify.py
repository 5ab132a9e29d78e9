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

    def test_normal_vm_gigapage_over_the_pool_detected(self, machine):
        """A 1 GiB leaf based below the pool covers it: the sweep checks a
        leaf's whole span, not only its first byte."""
        from repro.faults.invariants import check_postconditions
        from repro.mem.pagetable import PTE_R, PTE_W, Sv39x4

        class Raw:
            def read_u64(self, addr):
                return machine.dram.read_u64(addr)

            def write_u64(self, addr, value):
                machine.dram.write_u64(addr, value)

        vm = machine.hypervisor.create_normal_vm("alias", machine.hart)
        pool_base = machine.monitor.pool.regions[0][0]
        walker = Sv39x4()
        walker.map(Raw(), vm.hgatp_root, 1 << 30, 0x8000_0000, PTE_R | PTE_W,
                   machine.host_allocator.alloc, level=2)
        result = walker.walk(Raw(), vm.hgatp_root, (1 << 30) + pool_base - 0x8000_0000)
        assert machine.monitor.pool.contains(result.pa, PAGE_SIZE)
        violations = check_postconditions(machine)
        assert violations == [
            f"H1: normal VM 'alias' maps GPA {1 << 30:#x} to secure pool PA 0x80000000"
        ]

    def test_shared_superpage_reaching_into_the_pool_detected(self):
        """A 2 MB shared-window leaf based below the pool but ending inside
        it aliases pool memory (I4)."""
        # A 1 MB firmware region puts the pool at a 1 MB (not 2 MB) boundary.
        machine = Machine(MachineConfig(firmware_size=1 << 20))
        pool_base = machine.monitor.pool.regions[0][0]
        leaf_pa = pool_base & ~((2 << 20) - 1)
        assert leaf_pa < pool_base < leaf_pa + (2 << 20)
        session = machine.launch_confidential_vm(image=b"x")
        assert check_invariants(machine) == []
        subtree = next(iter(session.handle.shared_subtrees.values()))
        machine.dram.write_u64(subtree + 8 * 5, (leaf_pa >> 12) << 10 | 0b10111)
        gpa = session.layout.shared_base + 5 * (2 << 20)
        assert check_invariants(machine) == [
            f"I4: CVM {session.cvm.cvm_id} shared GPA {gpa:#x} aliases pool PA {leaf_pa:#x}"
        ]

    def test_private_superpage_running_past_the_pool_detected(self):
        """A 2 MB private leaf whose first page is the CVM's own pool frame
        but whose span runs past the pool's end maps non-pool memory (I2)."""
        from repro.mem.pagetable import PTE_R, PTE_W, Sv39x4

        machine = Machine(MachineConfig(firmware_size=1 << 20))
        (pool_base, pool_size), = machine.monitor.pool.regions
        leaf_pa = (pool_base + pool_size - PAGE_SIZE) & ~((2 << 20) - 1)
        assert leaf_pa + (2 << 20) > pool_base + pool_size
        session = machine.launch_confidential_vm(image=b"x")
        machine.monitor.pool.set_page_owner(leaf_pa, session.cvm.cvm_id)
        gpa = session.layout.dram_base + (128 << 20)

        class Raw:
            def read_u64(self, addr):
                return machine.dram.read_u64(addr)

            def write_u64(self, addr, value):
                machine.dram.write_u64(addr, value)

        Sv39x4().map(Raw(), session.cvm.hgatp_root, gpa, leaf_pa, PTE_R | PTE_W,
                     machine.monitor._alloc_table_page, level=1)
        assert f"I2: CVM {session.cvm.cvm_id} private GPA {gpa:#x} maps non-pool PA {leaf_pa:#x}" in (
            check_invariants(machine)
        )

    def test_assert_raises_with_detail(self, machine):
        machine.iopmp.clear()
        with pytest.raises(AssertionError, match="I6"):
            assert_invariants(machine)


# -- I1/I2/I4 against the single-scan reference --------------------------------


def _reference_placement(machine) -> list:
    """The I1/I2/I4 loop as one full scan of every CVM's stage-2 tree.

    ``check_invariants`` splits it into a private-range scan and a
    shared-window scan; both must report exactly this list, in this order.
    Leaves are checked across their whole span.
    """
    from repro.mem.pagetable import Sv39x4
    from repro.sm.channel import ChannelState
    from repro.sm.cvm import CvmState

    monitor = machine.monitor
    pool = monitor.pool
    walker = Sv39x4()
    channel_frames = {}
    for channel in monitor.channels.channels.values():
        if channel.state is ChannelState.CLOSED:
            continue
        frames = {channel.window_pa + off for off in range(0, channel.window_size, PAGE_SIZE)}
        for endpoint_id in channel.gpas:
            channel_frames.setdefault(endpoint_id, set()).update(frames)
    violations = []
    for cvm in monitor.cvms.values():
        if cvm.state is CvmState.DESTROYED or cvm.hgatp_root is None:
            continue
        if not pool.contains(cvm.hgatp_root, 16 * 1024):
            violations.append(f"I1: CVM {cvm.cvm_id} root {cvm.hgatp_root:#x} outside the pool")
        shared_split = monitor.split.shared_root_index_base(cvm)
        for gpa, pa, _flags, level in walker.iter_leaves(machine.dram, cvm.hgatp_root):
            span = walker.level_span(level)
            if cvm.layout.in_private_dram(gpa):
                page = pa & ~(PAGE_SIZE - 1)
                if page in channel_frames.get(cvm.cvm_id, ()):
                    continue
                if not pool.contains(pa, span):
                    violations.append(
                        f"I2: CVM {cvm.cvm_id} private GPA {gpa:#x} maps non-pool PA {pa:#x}"
                    )
                elif pool.owner_of(page) != cvm.cvm_id:
                    violations.append(
                        f"I2: CVM {cvm.cvm_id} private frame {pa:#x} owned by "
                        f"{pool.owner_of(page)!r}"
                    )
            elif cvm.layout.in_shared(gpa):
                if pool.overlaps(pa, span):
                    violations.append(
                        f"I4: CVM {cvm.cvm_id} shared GPA {gpa:#x} aliases pool PA {pa:#x}"
                    )
        for index, table in cvm.shared_subtrees.items():
            if index < shared_split:
                violations.append(f"I4: CVM {cvm.cvm_id} shared subtree at private index {index}")
            if pool.contains(table, PAGE_SIZE):
                violations.append(f"I4: CVM {cvm.cvm_id} shared subtree table {table:#x} in pool")
    return violations


def _corrupt(machine, sessions, rng) -> None:
    """Apply a seeded mix of placement corruptions to live CVMs."""
    from repro.mem.pagetable import PTE_D, PTE_R, PTE_U, PTE_W, Sv39x4

    class Raw:
        def read_u64(self, addr):
            return machine.dram.read_u64(addr)

        def write_u64(self, addr, value):
            machine.dram.write_u64(addr, value)

    walker = Sv39x4()
    pool = machine.monitor.pool
    flags = PTE_R | PTE_W | PTE_U | PTE_D
    for _ in range(rng.randint(1, 6)):
        kind = rng.choice(("private_outside_pool", "shared_into_pool", "foreign_frame"))
        victim = rng.choice(sessions)
        layout = victim.layout
        if kind == "shared_into_pool":
            subtree = next(iter(victim.handle.shared_subtrees.values()))
            leaf_table = (machine.dram.read_u64(subtree) >> 10) << 12
            pool_page = pool.regions[0][0] + PAGE_SIZE * rng.randrange(64)
            machine.dram.write_u64(leaf_table + 8 * rng.randrange(512),
                                   (pool_page >> 12) << 10 | flags | 1)
            continue
        if kind == "private_outside_pool":
            frame = machine.host_allocator.alloc()
        else:
            donor = rng.choice([s for s in sessions if s is not victim])
            frame = walker.walk(Raw(), donor.cvm.hgatp_root, donor.layout.dram_base).pa
        gpa = layout.dram_base + (64 << 20) + PAGE_SIZE * rng.randrange(4096)
        if walker.walk(Raw(), victim.cvm.hgatp_root, gpa) is None:
            walker.map(Raw(), victim.cvm.hgatp_root, gpa, frame, flags,
                       machine.monitor._alloc_table_page)


class TestSplitScanMatchesReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_corruptions(self, seed):
        import random

        rng = random.Random(seed)
        machine = Machine(MachineConfig())
        sessions = [machine.launch_confidential_vm(image=b"eq" * 1000) for _ in range(3)]
        a, b = sessions[0], sessions[1]
        # A live channel window: mapped into both endpoints, skipped by I2.
        channel_id = machine.monitor.ecall_channel_create(
            a.cvm.cvm_id, a.layout.dram_base + (32 << 20), 4 * PAGE_SIZE, b.cvm.measurement
        )
        machine.monitor.ecall_channel_connect(
            b.cvm.cvm_id, channel_id, b.layout.dram_base + (32 << 20), a.cvm.measurement
        )
        _corrupt(machine, sessions, rng)
        expected = _reference_placement(machine)
        assert expected  # every seed corrupts at least one placement
        actual = [v for v in check_invariants(machine) if v[:2] in ("I1", "I2", "I4")]
        assert actual == expected
