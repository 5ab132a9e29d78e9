"""End-to-end machine engine tests: guest execution, faults, MMIO, I/O."""

import gc
import weakref

import pytest

from repro import Machine, MachineConfig
from repro.cycles import Category
from repro.hyp.devices import ConsoleDevice
from repro.mem.physmem import PAGE_SIZE


class TestComputeAndTimer:
    def test_compute_charges_cycles(self, machine, cvm_session):
        result = machine.run(cvm_session, lambda ctx: ctx.compute(123_456))
        assert result["breakdown"][Category.COMPUTE] >= 123_456

    def test_timer_ticks_cause_world_switches(self, machine, cvm_session):
        ticks = 3
        cycles = machine.config.timer_tick_cycles * ticks + 1000
        machine.run(cvm_session, lambda ctx: ctx.compute(cycles))
        # Entries: 1 initial + one per tick (leave does an exit too).
        assert cvm_session.cvm.entry_count >= ticks
        assert cvm_session.cvm.exit_count >= ticks

    def test_normal_vm_ticks_do_not_touch_the_sm(self, machine, normal_session):
        cycles = machine.config.timer_tick_cycles * 3
        result = machine.run(normal_session, lambda ctx: ctx.compute(cycles))
        assert Category.SM_LOGIC not in result["breakdown"]
        assert result["breakdown"][Category.HYP_LOGIC] > 0


class TestMemory:
    def test_store_load_roundtrip(self, machine, cvm_session):
        base = cvm_session.layout.dram_base

        def workload(ctx):
            ctx.store(base + 0x123000, 0xFEEDFACE)
            return ctx.load(base + 0x123000)

        result = machine.run(cvm_session, workload)
        assert result["workload_result"] == 0xFEEDFACE

    def test_bulk_bytes_roundtrip(self, machine, cvm_session):
        base = cvm_session.layout.dram_base
        payload = bytes(range(256)) * 64  # 16 KB, crosses pages

        def workload(ctx):
            ctx.write_bytes(base + 0x200F00, payload)  # unaligned start
            return ctx.read_bytes(base + 0x200F00, len(payload))

        result = machine.run(cvm_session, workload)
        assert result["workload_result"] == payload

    def test_faults_resolved_by_sm_without_exit(self, machine, cvm_session):
        """Private-page faults must not bounce through the hypervisor."""
        base = cvm_session.layout.dram_base

        def workload(ctx):
            for i in range(10):
                ctx.store(base + (20 << 20) + i * PAGE_SIZE, i)

        exits_before = cvm_session.cvm.exit_count
        machine.run(cvm_session, workload)
        # Only the final halt exit (plus possibly a timer) -- not 10 faults.
        assert cvm_session.cvm.exit_count - exits_before <= 2

    def test_normal_vm_faults_handled_by_kvm(self, machine, normal_session):
        base = normal_session.layout.dram_base
        machine.run(normal_session, lambda ctx: ctx.store(base + 0x5000, 1))
        assert normal_session.normal_vm.fault_count == 1

    def test_tlb_hit_after_first_touch(self, machine, cvm_session):
        base = cvm_session.layout.dram_base

        def workload(ctx):
            ctx.store(base + 0x300000, 1)
            hits_before = machine.translator.tlb.hits
            ctx.load(base + 0x300000)
            return machine.translator.tlb.hits - hits_before

        result = machine.run(cvm_session, workload)
        assert result["workload_result"] == 1

    def test_image_contents_visible_to_guest(self, machine):
        session = machine.launch_confidential_vm(image=b"BOOTMAGIC" + bytes(7))

        def workload(ctx):
            return ctx.read_bytes(session.layout.dram_base, 9)

        assert machine.run(session, workload)["workload_result"] == b"BOOTMAGIC"


class TestMmio:
    def test_cvm_mmio_store_and_load(self, machine, cvm_session):
        console = ConsoleDevice(0x1000_0000)
        machine.hypervisor.devices.add(console)

        def workload(ctx):
            for byte in b"zion":
                ctx.mmio_write(0x1000_0000 + ConsoleDevice.DATA, byte)
            return ctx.mmio_read(0x1000_0000 + ConsoleDevice.STATUS)

        result = machine.run(cvm_session, workload)
        assert bytes(console.output) == b"zion"
        assert result["workload_result"] == 1

    def test_cvm_mmio_goes_through_world_switch(self, machine, cvm_session):
        machine.hypervisor.devices.add(ConsoleDevice(0x1000_0000))
        exits_before = cvm_session.cvm.exit_count
        machine.run(cvm_session, lambda ctx: ctx.mmio_write(0x1000_0000, 0x41))
        assert cvm_session.cvm.exit_count - exits_before >= 2  # mmio + halt
        assert machine.hypervisor.mmio_exits == 1

    def test_normal_vm_mmio_skips_the_sm(self, machine, normal_session):
        console = ConsoleDevice(0x1000_0000)
        machine.hypervisor.devices.add(console)
        result = machine.run(normal_session, lambda ctx: ctx.mmio_write(0x1000_0000, 0x42))
        assert bytes(console.output) == b"\x42"
        assert Category.SM_LOGIC not in result["breakdown"]

    def test_cvm_mmio_costs_more_than_normal(self):
        def workload(ctx):
            for _ in range(10):
                ctx.mmio_write(0x1000_0000, 1)

        costs = {}
        for kind in ("cvm", "normal"):
            machine = Machine(MachineConfig())
            machine.hypervisor.devices.add(ConsoleDevice(0x1000_0000))
            if kind == "cvm":
                session = machine.launch_confidential_vm(image=b"x")
            else:
                session = machine.launch_normal_vm()
            result = machine.run(session, workload)
            costs[kind] = result["cycles"]
        assert costs["cvm"] > costs["normal"]


class TestSmServices:
    def test_attestation_from_guest(self, machine, cvm_session):
        def workload(ctx):
            return ctx.attestation_report(b"my-nonce")

        report = machine.run(cvm_session, workload)["workload_result"]
        assert machine.monitor.attestation.verify_report(report)
        assert report.report_data == b"my-nonce"

    def test_random_from_guest(self, machine, cvm_session):
        result = machine.run(cvm_session, lambda ctx: ctx.get_random(32))
        assert len(result["workload_result"]) == 32

    def test_sm_services_refused_to_normal_vm(self, machine, normal_session):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            machine.run(normal_session, lambda ctx: ctx.get_random(8))


class TestVirtioEndToEnd:
    def test_cvm_block_io_roundtrip(self, machine):
        session = machine.launch_confidential_vm(image=b"x")
        machine.attach_virtio_block(session)

        def workload(ctx):
            blk = ctx.blk_driver()
            blk.write(0, b"confidential-file" + bytes(512 - 17))
            return blk.read(0, 512)

        result = machine.run(session, workload)
        assert result["workload_result"][:17] == b"confidential-file"

    def test_normal_vm_block_io_roundtrip(self, machine):
        session = machine.launch_normal_vm()
        machine.attach_virtio_block(session)

        def workload(ctx):
            blk = ctx.blk_driver()
            blk.write(8, b"normal-file" + bytes(512 - 11))
            return blk.read(8, 512)

        result = machine.run(session, workload)
        assert result["workload_result"][:11] == b"normal-file"

    def test_cvm_net_echo(self, machine):
        session = machine.launch_confidential_vm(image=b"x")
        net = machine.attach_virtio_net(session)
        net.host_handler = lambda frame, header: [b"echo:" + bytes(frame)]

        def workload(ctx):
            driver = ctx.net_driver()
            driver.post_rx_buffers(4)
            driver.send(b"hello")
            return driver.recv()

        result = machine.run(session, workload)
        assert result["workload_result"] == b"echo:hello"

    def test_block_request_costs_two_exits(self, machine):
        """One kick exit plus one blocking wait for the completion IRQ."""
        session = machine.launch_confidential_vm(image=b"x")
        machine.attach_virtio_block(session)

        def workload(ctx):
            blk = ctx.blk_driver()
            blk.write(0, bytes(512))  # warm up mappings
            exits_before = session.cvm.exit_count
            blk.write(1, bytes(512))
            return session.cvm.exit_count - exits_before

        result = machine.run(session, workload)
        assert result["workload_result"] == 2

    def test_wfi_host_work_cycle(self, machine):
        session = machine.launch_confidential_vm(image=b"x")
        net = machine.attach_virtio_net(session)

        def host_work(machine_, session_):
            net.host_deliver(b"wakeup-frame")
            return True

        session.host_work = host_work

        def workload(ctx):
            driver = ctx.net_driver()
            driver.post_rx_buffers(2)
            frame = driver.recv()
            while frame is None:
                ctx.wfi()
                ctx.deliver_pending_irqs()
                frame = driver.recv()
            return frame

        result = machine.run(session, workload)
        assert result["workload_result"] == b"wakeup-frame"


class TestSessionManagement:
    def test_session_cannot_nest(self, machine, cvm_session):
        from repro.errors import ConfigurationError

        def workload(ctx):
            with pytest.raises(ConfigurationError):
                machine._enter_guest(cvm_session)

        machine.run(cvm_session, workload)

    def test_session_reusable_after_run(self, machine, cvm_session):
        machine.run(cvm_session, lambda ctx: ctx.compute(100))
        result = machine.run(cvm_session, lambda ctx: ctx.compute(100))
        assert result["cycles"] > 0

    def test_run_result_breakdown_covers_total(self, machine, cvm_session):
        result = machine.run(cvm_session, lambda ctx: ctx.compute(5000))
        assert sum(result["breakdown"].values()) == result["cycles"]


def _run_everything_and_drop():
    """Run a CVM and a normal VM, each over virtio-blk, and a channel
    between two more CVMs; drop it all and return a weak reference to
    the machine's DRAM."""
    from repro.workloads.pingpong import pingpong_client, pingpong_server

    machine = Machine(MachineConfig())
    cvm = machine.launch_confidential_vm(image=b"dropped" * 64)
    vm = machine.launch_normal_vm("dropped")
    machine.attach_virtio_block(vm)
    machine.attach_virtio_block(cvm, mmio_base=0x1000_4000, source_id=4)

    def workload(ctx):
        base = ctx.session.layout.dram_base + (4 << 20)
        ctx.store_seq(base, list(range(8)), stride=PAGE_SIZE)
        ctx.load(base + PAGE_SIZE - 4)  # a page-straddling access
        ctx.blk_driver().write(0, b"block" * 100)
        return ctx.blk_driver().read(0, 500)

    for session in (cvm, vm):
        assert machine.run(session, workload)["workload_result"] == b"block" * 100
    server = machine.launch_confidential_vm(image=b"dropped" * 64)
    client = machine.launch_confidential_vm(image=b"dropped" * 64)
    box: dict = {}
    meas = server.cvm.measurement
    results = machine.run_concurrent([
        (server, pingpong_server(rounds=2, expected_peer_measurement=meas, channel_box=box)),
        (client, pingpong_client(box, message_size=64, rounds=2,
                                 expected_creator_measurement=meas)),
    ])
    assert results[client]["rounds"] == 2
    return weakref.ref(machine.dram)


def _run_faulted_and_drop():
    """Run a tolerant channel pair and a page-stress guest under a fault
    injector with one event on each machine seam; drop it all and return
    a weak reference to the machine's DRAM."""
    from repro.faults.campaign import page_stress, tolerant_client, tolerant_server
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultEvent, FaultPlan

    machine = Machine(MachineConfig(initial_pool_bytes=2 << 20, timer_tick_cycles=50_000))
    machine.hypervisor.expand_chunk = 1 << 20
    server, client, stress = (
        machine.launch_confidential_vm(image=b"faulted" * 64) for _ in range(3)
    )
    box: dict = {}
    meas = server.cvm.measurement
    plan = FaultPlan(-1, (
        FaultEvent("vcpu_corrupt", 1, ("htval", 0xDEAD)),
        FaultEvent("doorbell_dup", 1),
        FaultEvent("expand_short", 1),
        FaultEvent("timer_spurious", 2),
    ))
    with FaultInjector(machine, plan) as injector:
        machine.run_concurrent([
            (server, tolerant_server(meas, 3, box)),
            (client, tolerant_client(box, meas, 3)),
            (stress, page_stress(pages=600)),
        ], on_error="contain")
    assert len(injector.applied) == len(plan)
    return weakref.ref(machine.dram)


class TestTeardown:
    def test_a_dropped_machine_frees_its_dram(self):
        """Reference counting alone frees a dropped machine's DRAM: no
        reference cycle holds it until the cycle collector runs."""
        gc.collect()
        gc.disable()
        try:
            dram = _run_everything_and_drop()
            assert dram() is None
        finally:
            gc.enable()

    def test_a_dropped_machine_frees_its_dram_after_fault_injection(self):
        """A detached fault injector leaves nothing behind that holds the
        machine: its DRAM is freed by reference counting alone."""
        gc.collect()
        gc.disable()
        try:
            dram = _run_faulted_and_drop()
            assert dram() is None
        finally:
            gc.enable()
