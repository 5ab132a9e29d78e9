"""Event tracer: recording at the charge points, ordering, queries, detach."""

import ast
import collections
import inspect
import textwrap

import pytest

from repro import Machine, MachineConfig
from repro.errors import ConfigurationError
from repro.sm.alloc import AllocStage
from repro.sm.monitor import SecureMonitor
from repro.trace import Tracer
from repro.workloads.memstress import sequential_write_stress
from repro.workloads.pingpong import pingpong_client, pingpong_server


@pytest.fixture
def traced(machine):
    session = machine.launch_confidential_vm(image=b"traced" * 100)
    tracer = Tracer(machine)
    return machine, session, tracer


def _pingpong(machine, rounds: int):
    """Two CVMs ping-ponging ``rounds`` messages over a channel."""
    server = machine.launch_confidential_vm(image=b"ping" * 100)
    client = machine.launch_confidential_vm(image=b"ping" * 100)
    box: dict = {}
    measurement = server.cvm.measurement
    machine.run_concurrent([
        (server, pingpong_server(rounds=rounds, expected_peer_measurement=measurement,
                                 channel_box=box)),
        (client, pingpong_client(box, rounds=rounds,
                                 expected_creator_measurement=measurement)),
    ])
    return server, client


def _switches_by_vcpu(tracer) -> dict:
    """Each ``(cvm, vcpu)``'s world-switch events, in order."""
    switches = collections.defaultdict(list)
    for event in tracer.events:
        if event.kind in ("cvm_enter", "cvm_exit"):
            switches[event.detail["cvm"], event.detail["vcpu"]].append(event)
    return switches


def _assert_alternation(tracer, vcpus: int) -> None:
    """Every traced vCPU enters first, then strictly alternates."""
    switches = _switches_by_vcpu(tracer)
    assert len(switches) == vcpus
    for events in switches.values():
        kinds = [event.kind for event in events]
        assert kinds[::2] == ["cvm_enter"] * len(kinds[::2])
        assert kinds[1::2] == ["cvm_exit"] * len(kinds[1::2])
        # Each run ends with the vCPU's halt.
        assert kinds[-1] == "cvm_exit"


def test_records_world_switches_in_order(traced):
    machine, session, tracer = traced
    machine.run(session, lambda ctx: ctx.compute(2_500_000))
    assert len(tracer.of_kind("cvm_exit")) > 2  # timer ticks and the halt
    _assert_alternation(tracer, vcpus=1)

    machine = Machine(MachineConfig())
    tracer = Tracer(machine)
    _pingpong(machine, rounds=8)
    _assert_alternation(tracer, vcpus=2)


def test_exit_detail_carries_reason(traced):
    machine, session, tracer = traced
    machine.run(session, lambda ctx: ctx.compute(1_500_000))
    reasons = {event.detail["reason"] for event in tracer.of_kind("cvm_exit")}
    assert "timer" in reasons
    assert "halt" in reasons


def test_fault_events_with_stage(traced):
    machine, session, tracer = traced
    base = session.layout.dram_base + (8 << 20)
    machine.run(session, lambda ctx: ctx.store(base, 1))
    faults = tracer.of_kind("fault")
    assert faults
    assert faults[0].detail["path"] == "sm"
    assert faults[0].detail["stage"] in ("PAGE_CACHE", "NEW_BLOCK")
    assert faults[0].detail["cycles"] > 0


def test_ecall_events_name_the_function(machine):
    tracer = Tracer(machine)
    machine.monitor.ecall_create_cvm()
    functions = [event.detail["function"] for event in tracer.of_kind("ecall")]
    assert "ecall_create_cvm" in functions


def test_every_ecall_passes_its_own_name():
    """Each ``ecall_*`` method charges exactly once, under its own name."""
    ecalls = {
        name: method for name, method in inspect.getmembers(SecureMonitor, inspect.isfunction)
        if name.startswith("ecall_")
    }
    assert len(ecalls) == 20
    for name, method in ecalls.items():
        tree = ast.parse(textwrap.dedent(inspect.getsource(method)))
        charges = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_charge_ecall"
        ]
        assert len(charges) == 1, name
        (charge,) = charges
        assert not charge.keywords, name
        assert [ast.literal_eval(arg) for arg in charge.args] == [name]


def test_timestamps_monotonic(traced):
    machine, session, tracer = traced
    machine.run(session, lambda ctx: ctx.compute(2_000_000))
    cycles = [event.cycle for event in tracer.events]
    assert cycles == sorted(cycles)


def test_exit_latencies_measurable(traced):
    machine, session, tracer = traced
    machine.run(session, lambda ctx: ctx.compute(2_500_000))
    latencies = tracer.exit_latencies()
    assert latencies
    # A timer-exit -> re-enter round trip is several thousand cycles.
    assert all(2_000 < latency < 60_000 for latency in latencies)


def test_exit_latencies_pair_each_vcpu_with_its_own_entry(machine):
    """With two CVMs taking turns, an exit pairs with the same vCPU's
    next entry, not with whichever CVM enters next."""
    tracer = Tracer(machine)
    _pingpong(machine, rounds=8)
    expected = []
    for events in _switches_by_vcpu(tracer).values():
        # Alternating enter/exit: each exit but the last has a re-entry.
        expected += [
            enter.cycle - exit_.cycle for exit_, enter in zip(events[1::2], events[2::2])
        ]
    latencies = tracer.exit_latencies()
    # Nine entries per CVM: eight re-entries each.
    assert len(latencies) == len(expected) == 16
    assert sorted(latencies) == sorted(expected)


def test_detach_stops_recording(traced):
    machine, session, tracer = traced
    machine.run(session, lambda ctx: ctx.compute(100))
    count = len(tracer.events)
    tracer.detach()
    assert machine.ledger.events is None
    machine.run(session, lambda ctx: ctx.compute(100))
    assert len(tracer.events) == count


def test_context_manager_detaches(machine):
    session = machine.launch_confidential_vm(image=b"x")
    with Tracer(machine) as tracer:
        machine.run(session, lambda ctx: ctx.compute(50))
        inside = len(tracer.events)
        assert inside > 0
    machine.run(session, lambda ctx: ctx.compute(50))
    assert len(tracer.events) == inside


def test_limit_bounds_memory(machine):
    session = machine.launch_confidential_vm(image=b"x")
    tracer = Tracer(machine, limit=3)
    machine.run(session, lambda ctx: ctx.compute(5_000_000))
    assert len(tracer.events) == 3


def test_timeline_renders(traced):
    machine, session, tracer = traced
    machine.run(session, lambda ctx: ctx.compute(100))
    text = tracer.timeline()
    assert "cvm_enter" in text


def test_second_sink_is_refused(machine):
    """A machine has one event sink; a detached one frees the slot."""
    tracer = Tracer(machine)
    with pytest.raises(ConfigurationError):
        Tracer(machine)
    assert machine.ledger.events is tracer
    tracer.detach()
    successor = Tracer(machine)
    tracer.detach()  # a stale detach leaves the successor attached
    assert machine.ledger.events is successor


def test_ecall_hook_names_nested_callers(machine):
    """An ECALL reached through a deep guest call chain (sbi dispatch ->
    monitor method) is named after the ``ecall_*`` method that took it."""
    tracer = Tracer(machine)
    session = machine.launch_confidential_vm(image=b"deep" * 100)
    machine.run(session, lambda ctx: ctx.sbi_ecall(0x5A4E_0002, 2, 8))
    functions = [event.detail["function"] for event in tracer.of_kind("ecall")]
    assert "ecall_get_random" in functions
    assert all(func.startswith("ecall_") for func in functions)


def test_dropped_counter_and_timeline_note(machine):
    session = machine.launch_confidential_vm(image=b"x")
    tracer = Tracer(machine, limit=3)
    machine.run(session, lambda ctx: ctx.compute(5_000_000))
    assert len(tracer.events) == 3
    assert tracer.dropped > 0
    assert f"{tracer.dropped} events dropped" in tracer.timeline()


def test_nothing_dropped_reports_clean_timeline(traced):
    machine, session, tracer = traced
    machine.run(session, lambda ctx: ctx.compute(100))
    assert tracer.dropped == 0
    assert "dropped" not in tracer.timeline()


# ---------------------------------------------------------------------------
# Tracing changes nothing the machine computes
# ---------------------------------------------------------------------------


def _mixed_run(traced: bool):
    """Virtio I/O and first touches through all three allocation stages in
    one CVM, a channel ping-pong between two more, and a normal VM's KVM
    faults, on a machine whose small pool has to grow."""
    machine = Machine(MachineConfig(initial_pool_bytes=2 << 20))
    tracer = Tracer(machine) if traced else None
    cvm = machine.launch_confidential_vm(image=b"mixed" * 100)
    machine.attach_virtio_block(cvm)
    stress = sequential_write_stress(512)

    def io_and_first_touches(ctx):
        driver = ctx.blk_driver()
        driver.write(0, b"mixed" * 200)
        data = driver.read(0, 1000)
        stress(ctx)
        return data

    data = machine.run(cvm, io_and_first_touches)["workload_result"]
    assert data == b"mixed" * 200
    sessions = [cvm, *_pingpong(machine, rounds=4)]
    normal = machine.launch_normal_vm("mixed")
    machine.run(normal, sequential_write_stress(32))
    return machine, sessions, normal, tracer


def _state(machine, sessions, normal) -> dict:
    tlb = machine.translator.tlb
    return {
        "total": machine.ledger.total,
        "by_category": machine.ledger.by_category(),
        "tlb": (tlb.hits, tlb.misses, tlb.generation, tlb.flushes, tlb.page_flushes),
        "fault_stages": dict(machine.monitor.fault_stage_counts),
        "exit_reasons": [dict(session.cvm.exit_reasons) for session in sessions],
        "kvm_faults": normal.normal_vm.fault_count,
    }


def test_tracing_changes_nothing_the_machine_computes():
    plain = _state(*_mixed_run(traced=False)[:3])
    machine, sessions, normal, tracer = _mixed_run(traced=True)
    assert _state(machine, sessions, normal) == plain
    assert tracer.dropped == 0

    # Every switch, fault and ECALL the machine counted was recorded.
    cvms = [session.cvm for session in sessions]
    exits = tracer.of_kind("cvm_exit")
    assert len(exits) == sum(cvm.exit_count for cvm in cvms)
    assert len(tracer.of_kind("cvm_enter")) == sum(cvm.entry_count for cvm in cvms)
    for cvm in cvms:
        reasons = collections.Counter(
            event.detail["reason"] for event in exits if event.detail["cvm"] == cvm.cvm_id
        )
        assert reasons == cvm.exit_reasons
    assert "mmio_store" in cvms[0].exit_reasons

    faults = tracer.of_kind("fault")
    sm_stages = collections.Counter(
        event.detail["stage"] for event in faults if event.detail["path"] == "sm"
    )
    assert sm_stages == {stage.name: count for stage, count in plain["fault_stages"].items()}
    assert set(sm_stages) == {stage.name for stage in AllocStage}
    kvm = [event for event in faults if event.detail["path"] == "kvm"]
    assert len(kvm) == plain["kvm_faults"] == 32
    assert all(event.detail["stage"] is None for event in kvm)

    functions = {event.detail["function"] for event in tracer.of_kind("ecall")}
    assert {"ecall_channel_create", "ecall_channel_connect", "ecall_channel_notify",
            "ecall_channel_close", "ecall_create_cvm", "ecall_finalize"} <= functions

    # Every exit but a halt is answered by an entry that carries the
    # hypervisor's reply.
    replies = sum(cvm.exit_count - cvm.exit_reasons.get("halt", 0) for cvm in cvms)
    assert len(tracer.of_kind("cvm_reply")) == replies > 0
    # The SM's two upcalls, each recorded once per call the host served.
    channels = machine.monitor.channels.channels.values()
    doorbells = sum(channel.notify_count for channel in channels)
    assert len(tracer.of_kind("doorbell")) == doorbells == machine.hypervisor.doorbell_wakeups > 0
    assert len(tracer.of_kind("pool_expand")) == machine.hypervisor.pool_expansions > 0
    assert {event.kind for event in tracer.events} == {
        "cvm_enter", "cvm_exit", "cvm_reply", "fault", "ecall", "doorbell", "pool_expand",
    }
