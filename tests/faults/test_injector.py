"""Forced single-fault injections: every class must be contained."""

import pytest

from repro.errors import ConfigurationError, SecurityViolation
from repro.faults.campaign import page_stress, tolerant_client, tolerant_server
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.machine import Machine, MachineConfig
from repro.sm.alloc import PoolExhausted
from repro.trace import Tracer

IMAGE = b"forced-fault-guest" * 60


def _small_machine(**overrides):
    machine = Machine(MachineConfig(initial_pool_bytes=2 << 20, **overrides))
    machine.hypervisor.expand_chunk = 1 << 20
    return machine


def _run_pair_with_plan(plan, rounds=3):
    """Tolerant server/client ping-pong under a forced plan.

    The short timer tick makes timer exit/entry cycles (the enter seam
    with a pending exit context) happen early even in a light workload.
    """
    machine = _small_machine(timer_tick_cycles=50_000)
    server = machine.launch_confidential_vm(image=IMAGE)
    client = machine.launch_confidential_vm(image=IMAGE)
    measurement = server.cvm.measurement
    box = {}
    pairs = [
        (server, tolerant_server(measurement, rounds, box)),
        (client, tolerant_client(box, measurement, rounds)),
    ]
    with FaultInjector(machine, plan) as injector:
        results = machine.run_concurrent(pairs, on_error="contain")
    return injector, results, server, client


def _sites(injector):
    return [entry["site"] for entry in injector.applied]


class TestChannelFaults:
    def test_poisoned_length_prefix_is_detected(self):
        # Occurrence 1 of the notify seam is the client's first send
        # doorbell: its message sits queued in ring 1 (client tx), so the
        # poison lands on a live prefix the server reads next.
        plan = FaultPlan.single("window_length", at=1, params=(1,))
        injector, results, server, _client = _run_pair_with_plan(plan)
        assert _sites(injector) == ["window_length"]
        assert results[server] == {"echoed": 0, "corrupt_detected": True}
        assert injector.violations == []

    def test_torn_ring_counter_is_detected(self):
        plan = FaultPlan.single("ring_tear", at=1, params=(1, 1 << 20))
        injector, results, server, _client = _run_pair_with_plan(plan)
        assert _sites(injector) == ["ring_tear"]
        assert results[server]["corrupt_detected"] is True
        assert injector.violations == []

    def test_dropped_doorbell_does_not_wedge_tolerant_guests(self):
        plan = FaultPlan.single("doorbell_drop", at=1)
        injector, results, server, client = _run_pair_with_plan(plan)
        assert _sites(injector) == ["doorbell_drop"]
        assert results[client]["rounds"] == 3
        assert results[server]["echoed"] == 3
        assert injector.violations == []

    def test_duplicated_doorbell_is_harmless(self):
        plan = FaultPlan.single("doorbell_dup", at=1)
        injector, results, server, client = _run_pair_with_plan(plan)
        assert _sites(injector) == ["doorbell_dup"]
        assert results[client]["rounds"] == 3
        assert results[server]["echoed"] == 3
        assert injector.violations == []


class TestVcpuCorruption:
    def test_corrupt_gpr_reply_is_refused_by_check_after_load(self):
        # A GPR result on a non-MMIO exit is exactly what Check-after-Load
        # exists to catch; the refusal must surface as a typed violation.
        plan = FaultPlan.single("vcpu_corrupt", at=1,
                                params=("gpr_value", 0xDEAD))
        injector, results, _server, _client = _run_pair_with_plan(plan)
        assert _sites(injector) == ["vcpu_corrupt"]
        refusals = [r for r in results.values()
                    if isinstance(r, SecurityViolation)]
        assert len(refusals) == 1
        assert "check-after-load" in str(refusals[0])
        assert injector.violations == []


class TestExpansionFaults:
    def test_single_failed_expansion_absorbed_by_monitor_retry(self):
        machine = _small_machine()
        stress = machine.launch_confidential_vm(image=IMAGE)
        plan = FaultPlan.single("expand_fail", at=1)
        with FaultInjector(machine, plan) as injector:
            results = machine.run_concurrent(
                [(stress, page_stress(pages=600))], on_error="contain"
            )
        assert _sites(injector) == ["expand_fail"]
        assert results[stress] == {"touched": 600}
        assert injector.violations == []

    def test_persistent_expansion_failure_is_typed_exhaustion(self):
        machine = _small_machine()
        stress = machine.launch_confidential_vm(image=IMAGE)
        plan = FaultPlan(-1, tuple(
            FaultEvent("expand_fail", at) for at in (1, 2, 3)
        ))
        with FaultInjector(machine, plan) as injector:
            results = machine.run_concurrent(
                [(stress, page_stress(pages=600))], on_error="contain"
            )
        assert isinstance(results[stress], PoolExhausted)
        assert "expand" in str(results[stress])
        assert injector.violations == []

    def test_short_donation_is_absorbed(self):
        machine = _small_machine()
        stress = machine.launch_confidential_vm(image=IMAGE)
        plan = FaultPlan.single("expand_short", at=1)
        with FaultInjector(machine, plan) as injector:
            results = machine.run_concurrent(
                [(stress, page_stress(pages=600))], on_error="contain"
            )
        assert _sites(injector) == ["expand_short"]
        assert results[stress] == {"touched": 600}
        assert injector.violations == []


class TestTimerFaults:
    def test_spurious_timer_cycle_preserves_progress(self):
        plan = FaultPlan.single("timer_spurious", at=2)
        injector, results, server, client = _run_pair_with_plan(plan)
        assert _sites(injector) == ["timer_spurious"]
        assert results[client]["rounds"] == 3
        assert results[server]["echoed"] == 3
        assert injector.violations == []


class TestLifecycle:
    def test_detach_clears_the_sink_for_a_tracer(self):
        machine = Machine(MachineConfig())
        with FaultInjector(machine, FaultPlan.single("doorbell_drop")) as injector:
            assert machine.ledger.events is injector
        assert machine.ledger.events is None
        with Tracer(machine) as tracer:
            assert machine.ledger.events is tracer
        assert machine.ledger.events is None

    def test_one_sink_at_a_time(self):
        machine = Machine(MachineConfig())
        plan = FaultPlan.single("doorbell_drop")
        with FaultInjector(machine, plan) as injector:
            with pytest.raises(ConfigurationError):
                Tracer(machine)
            assert machine.ledger.events is injector
        with Tracer(machine) as tracer:
            with pytest.raises(ConfigurationError):
                FaultInjector(machine, plan)
            assert machine.ledger.events is tracer

    def test_unknown_site_is_rejected_at_plan_time(self):
        from repro.faults.plan import _draw_event
        import random

        with pytest.raises(ValueError):
            _draw_event(random.Random(0), "bogus_site")
