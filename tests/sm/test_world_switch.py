"""World switching: short path, shared vCPU, and the baselines."""

import pytest

from repro import Machine, MachineConfig
from repro.isa.privilege import PrivilegeMode
from repro.isa.traps import ExceptionCause
from repro.sm.vcpu import VcpuState


def _launch(machine):
    session = machine.launch_confidential_vm(image=b"w" * 4096)
    return session, session.cvm, session.cvm.vcpu(0)


@pytest.fixture
def env(machine):
    session, cvm, vcpu = _launch(machine)
    return machine, session, cvm, vcpu


class TestShortPath:
    def test_enter_switches_hart_to_vs(self, env):
        machine, session, cvm, vcpu = env
        machine.monitor.world_switch.enter_cvm(machine.hart, cvm, vcpu)
        assert machine.hart.mode is PrivilegeMode.VS
        assert vcpu.state is VcpuState.RUNNING

    def test_enter_opens_pool_exit_closes_it(self, env):
        machine, session, cvm, vcpu = env
        ws = machine.monitor.world_switch
        ws.enter_cvm(machine.hart, cvm, vcpu)
        assert machine.pmp_controller.pool_is_open(machine.hart)
        ws.exit_to_normal(machine.hart, cvm, vcpu, {"kind": "timer", "cause": 7})
        assert not machine.pmp_controller.pool_is_open(machine.hart)
        assert machine.hart.mode is PrivilegeMode.HS

    def test_enter_applies_cvm_delegation(self, env):
        machine, session, cvm, vcpu = env
        machine.monitor.world_switch.enter_cvm(machine.hart, cvm, vcpu)
        assert ExceptionCause.LOAD_GUEST_PAGE_FAULT not in machine.hart.medeleg

    def test_exit_applies_normal_delegation(self, env):
        machine, session, cvm, vcpu = env
        ws = machine.monitor.world_switch
        ws.enter_cvm(machine.hart, cvm, vcpu)
        ws.exit_to_normal(machine.hart, cvm, vcpu, {"kind": "timer", "cause": 7})
        assert ExceptionCause.LOAD_GUEST_PAGE_FAULT in machine.hart.medeleg

    def test_exit_flushes_guest_tlb(self, env):
        machine, session, cvm, vcpu = env
        machine.translator.tlb.insert(cvm.vmid, 0x80000, 0x90000, 0b111)
        machine.monitor.world_switch.exit_to_normal(
            machine.hart, cvm, vcpu, {"kind": "timer", "cause": 7}
        )
        assert machine.translator.tlb.lookup(cvm.vmid, 0x80000) is None

    def test_guest_registers_survive_round_trip(self, env):
        machine, session, cvm, vcpu = env
        ws = machine.monitor.world_switch
        ws.enter_cvm(machine.hart, cvm, vcpu)
        machine.hart.write_gpr("s3", 0x5150)
        machine.hart.csrs.write_raw("vsepc", 0x8000_2000)
        ws.exit_to_normal(machine.hart, cvm, vcpu, {"kind": "timer", "cause": 7})
        # The hypervisor trashes the hart registers while it runs.
        machine.hart.write_gpr("s3", 0)
        machine.hart.csrs.write_raw("vsepc", 0)
        ws.enter_cvm(machine.hart, cvm, vcpu)
        assert machine.hart.read_gpr("s3") == 0x5150
        assert machine.hart.csrs.read_raw("vsepc") == 0x8000_2000

    def test_exit_counts_tracked(self, env):
        machine, session, cvm, vcpu = env
        ws = machine.monitor.world_switch
        ws.enter_cvm(machine.hart, cvm, vcpu)
        ws.exit_to_normal(machine.hart, cvm, vcpu, {"kind": "timer", "cause": 7})
        assert cvm.entry_count == 1
        assert cvm.exit_count == 1


class TestCycleShape:
    """The relative cost relations the paper's section V-B establishes."""

    @staticmethod
    def _measure(machine, kind):
        session, cvm, vcpu = _launch(machine)
        ws = machine.monitor.world_switch
        exit_info = (
            {"kind": "mmio_load", "cause": 21, "htval": 0x1000_0000,
             "htinst": 0x503, "gpr_index": 10, "gpr_value": 0}
            if kind == "mmio"
            else {"kind": "timer", "cause": 7}
        )
        ws.enter_cvm(machine.hart, cvm, vcpu)
        with machine.ledger.span() as exit_span:
            ws.exit_to_normal(machine.hart, cvm, vcpu, exit_info)
        if kind == "mmio":
            shared = cvm.shared_vcpus[0]
            shared.hyp_write(machine.hart, "gpr_index", 10)
            shared.hyp_write(machine.hart, "sepc_advance", 4)
        with machine.ledger.span() as enter_span:
            ws.enter_cvm(machine.hart, cvm, vcpu)
        return exit_span.cycles, enter_span.cycles

    def test_shared_vcpu_faster_than_full_marshalling(self):
        fast = Machine(MachineConfig(use_shared_vcpu=True))
        slow = Machine(MachineConfig(use_shared_vcpu=False))
        fast_exit, fast_enter = self._measure(fast, "mmio")
        slow_exit, slow_enter = self._measure(slow, "mmio")
        assert fast_exit < slow_exit
        assert fast_enter < slow_enter

    def test_short_path_faster_than_long_path(self):
        short = Machine(MachineConfig(long_path=False))
        long = Machine(MachineConfig(long_path=True))
        short_exit, short_enter = self._measure(short, "timer")
        long_exit, long_enter = self._measure(long, "timer")
        assert short_exit < long_exit
        assert short_enter < long_enter

    def test_timer_exit_cheaper_than_mmio_exit(self, machine):
        mmio_exit, _ = self._measure(machine, "mmio")
        timer_exit, _ = self._measure(machine, "timer")
        assert timer_exit < mmio_exit


class TestReplyApplication:
    def test_mmio_load_result_lands_in_vcpu_gpr(self, env):
        machine, session, cvm, vcpu = env
        ws = machine.monitor.world_switch
        ws.enter_cvm(machine.hart, cvm, vcpu)
        ws.exit_to_normal(
            machine.hart, cvm, vcpu,
            {"kind": "mmio_load", "cause": 21, "htval": 0x1000_0000,
             "htinst": 0x503, "gpr_index": 10, "gpr_value": 0},
        )
        shared = cvm.shared_vcpus[0]
        shared.hyp_write(machine.hart, "gpr_index", 10)
        shared.hyp_write(machine.hart, "gpr_value", 0xCAFE)
        shared.hyp_write(machine.hart, "sepc_advance", 4)
        old_pc = vcpu.pc
        reply = ws.enter_cvm(machine.hart, cvm, vcpu)
        assert reply["gpr_value"] == 0xCAFE
        assert vcpu.gprs["a0"] == 0xCAFE
        assert vcpu.pc == old_pc + 4

    def test_sepc_advance_wraps_the_pc_at_64_bits(self, env):
        """The advanced pc is masked where it is written: the secure vCPU
        holds only 64-bit words, and entry installs them as they are."""
        machine, session, cvm, vcpu = env
        ws = machine.monitor.world_switch
        ws.enter_cvm(machine.hart, cvm, vcpu)
        ws.exit_to_normal(
            machine.hart, cvm, vcpu,
            {"kind": "mmio_store", "cause": 23, "htval": 0x1000_0000,
             "htinst": 0x503, "gpr_index": 0, "gpr_value": 7},
        )
        vcpu.pc = (1 << 64) - 2
        cvm.shared_vcpus[0].hyp_write(machine.hart, "sepc_advance", 4)
        ws.enter_cvm(machine.hart, cvm, vcpu)
        assert vcpu.pc == vcpu.csrs["sepc"] == 2
        assert machine.hart.csrs.read_raw("sepc") == 2

    def test_irq_injection_lands_in_hvip(self, env):
        machine, session, cvm, vcpu = env
        ws = machine.monitor.world_switch
        ws.enter_cvm(machine.hart, cvm, vcpu)
        ws.exit_to_normal(machine.hart, cvm, vcpu, {"kind": "wfi", "cause": 0})
        cvm.shared_vcpus[0].hyp_write(machine.hart, "pending_irq", 1 << 10)
        ws.enter_cvm(machine.hart, cvm, vcpu)
        assert vcpu.csrs["hvip"] & (1 << 10)

    def test_stale_reply_fields_cleared_between_exits(self, env):
        """An MMIO reply must not echo into a later wfi exit (TOCTOU)."""
        machine, session, cvm, vcpu = env
        ws = machine.monitor.world_switch
        ws.enter_cvm(machine.hart, cvm, vcpu)
        ws.exit_to_normal(
            machine.hart, cvm, vcpu,
            {"kind": "mmio_load", "cause": 21, "htval": 0x1000_0000,
             "htinst": 0x503, "gpr_index": 10, "gpr_value": 0},
        )
        shared = cvm.shared_vcpus[0]
        shared.hyp_write(machine.hart, "gpr_index", 10)
        shared.hyp_write(machine.hart, "gpr_value", 0xBAD)
        shared.hyp_write(machine.hart, "sepc_advance", 4)
        ws.enter_cvm(machine.hart, cvm, vcpu)
        # Next exit is a plain wfi; the SM must have scrubbed the slots.
        ws.exit_to_normal(machine.hart, cvm, vcpu, {"kind": "wfi", "cause": 0})
        reply = ws.enter_cvm(machine.hart, cvm, vcpu)
        assert "gpr_value" not in reply
