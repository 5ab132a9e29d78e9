"""Secure/shared vCPU structures and Check-after-Load (paper IV-B)."""

import pytest

from repro.cycles import CycleLedger, DEFAULT_COSTS
from repro.errors import SecurityViolation
from repro.isa.hart import Hart
from repro.mem.physmem import MemoryBus, PhysicalMemory
from repro.sm.vcpu import (
    GUEST_CSRS,
    SHARED_VCPU_FIELDS,
    CheckAfterLoad,
    SecureVcpu,
    SharedVcpu,
    VcpuState,
)

BASE = 0x8000_0000


@pytest.fixture
def bus():
    return MemoryBus(PhysicalMemory(BASE, 1 << 20))


@pytest.fixture
def shared(bus):
    return SharedVcpu(BASE + 0x1000, bus)


@pytest.fixture
def checker():
    return CheckAfterLoad(CycleLedger(), DEFAULT_COSTS)


class TestSecureVcpu:
    def test_initial_state(self):
        vcpu = SecureVcpu(0)
        assert vcpu.state is VcpuState.READY
        assert vcpu.pc == 0
        assert set(vcpu.csrs) == set(GUEST_CSRS)

    def test_save_restore_roundtrip(self):
        hart = Hart(0)
        hart.write_gpr("a0", 123)
        hart.csrs.write_raw("vsepc", 0x8000_4000)
        vcpu = SecureVcpu(0)
        vcpu.save_from(hart)
        hart.write_gpr("a0", 0)
        hart.csrs.write_raw("vsepc", 0)
        vcpu.restore_to(hart)
        assert hart.read_gpr("a0") == 123
        assert hart.csrs.read_raw("vsepc") == 0x8000_4000


class TestSharedVcpu:
    def test_sm_write_hyp_read(self, shared):
        hart = Hart(0)  # M mode: passes the empty PMP
        shared.sm_write("htval", 0xDEAD)
        assert shared.hyp_read(hart, "htval") == 0xDEAD

    def test_field_layout_is_disjoint(self, shared):
        hart = Hart(0)  # M mode: passes the empty PMP
        for i, field in enumerate(SHARED_VCPU_FIELDS):
            shared.sm_write(field, i + 1)
        for i, field in enumerate(SHARED_VCPU_FIELDS):
            assert shared.hyp_read(hart, field) == i + 1

    def test_backed_by_real_memory(self, shared, bus):
        shared.sm_write("exit_cause", 21)
        raw = bus.dram.read_u64(BASE + 0x1000 + 8 * SHARED_VCPU_FIELDS["exit_cause"])
        assert raw == 21


class TestCheckAfterLoad:
    def _mmio_load_context(self, vcpu):
        vcpu.exit_context = {"kind": "mmio_load", "gpr_index": 10}

    def test_valid_mmio_load_reply(self, shared, checker):
        vcpu = SecureVcpu(0)
        self._mmio_load_context(vcpu)
        shared.sm_write("gpr_index", 10)
        shared.sm_write("gpr_value", 0x42)
        shared.sm_write("sepc_advance", 4)
        reply = checker.validate_reply(vcpu, shared)
        assert reply["gpr_value"] == 0x42
        assert reply["sepc_advance"] == 4

    def test_redirected_gpr_rejected(self, shared, checker):
        """TOCTOU: the hypervisor must not retarget the load result."""
        vcpu = SecureVcpu(0)
        self._mmio_load_context(vcpu)
        shared.sm_write("gpr_index", 2)  # sp! a classic hijack target
        shared.sm_write("gpr_value", 0x41414141)
        shared.sm_write("sepc_advance", 4)
        with pytest.raises(SecurityViolation):
            checker.validate_reply(vcpu, shared)

    def test_gpr_result_on_non_mmio_exit_rejected(self, shared, checker):
        vcpu = SecureVcpu(0)
        vcpu.exit_context = {"kind": "timer"}
        shared.sm_write("gpr_value", 0x1337)
        with pytest.raises(SecurityViolation):
            checker.validate_reply(vcpu, shared)

    def test_bad_sepc_advance_rejected(self, shared, checker):
        vcpu = SecureVcpu(0)
        self._mmio_load_context(vcpu)
        shared.sm_write("gpr_index", 10)
        shared.sm_write("sepc_advance", 8)  # would skip an extra instruction
        with pytest.raises(SecurityViolation):
            checker.validate_reply(vcpu, shared)

    def test_sepc_advance_on_non_mmio_rejected(self, shared, checker):
        vcpu = SecureVcpu(0)
        vcpu.exit_context = {"kind": "wfi"}
        shared.sm_write("sepc_advance", 4)
        with pytest.raises(SecurityViolation):
            checker.validate_reply(vcpu, shared)

    def test_mmio_store_accepts_advance_only(self, shared, checker):
        vcpu = SecureVcpu(0)
        vcpu.exit_context = {"kind": "mmio_store"}
        shared.sm_write("sepc_advance", 2)  # compressed store
        reply = checker.validate_reply(vcpu, shared)
        assert reply["sepc_advance"] == 2

    def test_vs_interrupt_injection_allowed(self, shared, checker):
        vcpu = SecureVcpu(0)
        vcpu.exit_context = {"kind": "wfi"}
        shared.sm_write("pending_irq", 1 << 10)  # VSEI
        reply = checker.validate_reply(vcpu, shared)
        assert reply["pending_irq"] == 1 << 10

    def test_machine_interrupt_injection_rejected(self, shared, checker):
        vcpu = SecureVcpu(0)
        vcpu.exit_context = {"kind": "wfi"}
        shared.sm_write("pending_irq", 1 << 7)  # MTI: never injectable
        with pytest.raises(SecurityViolation):
            checker.validate_reply(vcpu, shared)

    def test_supervisor_interrupt_injection_rejected(self, shared, checker):
        vcpu = SecureVcpu(0)
        vcpu.exit_context = {"kind": "wfi"}
        shared.sm_write("pending_irq", 1 << 9)  # SEI (host's own level)
        with pytest.raises(SecurityViolation):
            checker.validate_reply(vcpu, shared)

    def test_validation_charges_cycles(self, shared):
        ledger = CycleLedger()
        checker = CheckAfterLoad(ledger, DEFAULT_COSTS)
        vcpu = SecureVcpu(0)
        vcpu.exit_context = {"kind": "timer"}
        checker.validate_reply(vcpu, shared)
        assert ledger.total >= 4 * DEFAULT_COSTS.validate_field
