"""mstatus field encoding and the mret-target invariant."""

import pytest

from repro.isa import status
from repro.isa.privilege import PrivilegeMode


class TestFieldEncoding:
    def test_mpp_roundtrip(self):
        for level in (0, 1, 3):
            assert status.mpp_of(status.with_mpp(0, level)) == level

    def test_with_mpp_preserves_other_bits(self):
        base = status.MSTATUS_MIE | status.MSTATUS_MPV
        updated = status.with_mpp(base, 1)
        assert updated & status.MSTATUS_MIE
        assert updated & status.MSTATUS_MPV

    @pytest.mark.parametrize(
        "mode,expected_level,expected_mpv",
        [
            (PrivilegeMode.VS, 1, True),
            (PrivilegeMode.VU, 0, True),
            (PrivilegeMode.HS, 1, False),
            (PrivilegeMode.U, 0, False),
        ],
    )
    def test_trap_entry_records_mode(self, mode, expected_level, expected_mpv):
        mstatus = status.encode_trap_entry(status.MSTATUS_MIE, mode)
        assert status.mpp_of(mstatus) == expected_level
        assert bool(mstatus & status.MSTATUS_MPV) == expected_mpv

    def test_trap_entry_stacks_interrupt_enable(self):
        mstatus = status.encode_trap_entry(status.MSTATUS_MIE, PrivilegeMode.HS)
        assert not mstatus & status.MSTATUS_MIE  # disabled in the handler
        assert mstatus & status.MSTATUS_MPIE  # old MIE saved
        restored = status.encode_mret(mstatus)
        assert restored & status.MSTATUS_MIE  # popped back

    def test_mret_clears_mpp_and_mpv(self):
        mstatus = status.with_mpp(status.MSTATUS_MPV, 1)
        after = status.encode_mret(mstatus)
        assert status.mpp_of(after) == 0
        assert not after & status.MSTATUS_MPV


class TestMretTarget:
    @pytest.mark.parametrize(
        "level,mpv,expected",
        [
            (3, False, PrivilegeMode.M),
            (3, True, PrivilegeMode.M),  # MPV ignored for M (spec)
            (1, False, PrivilegeMode.HS),
            (1, True, PrivilegeMode.VS),
            (0, False, PrivilegeMode.U),
            (0, True, PrivilegeMode.VU),
        ],
    )
    def test_targets(self, level, mpv, expected):
        mstatus = status.with_mpp(status.MSTATUS_MPV if mpv else 0, level)
        assert status.mret_target(mstatus) is expected

    def test_trap_then_mret_roundtrip(self):
        """Trapping from a mode and mret'ing returns exactly there."""
        for mode in (PrivilegeMode.VS, PrivilegeMode.HS, PrivilegeMode.VU, PrivilegeMode.U):
            mstatus = status.encode_trap_entry(0, mode)
            assert status.mret_target(mstatus) is mode


class TestWorldSwitchIntegration:
    def test_exit_records_guest_context_in_m_csrs(self, machine):
        session = machine.launch_confidential_vm(image=b"x")
        cvm, vcpu = session.cvm, session.cvm.vcpu(0)
        ws = machine.monitor.world_switch
        ws.enter_cvm(machine.hart, cvm, vcpu)
        vcpu.pc = 0x8000_4444
        ws.exit_to_normal(machine.hart, cvm, vcpu, {"kind": "timer", "cause": 7})
        # During the SM handler, mepc/mcause held the guest context; after
        # the mret to HS, MPP is cleared per spec.
        assert machine.hart.csrs.read_raw("mepc") == 0x8000_4444
        assert machine.hart.csrs.read_raw("mcause") == 7
        assert status.mpp_of(machine.hart.csrs.read_raw("mstatus")) == 0

    def test_mode_is_derived_from_mstatus_not_assigned(self, machine):
        """The hart's mode after every switch equals mret_target(mstatus)
        computed before the return -- the invariant the encoding enforces."""
        session = machine.launch_confidential_vm(image=b"x")
        cvm, vcpu = session.cvm, session.cvm.vcpu(0)
        ws = machine.monitor.world_switch
        ws.enter_cvm(machine.hart, cvm, vcpu)
        assert machine.hart.mode is PrivilegeMode.VS
        ws.exit_to_normal(machine.hart, cvm, vcpu, {"kind": "timer", "cause": 7})
        assert machine.hart.mode is PrivilegeMode.HS
