"""ZION's trap-delegation profiles (paper IV-A)."""

from repro.isa.hart import Hart
from repro.isa.privilege import PrivilegeMode
from repro.isa.traps import (
    ExceptionCause,
    InterruptCause,
    route_exception,
    route_interrupt,
)
from repro.sm.delegation import CVM_MODE, NORMAL_MODE

E = ExceptionCause
I = InterruptCause


def _route_e(profile, cause, mode=PrivilegeMode.VS):
    return route_exception(cause, mode, profile.medeleg, profile.hedeleg)


def _route_i(profile, cause, mode=PrivilegeMode.VS):
    return route_interrupt(cause, mode, profile.mideleg, profile.hideleg)


class TestCvmMode:
    def test_guest_page_faults_land_in_sm(self):
        """The core short-path property: the hypervisor never sees them."""
        for cause in (E.LOAD_GUEST_PAGE_FAULT, E.STORE_GUEST_PAGE_FAULT,
                      E.INSTRUCTION_GUEST_PAGE_FAULT):
            assert _route_e(CVM_MODE, cause) is PrivilegeMode.M

    def test_vs_ecall_lands_in_sm(self):
        assert _route_e(CVM_MODE, E.ECALL_FROM_VS) is PrivilegeMode.M

    def test_self_handled_traps_reach_guest_directly(self):
        """Paper criterion 1: CVM-processable traps delegate to VS."""
        for cause in (E.ECALL_FROM_U, E.LOAD_PAGE_FAULT, E.STORE_PAGE_FAULT,
                      E.ILLEGAL_INSTRUCTION, E.BREAKPOINT):
            assert _route_e(CVM_MODE, cause, PrivilegeMode.VU) is PrivilegeMode.VS

    def test_nothing_routes_to_hypervisor(self):
        """No exception from CVM mode may land in HS."""
        for cause in E:
            dest = _route_e(CVM_MODE, cause)
            assert dest is not PrivilegeMode.HS, cause

    def test_machine_timer_lands_in_sm(self):
        assert _route_i(CVM_MODE, I.MACHINE_TIMER) is PrivilegeMode.M

    def test_guest_timer_delegated_to_guest(self):
        assert _route_i(CVM_MODE, I.VIRTUAL_SUPERVISOR_TIMER) is PrivilegeMode.VS

    def test_no_interrupt_routes_to_hypervisor(self):
        for cause in I:
            assert _route_i(CVM_MODE, cause) is not PrivilegeMode.HS, cause


class TestNormalMode:
    def test_guest_page_faults_reach_kvm(self):
        for cause in (E.LOAD_GUEST_PAGE_FAULT, E.STORE_GUEST_PAGE_FAULT):
            assert _route_e(NORMAL_MODE, cause) is PrivilegeMode.HS

    def test_vs_ecall_reaches_kvm(self):
        assert _route_e(NORMAL_MODE, E.ECALL_FROM_VS) is PrivilegeMode.HS

    def test_guest_internal_traps_stay_in_guest(self):
        assert _route_e(NORMAL_MODE, E.ECALL_FROM_U, PrivilegeMode.VU) is PrivilegeMode.VS

    def test_supervisor_timer_delegated_to_hs(self):
        assert _route_i(NORMAL_MODE, I.SUPERVISOR_TIMER, PrivilegeMode.HS) is PrivilegeMode.HS


class TestApply:
    def test_apply_writes_delegation_csrs(self):
        hart = Hart(0)
        CVM_MODE.apply(hart)
        assert hart.medeleg == CVM_MODE.medeleg
        assert hart.hideleg == CVM_MODE.hideleg
        NORMAL_MODE.apply(hart)
        assert hart.medeleg == NORMAL_MODE.medeleg
        assert E.ECALL_FROM_VS in hart.medeleg

    def test_apply_writes_the_same_words_as_the_cause_set_setters(self):
        for profile in (CVM_MODE, NORMAL_MODE):
            applied, set_one_by_one = Hart(0), Hart(1)
            profile.apply(applied)
            for name in ("medeleg", "mideleg", "hedeleg", "hideleg"):
                setattr(set_one_by_one, name, getattr(profile, name))
                assert applied.csrs.read_raw(name) == set_one_by_one.csrs.read_raw(name)

    def test_profiles_differ_exactly_on_host_visible_traps(self):
        diff = NORMAL_MODE.medeleg - CVM_MODE.medeleg
        assert diff == frozenset(
            {
                E.ECALL_FROM_VS,
                E.INSTRUCTION_GUEST_PAGE_FAULT,
                E.LOAD_GUEST_PAGE_FAULT,
                E.STORE_GUEST_PAGE_FAULT,
                E.VIRTUAL_INSTRUCTION,
            }
        )
