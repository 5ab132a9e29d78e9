"""Trap causes and the delegation rules that route them.

Encodings follow the RISC-V privileged spec v1.12 (Table 8.6 / 5.2),
including the hypervisor-extension guest-page-fault and virtual-instruction
causes.  The routing functions implement the architectural delegation
algorithm: a trap taken while executing at privilege <= x lands in M mode
unless delegated via ``medeleg``/``mideleg``, in which case it lands in HS
mode unless further delegated via ``hedeleg``/``hideleg`` (for traps from
virtual modes), in which case it lands in VS mode.
"""

from __future__ import annotations

import enum

from repro.isa.privilege import PrivilegeMode

#: Bound once: a lookup through an enum class runs its metaclass's
#: attribute hook.
_M, _HS, _VS = PrivilegeMode.M, PrivilegeMode.HS, PrivilegeMode.VS


class AccessType(enum.Enum):
    """The kind of memory access being performed."""

    FETCH = "fetch"
    LOAD = "load"
    STORE = "store"


class ExceptionCause(enum.IntEnum):
    """Synchronous exception cause codes (mcause with interrupt bit clear)."""

    INSTRUCTION_ADDRESS_MISALIGNED = 0
    INSTRUCTION_ACCESS_FAULT = 1
    ILLEGAL_INSTRUCTION = 2
    BREAKPOINT = 3
    LOAD_ADDRESS_MISALIGNED = 4
    LOAD_ACCESS_FAULT = 5
    STORE_ADDRESS_MISALIGNED = 6
    STORE_ACCESS_FAULT = 7
    ECALL_FROM_U = 8
    ECALL_FROM_HS = 9
    ECALL_FROM_VS = 10
    ECALL_FROM_M = 11
    INSTRUCTION_PAGE_FAULT = 12
    LOAD_PAGE_FAULT = 13
    STORE_PAGE_FAULT = 15
    INSTRUCTION_GUEST_PAGE_FAULT = 20
    LOAD_GUEST_PAGE_FAULT = 21
    VIRTUAL_INSTRUCTION = 22
    STORE_GUEST_PAGE_FAULT = 23


class InterruptCause(enum.IntEnum):
    """Interrupt cause codes (mcause with interrupt bit set)."""

    SUPERVISOR_SOFTWARE = 1
    VIRTUAL_SUPERVISOR_SOFTWARE = 2
    MACHINE_SOFTWARE = 3
    SUPERVISOR_TIMER = 5
    VIRTUAL_SUPERVISOR_TIMER = 6
    MACHINE_TIMER = 7
    SUPERVISOR_EXTERNAL = 9
    VIRTUAL_SUPERVISOR_EXTERNAL = 10
    MACHINE_EXTERNAL = 11


class TrapKind(enum.Enum):
    """Whether a cause code is an exception or an interrupt."""

    EXCEPTION = "exception"
    INTERRUPT = "interrupt"


#: Exception causes that can never be delegated below M mode
#: (ECALL_FROM_M architecturally always traps to M).
_NEVER_DELEGATED = frozenset({ExceptionCause.ECALL_FROM_M})

#: Guest-page faults and virtual-instruction exceptions cannot be delegated
#: past HS to VS -- they exist *for* the hypervisor (spec: hedeleg bits for
#: causes 20, 21, 22, 23 are read-only zero).
_NOT_VS_DELEGATABLE = frozenset(
    {
        ExceptionCause.INSTRUCTION_GUEST_PAGE_FAULT,
        ExceptionCause.LOAD_GUEST_PAGE_FAULT,
        ExceptionCause.STORE_GUEST_PAGE_FAULT,
        ExceptionCause.VIRTUAL_INSTRUCTION,
        ExceptionCause.ECALL_FROM_VS,
    }
)


#: Cause tables, built once: these functions run on every faulting guest
#: access, so rebuilding a dict per call was measurable.
_PAGE_FAULT_CAUSE = {
    AccessType.FETCH: ExceptionCause.INSTRUCTION_PAGE_FAULT,
    AccessType.LOAD: ExceptionCause.LOAD_PAGE_FAULT,
    AccessType.STORE: ExceptionCause.STORE_PAGE_FAULT,
}
_GUEST_PAGE_FAULT_CAUSE = {
    AccessType.FETCH: ExceptionCause.INSTRUCTION_GUEST_PAGE_FAULT,
    AccessType.LOAD: ExceptionCause.LOAD_GUEST_PAGE_FAULT,
    AccessType.STORE: ExceptionCause.STORE_GUEST_PAGE_FAULT,
}
_ACCESS_FAULT_CAUSE = {
    AccessType.FETCH: ExceptionCause.INSTRUCTION_ACCESS_FAULT,
    AccessType.LOAD: ExceptionCause.LOAD_ACCESS_FAULT,
    AccessType.STORE: ExceptionCause.STORE_ACCESS_FAULT,
}


def page_fault_for(access: AccessType) -> ExceptionCause:
    """The stage-1 page-fault cause for an access type."""
    return _PAGE_FAULT_CAUSE[access]


def guest_page_fault_for(access: AccessType) -> ExceptionCause:
    """The stage-2 (guest) page-fault cause for an access type."""
    return _GUEST_PAGE_FAULT_CAUSE[access]


def access_fault_for(access: AccessType) -> ExceptionCause:
    """The access-fault cause (PMP denial) for an access type."""
    return _ACCESS_FAULT_CAUSE[access]


def route_exception(
    cause: ExceptionCause,
    from_mode: PrivilegeMode,
    medeleg: frozenset,
    hedeleg: frozenset,
) -> PrivilegeMode:
    """Where an exception raised in ``from_mode`` lands.

    ``medeleg`` / ``hedeleg`` are the sets of delegated
    :class:`ExceptionCause` values (the set-bit view of the CSRs).
    Delegation never routes a trap to a mode less privileged than the one
    it was raised in (spec 3.1.8): e.g. an ECALL from HS delegated in
    medeleg is still handled in HS, not VS.
    """
    if from_mode is _M or cause in _NEVER_DELEGATED:
        return _M
    if cause not in medeleg:
        return _M
    # Delegated past M.  Traps from non-virtual modes stop at HS.
    if not from_mode.virtualized:
        return _HS
    if cause in _NOT_VS_DELEGATABLE or cause not in hedeleg:
        return _HS
    return _VS


#: Interrupt classes for routing (never rebuilt per call).
_MACHINE_LEVEL_IRQS = frozenset(
    {
        InterruptCause.MACHINE_SOFTWARE,
        InterruptCause.MACHINE_TIMER,
        InterruptCause.MACHINE_EXTERNAL,
    }
)
_VS_LEVEL_IRQS = frozenset(
    {
        InterruptCause.VIRTUAL_SUPERVISOR_SOFTWARE,
        InterruptCause.VIRTUAL_SUPERVISOR_TIMER,
        InterruptCause.VIRTUAL_SUPERVISOR_EXTERNAL,
    }
)


def route_interrupt(
    cause: InterruptCause,
    from_mode: PrivilegeMode,
    mideleg: frozenset,
    hideleg: frozenset,
) -> PrivilegeMode:
    """Where an interrupt pending while executing in ``from_mode`` lands.

    Machine-level interrupts (MSI/MTI/MEI) are never delegatable; the VS*
    interrupts are delegated to VS via ``hideleg`` once ``mideleg``
    forwards them past M.
    """
    if cause in _MACHINE_LEVEL_IRQS:
        return PrivilegeMode.M
    if cause not in mideleg:
        return PrivilegeMode.M
    if cause in _VS_LEVEL_IRQS and cause in hideleg and from_mode.virtualized:
        return PrivilegeMode.VS
    return PrivilegeMode.HS
