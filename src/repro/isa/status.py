"""mstatus bit-field encoding (the fields ZION manipulates).

The world switch and trap machinery communicate through architectural
status bits: ``mstatus.MPP``/``MPV`` say where ``mret`` will land (and
record where a trap came from), ``mstatus.SIE``/``MPIE`` hold the
interrupt-enable stack.  Field positions follow the privileged spec (RV64).
"""

from __future__ import annotations

from repro.isa.privilege import PrivilegeMode

# mstatus fields
MSTATUS_SIE = 1 << 1
MSTATUS_MIE = 1 << 3
MSTATUS_SPIE = 1 << 5
MSTATUS_MPIE = 1 << 7
MSTATUS_SPP = 1 << 8
_MPP_SHIFT = 11
_MPP_MASK = 0b11 << _MPP_SHIFT
MSTATUS_MPV = 1 << 39


def mpp_of(mstatus: int) -> int:
    """The MPP field (privilege level mret returns to)."""
    return (mstatus & _MPP_MASK) >> _MPP_SHIFT


def with_mpp(mstatus: int, level: int) -> int:
    """mstatus with the MPP field set to ``level``."""
    return (mstatus & ~_MPP_MASK) | ((level & 0b11) << _MPP_SHIFT)


def mret_target(mstatus: int) -> PrivilegeMode:
    """Where ``mret`` lands given mstatus.MPP/MPV."""
    level = mpp_of(mstatus)
    virtual = bool(mstatus & MSTATUS_MPV) and level != 3
    if level == 3:
        return PrivilegeMode.M
    if level == 1:
        return PrivilegeMode.VS if virtual else PrivilegeMode.HS
    return PrivilegeMode.VU if virtual else PrivilegeMode.U


def encode_trap_entry(mstatus: int, from_mode: PrivilegeMode) -> int:
    """mstatus after a trap into M: record the interrupted mode.

    MPP gets the privilege level, MPV whether it was a virtual mode;
    MPIE saves MIE and MIE clears (the spec's interrupt-enable stack).
    """
    updated = with_mpp(mstatus, from_mode.level)
    if from_mode.virtualized:
        updated |= MSTATUS_MPV
    else:
        updated &= ~MSTATUS_MPV
    if updated & MSTATUS_MIE:
        updated |= MSTATUS_MPIE
    else:
        updated &= ~MSTATUS_MPIE
    updated &= ~MSTATUS_MIE
    return updated


def encode_mret(mstatus: int) -> int:
    """mstatus after ``mret``: pop the interrupt-enable stack, clear MPP."""
    updated = mstatus
    if updated & MSTATUS_MPIE:
        updated |= MSTATUS_MIE
    else:
        updated &= ~MSTATUS_MIE
    updated |= MSTATUS_MPIE
    updated = with_mpp(updated, 0)
    updated &= ~MSTATUS_MPV
    return updated
