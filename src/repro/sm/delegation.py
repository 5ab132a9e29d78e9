"""Trap delegation control (paper section IV-A).

ZION's short-path design removes the secure hypervisor, so the SM must
guarantee that no CVM trap is ever captured by the untrusted hypervisor.
It does this with the standard delegation CSRs, swapped on every world
switch:

- **CVM mode**: traps the confidential VM can handle itself (its own page
  faults, syscalls from VU, guest timer) are delegated all the way to VS
  mode; everything else -- guest-page faults, ECALLs from VS, machine
  interrupts -- is left *undelegated* so it lands in the SM (M mode), never
  in HS.
- **Normal mode**: the conventional Linux/KVM delegation set, where HS
  handles guest-page faults and supervisor traps for normal VMs.
"""

from __future__ import annotations

import dataclasses

from repro.isa.traps import ExceptionCause, InterruptCause


@dataclasses.dataclass(frozen=True)
class DelegationProfile:
    """One configuration of the four delegation CSRs."""

    medeleg: frozenset
    mideleg: frozenset
    hedeleg: frozenset
    hideleg: frozenset
    #: The four CSR words, encoded once: every world switch applies a
    #: profile, and the cause sets never change.
    _words: dict = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        words = {
            name: sum(1 << cause.value for cause in getattr(self, name))
            for name in ("medeleg", "mideleg", "hedeleg", "hideleg")
        }
        object.__setattr__(self, "_words", words)

    def apply(self, hart) -> None:
        """Write the four delegation CSRs onto the hart (words encoded once,
        from cause numbers below 64, so they need no check or mask)."""
        hart.csrs.install(self._words)


#: Exceptions a confidential VM's kernel can resolve internally.
_CVM_SELF_HANDLED = frozenset(
    {
        ExceptionCause.INSTRUCTION_ADDRESS_MISALIGNED,
        ExceptionCause.LOAD_ADDRESS_MISALIGNED,
        ExceptionCause.STORE_ADDRESS_MISALIGNED,
        ExceptionCause.ILLEGAL_INSTRUCTION,
        ExceptionCause.BREAKPOINT,
        ExceptionCause.ECALL_FROM_U,
        ExceptionCause.INSTRUCTION_PAGE_FAULT,
        ExceptionCause.LOAD_PAGE_FAULT,
        ExceptionCause.STORE_PAGE_FAULT,
    }
)

#: CVM mode: self-handleable traps reach VS directly; guest-page faults,
#: VS ECALLs and machine interrupts land in M (the SM).  Note that nothing
#: is routed to HS: medeleg forwards only what hedeleg then forwards to VS.
CVM_MODE = DelegationProfile(
    medeleg=_CVM_SELF_HANDLED,
    mideleg=frozenset(
        {
            InterruptCause.VIRTUAL_SUPERVISOR_SOFTWARE,
            InterruptCause.VIRTUAL_SUPERVISOR_TIMER,
            InterruptCause.VIRTUAL_SUPERVISOR_EXTERNAL,
        }
    ),
    hedeleg=_CVM_SELF_HANDLED,
    hideleg=frozenset(
        {
            InterruptCause.VIRTUAL_SUPERVISOR_SOFTWARE,
            InterruptCause.VIRTUAL_SUPERVISOR_TIMER,
            InterruptCause.VIRTUAL_SUPERVISOR_EXTERNAL,
        }
    ),
)

#: Normal mode: the conventional hosted configuration -- supervisor traps
#: and guest-page faults are delegated to HS (Linux/KVM), guest-internal
#: traps onward to VS.
NORMAL_MODE = DelegationProfile(
    medeleg=_CVM_SELF_HANDLED
    | frozenset(
        {
            ExceptionCause.ECALL_FROM_VS,
            ExceptionCause.INSTRUCTION_GUEST_PAGE_FAULT,
            ExceptionCause.LOAD_GUEST_PAGE_FAULT,
            ExceptionCause.STORE_GUEST_PAGE_FAULT,
            ExceptionCause.VIRTUAL_INSTRUCTION,
        }
    ),
    mideleg=frozenset(
        {
            InterruptCause.SUPERVISOR_SOFTWARE,
            InterruptCause.SUPERVISOR_TIMER,
            InterruptCause.SUPERVISOR_EXTERNAL,
            InterruptCause.VIRTUAL_SUPERVISOR_SOFTWARE,
            InterruptCause.VIRTUAL_SUPERVISOR_TIMER,
            InterruptCause.VIRTUAL_SUPERVISOR_EXTERNAL,
        }
    ),
    hedeleg=_CVM_SELF_HANDLED,
    hideleg=frozenset(
        {
            InterruptCause.VIRTUAL_SUPERVISOR_SOFTWARE,
            InterruptCause.VIRTUAL_SUPERVISOR_TIMER,
            InterruptCause.VIRTUAL_SUPERVISOR_EXTERNAL,
        }
    ),
)
