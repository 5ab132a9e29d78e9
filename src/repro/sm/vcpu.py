"""Secure and shared vCPU structures (paper section IV-B).

The **secure vCPU** lives in SM-private memory and holds the complete
register state of a confidential VM's vCPU; the hypervisor can never read
or write it.  The **shared vCPU** is a small structure in normal
(hypervisor-accessible) memory carrying only the registers a particular
exit legitimately exposes -- e.g. ``htinst``/``htval`` for an MMIO exit so
the hypervisor can emulate the access -- plus the hypervisor's reply.

Because the hypervisor is untrusted, every value the SM reads back from
the shared vCPU passes **Check-after-Load** validation (the TwinVisor
TOCTOU defence the paper adopts): the SM re-derives what the field is
*allowed* to contain from its own secure copy of the exit context and
rejects mismatches.
"""

from __future__ import annotations

import enum
import struct

from repro.cycles import Category, CycleCosts, CycleLedger
from repro.errors import SecurityViolation
from repro.isa.hart import GPR_NAMES

#: CSRs preserved in the secure vCPU across world switches.
GUEST_CSRS = (
    "vsstatus",
    "vsepc",
    "vscause",
    "vstval",
    "vstvec",
    "vsscratch",
    "vsatp",
    "vsie",
    "vsip",
    "sepc",
    "scause",
    "stval",
    "hstatus",
    "htval",
    "htinst",
    "hvip",
)

#: Shared vCPU layout: field name -> slot index (8 bytes per slot).
SHARED_VCPU_FIELDS = {
    "exit_cause": 0,
    "htval": 1,
    "htinst": 2,
    "gpr_index": 3,
    "gpr_value": 4,
    "sepc_advance": 5,
    "a0": 6,
    "a1": 7,
    "pending_irq": 8,
}

SHARED_VCPU_SIZE = len(SHARED_VCPU_FIELDS) * 8

#: Slots every exit writes (slots 0-5 in one packed write, plus the
#: cleared ``pending_irq``); the exit plan charges a ``field_copy`` each.
SHARED_VCPU_SLOTS_PUBLISHED = 7

#: Six consecutive slots: 0-5 on exit, 3-8 for the reply on entry.
_SIX_SLOTS = struct.Struct("<6Q")

_MASK64 = (1 << 64) - 1


class VcpuState(enum.Enum):
    """Secure vCPU run-state machine."""

    READY = "ready"
    RUNNING = "running"
    WAITING_HYP = "waiting_hyp"  # exited to Normal mode, awaiting service
    STOPPED = "stopped"


class SecureVcpu:
    """A CVM vCPU's protected register state, stored inside the SM."""

    def __init__(self, vcpu_id: int):
        self.vcpu_id = vcpu_id
        self.state = VcpuState.READY
        self.gprs = {name: 0 for name in GPR_NAMES}
        self.csrs = {name: 0 for name in GUEST_CSRS}
        self.pc = 0
        #: Exit context the SM recorded at the last CVM exit; the reference
        #: that Check-after-Load validates the hypervisor's reply against.
        self.exit_context: dict | None = None

    def save_from(self, hart) -> None:
        """Capture the hart's guest state (charged by the caller)."""
        self.gprs = hart.gpr_snapshot()
        self.csrs = hart.csrs.snapshot(GUEST_CSRS)

    def restore_to(self, hart) -> None:
        """Load this vCPU's state onto the hart (charged by the caller), as
        is: every writer of the files checks names and 64-bit values."""
        hart.gprs.update(self.gprs)
        hart.csrs.install(self.csrs)


class SharedVcpu:
    """The hypervisor-visible exchange structure, backed by real memory.

    The SM writes it with raw stores (M mode); the hypervisor accesses it
    through the PMP-checked bus like any other normal memory.
    """

    def __init__(self, base_pa: int, bus):
        self.base_pa = base_pa
        self._bus = bus
        # Per-field physical slot addresses, resolved once: the world
        # switch reads/writes these on every entry/exit, so the per-call
        # dict hash + multiply was measurable.
        self._slots = {
            field: base_pa + 8 * index for field, index in SHARED_VCPU_FIELDS.items()
        }
        self._dram_write = bus.dram.write_u64
        self._dram_write_bytes = bus.dram.write
        self._dram_read_bytes = bus.dram.read

    # -- SM side (M mode, unchecked) --------------------------------------

    def sm_write(self, field: str, value: int) -> None:
        """SM-side (M-mode, unchecked) field write."""
        self._dram_write(self._slots[field], value)  # zionlint: disable=ZL3 exit-plan writes: the world switch's precompiled plans carry a fused field_copy charge in their fire() closures, which caller-side analysis cannot name-match

    def sm_publish_exit(self, cause: int, htval: int, htinst: int,
                        gpr_index: int, gpr_value: int) -> None:
        """SM-side exit publish: the bytes of one :meth:`sm_write` per slot
        0-5 (``sepc_advance`` zero) and a cleared ``pending_irq``."""
        self._dram_write_bytes(self.base_pa, _SIX_SLOTS.pack(  # zionlint: disable=ZL3 exit-plan writes: the world switch's precompiled plans carry a fused field_copy charge in their fire() closures, which caller-side analysis cannot name-match
            cause & _MASK64, htval & _MASK64, htinst & _MASK64,
            gpr_index & _MASK64, gpr_value & _MASK64, 0,
        ))
        self._dram_write(self._slots["pending_irq"], 0)  # zionlint: disable=ZL3 exit-plan writes: the world switch's precompiled plans carry a fused field_copy charge in their fire() closures, which caller-side analysis cannot name-match

    def sm_read_reply(self) -> tuple:
        """SM-side read of slots 3-8 in one load: ``(gpr_index, gpr_value,
        sepc_advance, a0, a1, pending_irq)``."""
        return _SIX_SLOTS.unpack(self._dram_read_bytes(self._slots["gpr_index"], 48))

    # -- hypervisor side (PMP-checked) -------------------------------------

    def hyp_write(self, hart, field: str, value: int) -> None:
        """Hypervisor-side field write through the PMP-checked bus."""
        self._bus.cpu_write_u64(hart, self._slots[field], value)

    def hyp_read(self, hart, field: str) -> int:
        """Hypervisor-side field read through the PMP-checked bus."""
        return self._bus.cpu_read_u64(hart, self._slots[field])


class CheckAfterLoad:
    """Validator for values loaded back from the shared vCPU.

    Each rule charges :attr:`CycleCosts.validate_field`; a failed check is
    a :class:`SecurityViolation` -- the SM refuses to resume the vCPU with
    tampered state (on hardware it would kill the CVM session).
    """

    def __init__(self, ledger: CycleLedger, costs: CycleCosts):
        # The reply validation always loads + checks the same four fields;
        # all four charges land before the first refusal check, in one
        # timer checkpoint window, so they fuse into a single precompiled
        # fire (identical total and VALIDATE breakdown, even on refusals).
        self._charge_reply_fields = ledger.charger(
            Category.VALIDATE, 4 * costs.validate_field
        )

    def validate_reply(self, secure: SecureVcpu, shared: SharedVcpu) -> dict:
        """Load + validate the hypervisor's reply fields.

        Returns the sanitized reply dict.  The reference is the exit
        context the SM itself recorded in the secure vCPU at exit time;
        nothing read from shared memory is trusted before it is checked.
        """
        context = secure.exit_context or {}
        reply = {}

        gpr_index, gpr_value, sepc_advance, _a0, _a1, pending_irq = shared.sm_read_reply()
        self._charge_reply_fields()

        if context.get("kind") == "mmio_load":
            if gpr_index != context["gpr_index"]:
                raise SecurityViolation(
                    "check-after-load: hypervisor redirected MMIO load "
                    f"result to GPR {gpr_index} (expected {context['gpr_index']})"
                )
            reply["gpr_index"] = gpr_index
            reply["gpr_value"] = gpr_value
        elif context.get("kind") == "mmio_store":
            # The slots carry the SM's own outbound store value; nothing
            # the hypervisor writes there flows back into the vCPU.
            pass
        elif gpr_value or gpr_index:
            raise SecurityViolation(
                "check-after-load: hypervisor supplied a GPR result for a "
                f"{context.get('kind', 'non-MMIO')} exit"
            )

        if context.get("kind") in ("mmio_load", "mmio_store"):
            if sepc_advance not in (2, 4):
                raise SecurityViolation(
                    f"check-after-load: invalid sepc advance {sepc_advance}"
                )
            reply["sepc_advance"] = sepc_advance
        elif sepc_advance:
            raise SecurityViolation(
                "check-after-load: sepc advance on a non-MMIO exit"
            )

        # Only VS-level interrupt bits (VSSI=2, VSTI=6, VSEI=10) may be
        # injected by the hypervisor.
        allowed_irq_mask = 1 << 2 | 1 << 6 | 1 << 10
        if pending_irq & ~allowed_irq_mask:
            raise SecurityViolation(
                f"check-after-load: illegal interrupt injection {pending_irq:#x}"
            )
        reply["pending_irq"] = pending_irq
        return reply
