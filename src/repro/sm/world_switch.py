"""World switching between Normal mode and CVM mode (paper sections IV-A/B).

The **short path** is ZION's isolation-mode contribution: the SM alone
performs the execution-state switch, so entering or leaving CVM mode costs
a single privilege-level transition.  The **long path**, implemented here
as the experimental baseline for the paper's section V-B.2 comparison,
routes every switch through a thin secure hypervisor the way
CoVE/TwinVisor/CCA-style designs do: host -> SM -> secure hypervisor ->
CVM on entry and the reverse on exit, each leg paying trap entry, context
save/restore, and the secure hypervisor's own bookkeeping.

Every cost in these paths is charged from primitives as the corresponding
code would execute; the totals the benchmarks report are emergent.

Wall-clock optimisation (INTERNALS section 16): the *charges* of a switch
are memoized into per-shape plans.  A switch's fixed costs depend only on
(exit kind class, long_path, use_shared_vcpu, PMP pool-region count), all
known ahead of time, so the per-category sums are precomputed once and
fired through bound chargers instead of ~17 individual ``ledger.charge``
calls.  Fusing only ever merges charges of the *same* category that land
inside the *same* timer checkpoint window (a world switch performs no
timer checks), and conditional charges -- Check-after-Load, reply
application, full-state validation -- stay at their original call sites,
so totals and per-category breakdowns are bit-identical to the unfused
sequence, including on reply-refusal paths (entry charges are split into
a pre-validation and a post-validation plan around the only exception
seam).  The goldens in ``tests/goldens/cycle_exact.json`` pin this.

The register programme a switch replays is precomputed as well: each
delegation profile carries its four encoded CSR words, the PMP
controller keeps the open and closed pool-entry programmes (written in
one locked-entry-checked ``PmpUnit.set_entries`` call), and the vCPU
save/restore moves the GPR file and guest CSRs as whole dicts.
"""

from __future__ import annotations

from repro.cycles import Category, CycleCosts, CycleLedger
from repro.isa import status
from repro.isa.privilege import PrivilegeMode
from repro.sm import delegation
from repro.sm.cvm import ConfidentialVm
from repro.sm.vcpu import GUEST_CSRS, CheckAfterLoad, SecureVcpu, SharedVcpu

#: Shared-vCPU fields written on an MMIO-style exit.
_MMIO_EXIT_FIELDS = ("exit_cause", "htval", "htinst", "gpr_index", "gpr_value")

#: Every publishable shared-vCPU slot except ``exit_cause`` (always written).
_CLEARABLE_FIELDS = ("htval", "htinst", "gpr_index", "gpr_value", "sepc_advance", "pending_irq")


class WorldSwitch:
    """Executes (and charges) CVM entry/exit transitions on a hart."""

    #: Consecutive Check-after-Load refusals tolerated for one pending exit
    #: before the vCPU fail-stops (a hypervisor endlessly replaying corrupt
    #: replies must not livelock the entry path).
    MAX_REPLY_REFUSALS = 8

    def __init__(
        self,
        ledger: CycleLedger,
        costs: CycleCosts,
        translator,
        pmp_controller,
        use_shared_vcpu: bool = True,
        long_path: bool = False,
    ):
        self.ledger = ledger
        self.costs = costs
        self.translator = translator
        self.pmp = pmp_controller
        self.use_shared_vcpu = use_shared_vcpu
        self.long_path = long_path
        self.check_after_load = CheckAfterLoad(ledger, costs)
        # Charge plans are a function of the PMP pool-region count (the
        # open/close toggle reprograms one entry per region); rebuilt
        # whenever a region is registered (pool expansion).
        self._plan_region_count = -1
        self._rebuild_plans()

    # -- charge plans ----------------------------------------------------------

    def _rebuild_plans(self) -> None:
        """Precompute the fused fixed-cost chargers for every switch shape.

        The arithmetic below is the category-by-category sum of exactly
        the ``ledger.charge`` calls the unfused path performed, in
        checkpoint-safe groups; see the module docstring for the fusing
        rules and docs/INTERNALS.md section 16 for the derivation.
        """
        costs = self.costs
        charger = self.ledger.charger
        regions = self.pmp.pool_region_count
        self._plan_region_count = regions
        pmp_toggle = regions * costs.pmp_entry_write + costs.pmp_fence
        guest_save = costs.gpr_file_save + len(GUEST_CSRS) * costs.csr_read
        guest_restore = costs.gpr_file_save + len(GUEST_CSRS) * costs.csr_write
        hyp_save = costs.hyp_csr_context * costs.csr_read + costs.gpr_file_save
        hyp_swap = costs.hyp_csr_context * costs.csr_swap + costs.gpr_file_save
        delegation_swap = 4 * costs.csr_write
        publish = len(SharedVcpuFieldsPublished) * costs.field_copy

        # -- exit: no exception seam, one fused fire per category --------
        exit_trap = costs.trap_to_m + costs.xret
        exit_sm = costs.sm_exit_logic
        exit_reg = guest_save + publish + delegation_swap + hyp_swap
        exit_fires = []
        if self.long_path:
            exit_reg += hyp_swap + hyp_save
            exit_trap += costs.xret + costs.trap_to_m
            exit_sm += costs.ecall_dispatch
            exit_fires.append(charger(Category.HYP_LOGIC, costs.sec_hyp_exit_logic))
        if not self.use_shared_vcpu:
            field_count = len(GUEST_CSRS) + 31  # full GPR file + guest CSRs
            exit_fires.append(
                charger(Category.VALIDATE, field_count * costs.sanitize_field)
            )
        exit_fires += [
            charger(Category.TRAP, exit_trap),
            charger(Category.REG_SAVE, exit_reg),
            charger(Category.PMP, pmp_toggle),
            charger(Category.TLB, costs.tlb_flush_gvma),
        ]
        self._exit_fires = tuple(
            exit_fires + [charger(Category.SM_LOGIC, exit_sm)]
        )
        self._exit_fires_mmio = tuple(
            exit_fires + [charger(Category.SM_LOGIC, exit_sm + costs.sm_mmio_decode)]
        )

        # -- entry: split around the Check-after-Load exception seam ------
        self._entry_pre_fires = (
            charger(Category.TRAP, costs.trap_to_m),
            charger(Category.SM_LOGIC, costs.ecall_dispatch + costs.sm_entry_logic),
            charger(Category.REG_SAVE, hyp_save),
        )
        entry_trap = costs.xret
        entry_reg = guest_restore + delegation_swap
        entry_post = []
        if self.long_path:
            entry_reg += hyp_swap + hyp_save
            entry_trap += costs.xret + costs.trap_to_m
            entry_post.append(charger(Category.HYP_LOGIC, costs.sec_hyp_entry_logic))
            entry_post.append(charger(Category.SM_LOGIC, costs.ecall_dispatch))
        entry_post += [
            charger(Category.TRAP, entry_trap),
            charger(Category.REG_SAVE, entry_reg),
            charger(Category.PMP, pmp_toggle),
            charger(Category.TLB, costs.tlb_flush_gvma),
        ]
        self._entry_post_fires = tuple(entry_post)

    # -- CVM exit ------------------------------------------------------------

    def exit_to_normal(self, hart, cvm: ConfidentialVm, vcpu: SecureVcpu, exit_info: dict) -> None:
        """Leave CVM mode for Normal mode.

        ``exit_info`` describes why (``kind`` plus cause-specific fields);
        it becomes the secure vCPU's exit context (the Check-after-Load
        reference) and, for MMIO exits, the shared-vCPU payload.
        """
        if self._plan_region_count != self.pmp.pool_region_count:
            self._rebuild_plans()
        kind = exit_info.get("kind", "unknown")
        fires = self._exit_fires_mmio if kind.startswith("mmio") else self._exit_fires
        for fire in fires:
            fire()

        # Hardware trap into M mode (the SM's trap vector): mstatus
        # records the interrupted guest mode, mepc/mcause the context.
        mstatus = status.encode_trap_entry(hart.csrs.read_raw("mstatus"), hart.mode)
        hart.csrs.write_raw("mstatus", mstatus)
        hart.csrs.write_raw("mepc", vcpu.pc)
        hart.csrs.write_raw("mcause", exit_info.get("cause", 0))
        hart.mode = PrivilegeMode.M

        vcpu.save_from(hart)
        vcpu.exit_context = dict(exit_info)
        cvm.exit_count += 1
        cvm.exit_reasons[kind] = cvm.exit_reasons.get(kind, 0) + 1

        shared = cvm.shared_vcpus[vcpu.vcpu_id]
        self._publish_exit_fields(shared, exit_info)

        # Close the secure pool and drop translations that reach it (the
        # plan fired the PMP toggle + hfence.gvma charges above).
        self.pmp.close_pool(hart, charge=False)
        self.translator.tlb.flush_all()

        delegation.NORMAL_MODE.apply(hart)

        # mret to the hypervisor: MPP=S, MPV=0.
        mstatus = status.with_mpp(hart.csrs.read_raw("mstatus"), PrivilegeMode.HS.level)
        mstatus &= ~status.MSTATUS_MPV
        hart.csrs.write_raw("mstatus", mstatus)
        hart.mode = status.mret_target(mstatus)
        hart.csrs.write_raw("mstatus", status.encode_mret(mstatus))
        vcpu.state = vcpu.state.__class__.WAITING_HYP
        events = self.ledger.events
        if events is not None:
            events.record(
                "cvm_exit", cvm=cvm.cvm_id, vcpu=vcpu.vcpu_id,
                reason=exit_info.get("kind"), hart=hart.hart_id,
            )

    def _publish_exit_fields(self, shared: SharedVcpu, exit_info: dict) -> None:
        """Shared-vCPU publish: only the cause-specific registers cross.

        Every exit writes exactly ``len(SharedVcpuFieldsPublished)`` slots
        (cause-specific fields plus zero-clears of the rest), which is how
        the exit plan can carry the ``field_copy`` charges.  In the
        no-shared-vCPU baseline the *entire* sanitised state additionally
        crosses; the plan carries that as a VALIDATE fire (the
        sanitising pass), and the slot traffic below still happens -- the
        exchange page is a strict superset carrier in both designs.
        """
        kind = exit_info.get("kind", "")
        if kind.startswith("mmio"):
            written = _MMIO_EXIT_FIELDS
            shared.sm_write("htval", exit_info.get("htval", 0))
            shared.sm_write("htinst", exit_info.get("htinst", 0))
            shared.sm_write("gpr_index", exit_info.get("gpr_index", 0))
            shared.sm_write("gpr_value", exit_info.get("gpr_value", 0))
        elif kind == "shared_fault":
            written = ("exit_cause", "htval")
            shared.sm_write("htval", exit_info.get("htval", 0))
        else:
            written = ("exit_cause",)
        shared.sm_write("exit_cause", exit_info.get("cause", 0))
        # Clear every slot not owned by this exit so stale hypervisor data
        # (or a previous exit's payload) cannot echo back through
        # Check-after-Load.
        for name in _CLEARABLE_FIELDS:
            if name not in written:
                shared.sm_write(name, 0)

    # -- CVM entry ------------------------------------------------------------

    def enter_cvm(self, hart, cvm: ConfidentialVm, vcpu: SecureVcpu) -> dict:
        """Enter CVM mode from Normal mode (the hypervisor's run ECALL).

        Returns the validated hypervisor reply (empty when there was no
        exit to reply to, e.g. first entry).
        """
        if self._plan_region_count != self.pmp.pool_region_count:
            self._rebuild_plans()
        # The hypervisor's ECALL traps into M mode.  Only the charges up
        # to the Check-after-Load seam fire here: a refused reply must
        # leave the ledger exactly where the unfused path would.
        for fire in self._entry_pre_fires:
            fire()
        mstatus = status.encode_trap_entry(hart.csrs.read_raw("mstatus"), hart.mode)
        hart.csrs.write_raw("mstatus", mstatus)
        hart.mode = PrivilegeMode.M

        shared = cvm.shared_vcpus[vcpu.vcpu_id]
        reply: dict = {}
        if vcpu.exit_context is not None:
            try:
                if self.use_shared_vcpu:
                    reply = self.check_after_load.validate_reply(vcpu, shared)
                else:
                    reply = self._validate_full_state(vcpu, shared)
            except Exception:
                # Check-after-Load rejected the reply.  A refusal is
                # retryable (the hypervisor may resubmit honest values),
                # but a host replaying corrupt replies forever must not
                # livelock the SM: after MAX_REPLY_REFUSALS consecutive
                # rejections the vCPU fail-stops.
                refusals = getattr(vcpu, "reply_refusals", 0) + 1
                vcpu.reply_refusals = refusals
                if refusals >= self.MAX_REPLY_REFUSALS:
                    vcpu.exit_context = None
                    vcpu.state = vcpu.state.__class__.STOPPED
                raise
            vcpu.reply_refusals = 0
            self._apply_reply(vcpu, reply)
            vcpu.exit_context = None

        for fire in self._entry_post_fires:
            fire()
        vcpu.restore_to(hart)
        delegation.CVM_MODE.apply(hart)

        # Open the secure pool for CVM mode and flush stale translations
        # (PMP toggle + hfence.gvma charges fired by the entry plan).
        self.pmp.open_pool(hart, charge=False)
        self.translator.tlb.flush_all()

        # mret into the guest: MPP=S with MPV=1 selects VS mode.
        mstatus = status.with_mpp(hart.csrs.read_raw("mstatus"), PrivilegeMode.VS.level)
        mstatus |= status.MSTATUS_MPV
        hart.csrs.write_raw("mstatus", mstatus)
        hart.mode = status.mret_target(mstatus)
        hart.csrs.write_raw("mstatus", status.encode_mret(mstatus))
        vcpu.state = vcpu.state.__class__.RUNNING
        cvm.entry_count += 1
        events = self.ledger.events
        if events is not None:
            events.record("cvm_enter", cvm=cvm.cvm_id, vcpu=vcpu.vcpu_id, hart=hart.hart_id)
        return reply

    def _validate_full_state(self, vcpu: SecureVcpu, shared: SharedVcpu) -> dict:
        """Unoptimised baseline: validate every field of the returned state."""
        field_count = len(vcpu.gprs) + len(GUEST_CSRS)
        self.ledger.charge(Category.VALIDATE, field_count * self.costs.validate_field)
        # The usable reply content is the same as the fast path's.
        return self.check_after_load.validate_reply(vcpu, shared)

    def _apply_reply(self, vcpu: SecureVcpu, reply: dict) -> None:
        if "gpr_value" in reply:
            from repro.isa.hart import GPR_NAMES

            index = reply["gpr_index"]
            if 1 <= index <= len(GPR_NAMES):
                vcpu.gprs[GPR_NAMES[index - 1]] = reply["gpr_value"]
            # Injecting the result re-derives the target register from the
            # trapped instruction (htinst decode on the entry side too).
            self.ledger.charge(Category.SM_LOGIC, self.costs.sm_mmio_decode)
            self.ledger.charge(Category.REG_SAVE, self.costs.field_copy)
        if reply.get("sepc_advance"):
            vcpu.pc += reply["sepc_advance"]
            vcpu.csrs["sepc"] = vcpu.pc
            self.ledger.charge(Category.REG_SAVE, self.costs.field_copy)
        if reply.get("pending_irq"):
            vcpu.csrs["hvip"] |= reply["pending_irq"]
            self.ledger.charge(Category.REG_SAVE, self.costs.field_copy)


#: Slots every exit publishes (cause-specific writes + zero-clears): the
#: union is always ``exit_cause`` plus the six clearable fields' worth of
#: traffic, i.e. 7 ``field_copy`` charges, which lets the exit plan fuse
#: them.  Kept as a tuple (not a bare constant) so the invariant is
#: auditable against ``SHARED_VCPU_FIELDS``.
SharedVcpuFieldsPublished = ("exit_cause",) + _CLEARABLE_FIELDS
