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

Wall-clock optimisation (INTERNALS sections 3 and 16): each direction
does each piece of work once.  A switch's fixed costs depend only on
(exit kind class, long_path, use_shared_vcpu, PMP pool-region count), so
each shape's per-category sums fire as one fused charge -- on entry, one
on each side of the Check-after-Load seam, so a refused reply leaves the
ledger where the unfused sequence would.  Conditional charges (reply
validation and application) stay at their call sites; the goldens in
``tests/goldens/cycle_exact.json`` pin the totals and breakdowns.  The
exit publishes the shared vCPU in one packed write, the register
programme is precomputed (delegation words, PMP pool programmes), and
the vCPU's register files move as whole dicts.
"""

from __future__ import annotations

from repro.cycles import Category, CycleCosts, CycleLedger
from repro.isa import status
from repro.isa.privilege import PrivilegeMode
from repro.sm import delegation
from repro.sm.cvm import ConfidentialVm
from repro.sm.vcpu import (
    GUEST_CSRS,
    SHARED_VCPU_SLOTS_PUBLISHED,
    CheckAfterLoad,
    SecureVcpu,
    SharedVcpu,
)

_MASK64 = (1 << 64) - 1


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
        """Precompute the fused fixed-cost charger of every switch shape.

        The arithmetic below is the category-by-category sum of exactly
        the ``ledger.charge`` calls the unfused path performed; each
        shape fires once (one ``CycleLedger.charger`` over several
        categories).  See the module docstring for the fusing rules and
        docs/INTERNALS.md section 16 for the derivation.
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
        publish = SHARED_VCPU_SLOTS_PUBLISHED * costs.field_copy

        # -- exit: no exception seam, one fire per shape -------------------
        exit_trap = costs.trap_to_m + costs.xret
        exit_sm = costs.sm_exit_logic
        exit_reg = guest_save + publish + delegation_swap + hyp_swap
        exit_extra = ()
        if self.long_path:
            exit_reg += hyp_swap + hyp_save
            exit_trap += costs.xret + costs.trap_to_m
            exit_sm += costs.ecall_dispatch
            exit_extra += (Category.HYP_LOGIC, costs.sec_hyp_exit_logic)
        if not self.use_shared_vcpu:
            field_count = len(GUEST_CSRS) + 31  # full GPR file + guest CSRs
            exit_extra += (Category.VALIDATE, field_count * costs.sanitize_field)
        exit_common = exit_extra + (
            Category.TRAP, exit_trap,
            Category.REG_SAVE, exit_reg,
            Category.PMP, pmp_toggle,
            Category.TLB, costs.tlb_flush_gvma,
        )
        self._exit_fire = charger(*exit_common, Category.SM_LOGIC, exit_sm)
        self._exit_fire_mmio = charger(
            *exit_common, Category.SM_LOGIC, exit_sm + costs.sm_mmio_decode
        )

        # -- entry: one fire on each side of the Check-after-Load seam ------
        self._entry_pre_fire = charger(
            Category.TRAP, costs.trap_to_m,
            Category.SM_LOGIC, costs.ecall_dispatch + costs.sm_entry_logic,
            Category.REG_SAVE, hyp_save,
        )
        entry_trap = costs.xret
        entry_reg = guest_restore + delegation_swap
        entry_extra = ()
        if self.long_path:
            entry_reg += hyp_swap + hyp_save
            entry_trap += costs.xret + costs.trap_to_m
            entry_extra = (
                Category.HYP_LOGIC, costs.sec_hyp_entry_logic,
                Category.SM_LOGIC, costs.ecall_dispatch,
            )
        self._entry_post_fire = charger(
            *entry_extra,
            Category.TRAP, entry_trap,
            Category.REG_SAVE, entry_reg,
            Category.PMP, pmp_toggle,
            Category.TLB, costs.tlb_flush_gvma,
        )

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
        get = exit_info.get
        # The shared-vCPU payload: only the cause-specific registers cross.
        if kind.startswith("mmio"):
            self._exit_fire_mmio()
            payload = (get("htval", 0), get("htinst", 0), get("gpr_index", 0), get("gpr_value", 0))
        else:
            self._exit_fire()
            payload = (get("htval", 0), 0, 0, 0) if kind == "shared_fault" else (0, 0, 0, 0)

        # Hardware trap into M mode (the SM's trap vector): mstatus
        # records the interrupted guest mode, mepc/mcause the context.
        mstatus = status.encode_trap_entry(hart.csrs.read_raw("mstatus"), hart.mode)
        hart.csrs.write_raw("mstatus", mstatus)
        hart.csrs.write_raw("mepc", vcpu.pc)
        hart.csrs.write_raw("mcause", get("cause", 0))
        hart.mode = PrivilegeMode.M

        vcpu.save_from(hart)
        vcpu.exit_context = dict(exit_info)
        cvm.exit_count += 1
        cvm.exit_reasons[kind] = cvm.exit_reasons.get(kind, 0) + 1

        # Every slot the exit does not own is cleared, so stale hypervisor
        # data (or a previous exit's payload) cannot echo back through
        # Check-after-Load.  In the no-shared-vCPU baseline the entire
        # sanitised state additionally crosses (the plan's VALIDATE
        # charge); the exchange page is a superset carrier in both designs.
        cvm.shared_vcpus[vcpu.vcpu_id].sm_publish_exit(get("cause", 0), *payload)

        # Close the secure pool and drop translations that reach it (the
        # plan fired the PMP toggle + hfence.gvma charges above).
        self.pmp.close_pool(hart, charge=False)
        self.translator.tlb.flush_all()

        delegation.NORMAL_MODE.apply(hart)

        # mret to the hypervisor: MPP=S, MPV=0.
        mstatus = status.with_mpp(hart.csrs.read_raw("mstatus"), PrivilegeMode.HS.level)
        mstatus &= ~status.MSTATUS_MPV
        hart.mode = status.mret_target(mstatus)
        hart.csrs.write_raw("mstatus", status.encode_mret(mstatus))
        vcpu.state = vcpu.state.__class__.WAITING_HYP
        events = self.ledger.events
        if events is not None:
            events.record(
                "cvm_exit", cvm=cvm.cvm_id, vcpu=vcpu.vcpu_id,
                reason=exit_info.get("kind"), hart=hart.hart_id,
            )

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
        self._entry_pre_fire()
        mstatus = status.encode_trap_entry(hart.csrs.read_raw("mstatus"), hart.mode)
        hart.csrs.write_raw("mstatus", mstatus)
        hart.mode = PrivilegeMode.M

        shared = cvm.shared_vcpus[vcpu.vcpu_id]
        reply: dict = {}
        if vcpu.exit_context is not None:
            events = self.ledger.events
            if events is not None:
                events.record("cvm_reply", cvm=cvm.cvm_id, vcpu=vcpu.vcpu_id, hart=hart.hart_id)
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

        self._entry_post_fire()
        vcpu.restore_to(hart)
        delegation.CVM_MODE.apply(hart)

        # Open the secure pool for CVM mode and flush stale translations
        # (PMP toggle + hfence.gvma charges fired by the entry plan).
        self.pmp.open_pool(hart, charge=False)
        self.translator.tlb.flush_all()

        # mret into the guest: MPP=S with MPV=1 selects VS mode.
        mstatus = status.with_mpp(hart.csrs.read_raw("mstatus"), PrivilegeMode.VS.level)
        mstatus |= status.MSTATUS_MPV
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
            # Masked here, so the secure vCPU only ever holds 64-bit words.
            vcpu.pc = (vcpu.pc + reply["sepc_advance"]) & _MASK64
            vcpu.csrs["sepc"] = vcpu.pc
            self.ledger.charge(Category.REG_SAVE, self.costs.field_copy)
        if reply.get("pending_irq"):
            vcpu.csrs["hvip"] |= reply["pending_irq"]
            self.ledger.charge(Category.REG_SAVE, self.costs.field_copy)
