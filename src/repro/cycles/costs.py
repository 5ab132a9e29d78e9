"""Calibrated primitive cycle costs.

Every constant is the cost, in cycles on the paper's platform (4x Rocket @
100 MHz on a Genesys2 FPGA), of one primitive architectural action.  Complex
operation costs -- a CVM world switch, a stage-2 page fault -- are *not*
constants anywhere in this package: they emerge from the sequence of
primitives the simulated software actually executes, so a change to e.g. the
world-switch code path changes the measured numbers the way it would on
hardware.

Calibration: the primitives were fit so that the paper's four
microbenchmarks (shared-vCPU switch, short-vs-long path switch, and the
three stage-2 fault paths; DESIGN.md section 4, experiments E1-E3) land
close to the reported absolute cycle counts.  The macrobenchmarks (E4-E7)
are then emergent.  Constants whose absolute value is dominated by platform
effects we cannot model (cold M-mode instruction caches, Linux
get_user_pages) are marked "measurement-calibrated" below.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class CycleCosts:
    """Primitive action costs in cycles.

    Instances are immutable; experiments that vary a cost (ablations) build
    a modified copy with :func:`dataclasses.replace`.

    Every field is a cost, never a count.  How many CSRs a world switch
    moves lives beside the code that moves them (``GUEST_CSRS`` in
    ``sm/vcpu.py``, ``HYP_CSR_COUNT`` in ``sm/world_switch.py``,
    ``KVM_CSR_COUNT`` in ``hyp/hypervisor.py``), so doubling every field
    doubles each E1/E2 switch exactly.
    """

    # --- privilege / trap plumbing -------------------------------------
    #: Hardware trap entry into M mode (pipeline flush, mepc/mcause update).
    trap_to_m: int = 250
    #: Hardware trap entry into HS mode.
    trap_to_hs: int = 220
    #: Hardware trap entry into VS mode (delegated to the guest kernel).
    trap_to_vs: int = 160
    #: mret / sret back to a lower privilege level.
    xret: int = 120
    #: SM ECALL dispatch overhead (argument decode, function table jump).
    ecall_dispatch: int = 90

    # --- register state movement (per register; the counts are not here) -
    #: Save or restore one general-purpose register (store/load + addr gen).
    gpr_save: int = 4
    #: Read one CSR.
    csr_read: int = 8
    #: Write one CSR.
    csr_write: int = 10
    #: Copy one 64-bit field between in-memory structures.
    field_copy: int = 6
    #: Check-after-Load validation of one shared-vCPU field (range check,
    #: bounds check against the vCPU's declared exit cause).
    validate_field: int = 23
    #: Sanitising copy of one field of the *full* vCPU state (the
    #: unoptimised, no-shared-vCPU marshalling path).
    sanitize_field: int = 16

    # --- memory isolation hardware -------------------------------------
    #: Reprogram one PMP entry (pmpaddr + pmpcfg writes, internal sync).
    pmp_entry_write: int = 45
    #: Reprogram one IOPMP entry via its MMIO programming interface.
    iopmp_entry_write: int = 60
    #: Fence after a PMP/IOPMP change (sfence + pipeline drain).
    pmp_fence: int = 200
    #: hfence.gvma -- flush guest-physical translations.
    tlb_flush_gvma: int = 600
    #: sfence.vma for a single page.
    tlb_flush_page: int = 150

    # --- address translation --------------------------------------------
    #: One level of a page-table walk (one memory read + PTE decode).
    page_walk_level: int = 60
    #: TLB hit (effectively free; charged to keep the model honest).
    tlb_hit: int = 1

    # --- memory movement -------------------------------------------------
    #: Bulk copy cost per byte (SWIOTLB bounce buffers, DMA; ~3 B/cycle
    #: sustained on the FPGA memory system).
    copy_per_byte: float = 0.35
    #: Zeroing cost per byte (store-only streaming; faster than copy).
    zero_per_byte: float = 0.125

    # --- Secure Monitor internals ----------------------------------------
    #: Fixed SM bookkeeping on the CVM *exit* path (exit-reason record,
    #: vCPU state-machine update, interrupt sync).
    sm_exit_logic: int = 420
    #: Fixed SM bookkeeping on the CVM *entry* path (run-state checks,
    #: pending-interrupt scan, time compensation, measurement-log touch).
    #: Measurement-calibrated: dominated by cold-icache M-mode execution.
    sm_entry_logic: int = 2019
    #: SM-side decode of a trapped MMIO instruction (htinst parse, GPR
    #: index extraction) on an MMIO exit.
    sm_mmio_decode: int = 112
    #: Pop one page from a vCPU's page cache (stage-1 allocation).
    page_cache_pop: int = 120
    #: Unlink one secure memory block from the circular list head (stage 2).
    block_unlink: int = 240
    #: Initialise one page-cache slot when a block becomes a vCPU cache.
    cache_slot_init: int = 53
    #: Per-block cost of registering/dividing new pool memory (stage 3).
    block_register: int = 150
    #: Acquire/release of the global pool lock (only the shared-list
    #: paths pay it; the per-vCPU page cache is lock-free -- the paper's
    #: stage-1 rationale).
    pool_lock_cost: int = 420
    #: Frame-ownership security check on every SM-side map operation.
    ownership_check: int = 300
    #: Fixed SM fault-path cost common to all three allocation stages.
    #: Measurement-calibrated: M-mode handler with cold caches at 100 MHz.
    sm_fault_fixed: int = 29470
    #: Per-ECALL SM bookkeeping on the inter-CVM channel paths (channel
    #: table lookup, endpoint/state validation, measurement compare).
    channel_bookkeeping: int = 700
    #: Posting one channel doorbell inside the SM (peer hvip update plus
    #: the CLINT MMIO store that raises the IPI).
    channel_doorbell: int = 450

    # --- hypervisor (Normal mode) internals ------------------------------
    #: Hypervisor scheduler pass on a timer tick.
    hyp_sched_pass: int = 800
    #: KVM VM-exit handler fixed cost (exit-reason decode, vcpu put).
    kvm_exit_logic: int = 380
    #: KVM VM-entry fixed cost (vcpu load, interrupt window checks).
    kvm_entry_logic: int = 520
    #: KVM fixed stage-2 fault cost (memslot lookup, gfn_to_pfn /
    #: get_user_pages, mmu lock).  Measurement-calibrated: dominated by the
    #: Linux gup path at 100 MHz.
    kvm_fault_fixed: int = 36541
    #: KVM stage-2 PTE install (mmu cache, dirty log).
    kvm_pte_install: int = 700
    #: Hypervisor-side cost of allocating + registering a contiguous region
    #: during secure-pool expansion (stage-3 allocation).
    hyp_expand_cost: int = 6438
    #: QEMU MMIO emulation dispatch (address decode, device model call).
    qemu_mmio_dispatch: int = 900
    #: PLIC claim + complete round trip (two device-register accesses).
    plic_claim_cost: int = 260
    #: Send one CLINT IPI (MMIO write) plus the target hart's handler
    #: running the requested fence (cross-hart TLB shootdown).
    ipi_shootdown_cost: int = 950
    #: virtio device queue processing per request (descriptor walk, used
    #: ring update), excluding data movement.
    virtio_request_fixed: int = 1400
    #: Guest-side virtio driver per-request cost (descriptor setup).
    virtio_driver_fixed: int = 900

    # --- baseline long-path secure hypervisor (E2 comparison) ------------
    #: Secure-hypervisor bookkeeping on CVM entry (its scheduler / state
    #: tracking), excluding the extra privilege switches which are charged
    #: from primitives.
    sec_hyp_entry_logic: int = 2098
    #: Secure-hypervisor bookkeeping on CVM exit.
    sec_hyp_exit_logic: int = 1791

    # --- guest kernel ------------------------------------------------------
    #: Guest kernel handling of a delegated trap entirely inside VS mode.
    guest_trap_handler: int = 350
    #: Per-request guest syscall overhead (read()/write() entry/exit).
    guest_syscall: int = 2000

    @property
    def gpr_file_save(self) -> int:
        """Save (or restore) the full 31-register GPR file."""
        return 31 * self.gpr_save

    @property
    def csr_swap(self) -> int:
        """Swap one CSR (read old + write new)."""
        return self.csr_read + self.csr_write

    def copy_bytes(self, n: int) -> int:
        """Cycles to bulk-copy ``n`` bytes."""
        return int(n * self.copy_per_byte)

    def zero_bytes(self, n: int) -> int:
        """Cycles to zero ``n`` bytes."""
        return int(n * self.zero_per_byte)


#: The default, paper-calibrated cost table.
DEFAULT_COSTS = CycleCosts()
