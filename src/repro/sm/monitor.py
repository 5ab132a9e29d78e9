"""The Secure Monitor: ZION's trusted computing base (paper section III-A).

The :class:`SecureMonitor` owns everything security-relevant: the secure
memory pool and its PMP/IOPMP coverage, every CVM's stage-2 page table,
the secure vCPU structures, the ECALL interface used by the hypervisor to
drive CVM lifecycles and by confidential VMs to obtain attestation
services, and the stage-2 guest-page-fault path with its three-stage
hierarchical allocation.
"""

from __future__ import annotations

import itertools

from repro.cycles import Category, CycleCosts, CycleLedger
from repro.errors import EcallError, MemoryError_, SecurityViolation, TrapRaised
from repro.isa.traps import AccessType
from repro.mem.physmem import PAGE_SIZE
from repro.sm.abi import SHARED_SUBTREE_SPAN, CvmDescriptor
from repro.sm.alloc import AllocStage, HierarchicalAllocator, PoolExhausted
from repro.sm.attestation import AttestationReport, AttestationService
from repro.sm.channel import ChannelManager
from repro.sm.cvm import ConfidentialVm, CvmState, GpaLayout
from repro.sm.secmem import OWNER_SM, SecureMemoryPool
from repro.sm.share import SplitTableManager
from repro.sm.vcpu import SHARED_VCPU_SIZE, SharedVcpu
from repro.sm.world_switch import WorldSwitch


class _MetadataAllocator:
    """SM-internal allocator for page tables and CVM roots.

    Draws whole blocks from the pool (tagged ``OWNER_SM``) and
    bump-allocates aligned runs of pages from them, so all SM metadata --
    in particular every CVM page table -- physically lives inside the
    PMP-protected pool (the paper's controlled-channel defence).
    """

    def __init__(self, pool: SecureMemoryPool):
        self._pool = pool
        self._cursor = 0
        self._block_end = 0

    def alloc(self, size: int = PAGE_SIZE, align: int = PAGE_SIZE) -> int:
        if size % PAGE_SIZE:
            raise ValueError("metadata allocations are page-granular")
        aligned = (self._cursor + align - 1) & ~(align - 1)
        if aligned + size > self._block_end:
            block = self._pool.alloc_block(owner=OWNER_SM)
            if block is None:
                raise PoolExhausted("no pool space for SM metadata")
            self._cursor = block.base
            self._block_end = block.end
            aligned = (self._cursor + align - 1) & ~(align - 1)
            if aligned + size > self._block_end:
                raise ValueError(f"metadata allocation {size:#x} exceeds a block")
        self._cursor = aligned + size
        return aligned


class SecureMonitor:
    """The M-mode security monitor."""

    def __init__(
        self,
        bus,
        translator,
        pmp_controller,
        ledger: CycleLedger,
        costs: CycleCosts,
        device_secret: bytes = b"zion-device-secret",
        entropy_seed: bytes = b"zion-entropy",
        use_shared_vcpu: bool = True,
        long_path: bool = False,
        block_size: int | None = None,
        use_page_cache: bool = True,
    ):
        self.bus = bus
        self.dram = bus.dram
        self.translator = translator
        self.pmp = pmp_controller
        self.ledger = ledger
        self.costs = costs
        self.pool = SecureMemoryPool(**({"block_size": block_size} if block_size else {}))
        #: Ablation switch forwarded to every CVM's allocator.
        self.use_page_cache = use_page_cache
        self.metadata = _MetadataAllocator(self.pool)
        self.split = SplitTableManager(self.pool, self.dram, ledger, costs)
        # Precompiled fixed-cost charges for the stage-2 fault path (the
        # hottest SM code): identical charges, no per-call dispatch.
        self._charge_trap_to_m = ledger.charger(Category.TRAP, costs.trap_to_m)
        self._charge_fault_fixed = ledger.charger(Category.SM_LOGIC, costs.sm_fault_fixed)
        self._charge_zero_page = ledger.charger(Category.SM_LOGIC, costs.zero_bytes(PAGE_SIZE))
        self._charge_xret = ledger.charger(Category.TRAP, costs.xret)
        self.attestation = AttestationService(device_secret, entropy_seed)
        self.world_switch = WorldSwitch(
            ledger,
            costs,
            translator,
            pmp_controller,
            use_shared_vcpu=use_shared_vcpu,
            long_path=long_path,
        )
        self.channels = ChannelManager(self)
        self.cvms: dict[int, ConfidentialVm] = {}
        self._allocators: dict[int, HierarchicalAllocator] = {}
        self._cvm_blocks: dict[int, list] = {}
        self._ids = itertools.count(1)
        self._vmids = itertools.count(1)
        #: MAC tags of migration blobs already imported on this host; the
        #: SM refuses a second import of the same sealed instance so the
        #: untrusted hypervisor cannot clone a CVM by replaying its blob.
        self.migration_imports: set = set()
        #: Monotonic export freshness counter, mixed into every sealed
        #: blob so two exports are never byte-identical -- without it, a
        #: CVM bounced back and forth unchanged would reseal to the same
        #: blob and trip the peer's replay registry on a *legitimate*
        #: second arrival.
        self.migration_export_seq = 0
        #: Set by :meth:`connect_hypervisor`; required for stage-3 expansion.
        self.hypervisor = None
        #: Platform CLINT for cross-hart shootdowns; installed by the machine.
        self.clint = None
        #: Per-stage fault-handling statistics for the E3 experiment.
        self.fault_stage_counts = {stage: 0 for stage in AllocStage}

    def connect_hypervisor(self, hypervisor) -> None:
        """Install the Normal-mode callback target (stage-3 expansion)."""
        self.hypervisor = hypervisor

    # ------------------------------------------------------------------
    # ECALLs from the hypervisor (Normal mode)
    # ------------------------------------------------------------------

    def ecall_register_pool_memory(self, base: int, size: int) -> int:
        """Donate contiguous physical memory to the secure pool.

        Divides the region into blocks (charged per block), covers it with
        PMP + IOPMP, and scrubs it.  Returns the number of blocks created.
        """
        self._charge_ecall("ecall_register_pool_memory")
        count = self.pool.register_region(base, size)
        self.ledger.charge(Category.ALLOC, count * self.costs.block_register)
        self.pmp.add_pool_region(base, size)
        # Donated memory is dropped, not synchronously scrubbed: pages are
        # zeroed lazily when first handed to a CVM (the fault path), so
        # stage-3 expansion stays bounded no matter the chunk size.
        self.dram.zero_range(base, size)
        self.translator.hfence_gvma()
        # PMP coverage changed on every hart: the other harts must fence
        # too before they can observe the new configuration (cross-hart
        # shootdown via CLINT IPIs).
        self._cross_hart_shootdown()
        return count

    def _cross_hart_shootdown(self, initiator: int = 0) -> None:
        """IPI every other hart to run a local fence (PMP/TLB sync)."""
        if self.clint is None:
            return
        self.clint.broadcast_ipi(exclude=initiator)
        for hart_id in range(self.clint.hart_count):
            if hart_id == initiator:
                continue
            # The target hart takes the IPI, fences, and acks.
            self.ledger.charge(Category.TLB, self.costs.ipi_shootdown_cost)
            self.clint.clear_ipi(hart_id)

    def ecall_create_cvm(self, layout: GpaLayout | None = None, vcpu_count: int = 1) -> int:
        """Create a CVM: allocate and zero its 16 KB stage-2 root."""
        self._charge_ecall("ecall_create_cvm")
        if vcpu_count < 1:
            raise EcallError("a CVM needs at least one vCPU")
        layout = layout or GpaLayout()
        cvm = ConfidentialVm(next(self._ids), next(self._vmids), layout, vcpu_count)
        root = self.metadata.alloc(size=16 * 1024, align=16 * 1024)
        self.dram.zero_range(root, 16 * 1024)
        self.ledger.charge(Category.SM_LOGIC, self.costs.zero_bytes(16 * 1024))
        cvm.hgatp_root = root
        self.cvms[cvm.cvm_id] = cvm
        self._allocators[cvm.cvm_id] = HierarchicalAllocator(
            self.pool, self.ledger, self.costs, use_page_cache=self.use_page_cache
        )
        self._cvm_blocks[cvm.cvm_id] = []
        cvm.measurement_log.extend(
            "layout",
            repr((layout.dram_base, layout.dram_size, layout.shared_base)).encode(),
        )
        return cvm.cvm_id

    def ecall_assign_shared_vcpu(self, cvm_id: int, vcpu_id: int, base_pa: int) -> None:
        """The hypervisor donates a normal page as the shared vCPU area."""
        self._charge_ecall("ecall_assign_shared_vcpu")
        cvm = self._cvm(cvm_id)
        cvm.require_state(CvmState.CREATED)
        # Check-after-Load: vcpu_id arrives in a hypervisor register; an
        # unvalidated value would wrap negatively or raise IndexError
        # straight through the ABI's error mapping (simulator crash).
        if not 0 <= vcpu_id < len(cvm.shared_vcpus):
            raise EcallError(f"CVM {cvm_id} has no vCPU {vcpu_id}")
        if self.pool.contains(base_pa, SHARED_VCPU_SIZE):
            raise SecurityViolation("shared vCPU area must be normal memory")
        # The exchange is written and read a run of slots at a time, so
        # the area is a whole DRAM page, as the host donates it.
        if base_pa % PAGE_SIZE or not self.dram.contains(base_pa, PAGE_SIZE):
            raise EcallError(f"shared vCPU area {base_pa:#x} is not a DRAM page")
        cvm.shared_vcpus[vcpu_id] = SharedVcpu(base_pa, self.bus)

    def ecall_load_image(self, cvm_id: int, gpa: int, data: bytes) -> None:
        """Copy guest image bytes into newly allocated private pages."""
        self._charge_ecall("ecall_load_image")
        cvm = self._cvm(cvm_id)
        cvm.require_state(CvmState.CREATED)
        if gpa % PAGE_SIZE:
            raise EcallError("image load GPA must be page-aligned")
        offset = 0
        while offset < len(data):
            page_gpa = gpa + offset
            chunk = data[offset : offset + PAGE_SIZE]
            pa = self._alloc_and_map(cvm, 0, page_gpa)
            self.dram.write(pa, chunk)
            self.ledger.charge(Category.COPY, self.costs.copy_bytes(len(chunk)))
            offset += PAGE_SIZE
        cvm.measurement_log.extend(f"image@{gpa:#x}", data)

    def ecall_set_entry_point(self, cvm_id: int, vcpu_id: int, pc: int) -> None:
        """Set a vCPU's boot PC (measured into the launch digest)."""
        self._charge_ecall("ecall_set_entry_point")
        cvm = self._cvm(cvm_id)
        cvm.require_state(CvmState.CREATED)
        vcpu = cvm.vcpu(vcpu_id)
        # The secure vCPU holds only 64-bit words: entry installs it as is.
        if not (isinstance(pc, int) and 0 <= pc < 1 << 64):
            raise EcallError(f"entry point {pc!r} is not a 64-bit address")
        vcpu.pc = pc
        vcpu.csrs["sepc"] = pc
        cvm.measurement_log.extend(f"entry@{vcpu_id}", pc.to_bytes(8, "little"))

    def ecall_finalize(self, cvm_id: int) -> bytes:
        """Seal the launch measurement; the CVM becomes runnable."""
        self._charge_ecall("ecall_finalize")
        cvm = self._cvm(cvm_id)
        cvm.require_state(CvmState.CREATED)
        for vcpu in cvm.vcpus:
            if cvm.shared_vcpus[vcpu.vcpu_id] is None:
                raise EcallError(
                    f"vCPU {vcpu.vcpu_id} has no shared vCPU area assigned"
                )
        digest = cvm.measurement_log.finalize()
        if cvm.measurement is None:
            cvm.measurement = digest
        # (A migrated-in CVM keeps its original launch measurement; the
        # local log still records the migration event.)
        cvm.state = CvmState.FINALIZED
        return cvm.measurement

    def ecall_link_shared_subtree(self, cvm_id: int, root_index: int, table_pa: int) -> None:
        """Link a hypervisor-managed shared-region subtree (section IV-E)."""
        self._charge_ecall("ecall_link_shared_subtree")
        cvm = self._cvm(cvm_id)
        cvm.require_state(CvmState.CREATED, CvmState.FINALIZED, CvmState.RUNNING)
        # A first link installs into an empty shared root slot (the SM
        # never maps the shared half), so nothing stale can be cached.
        # A *re*-link swaps out a live subtree, and any translation the
        # hart walked through the old table may still sit in the TLB --
        # exactly the stale-translation window ZL4 exists for -- so the
        # swap is fenced by VMID.
        relink = root_index in cvm.shared_subtrees
        self.split.link_shared_subtree(cvm, root_index, table_pa)
        if relink:
            self.translator.hfence_gvma(cvm.vmid)

    def ecall_suspend(self, cvm_id: int) -> None:
        """Park a runnable CVM (required before migration export)."""
        self._charge_ecall("ecall_suspend")
        cvm = self._cvm(cvm_id)
        cvm.require_state(CvmState.FINALIZED, CvmState.RUNNING)
        cvm.state = CvmState.SUSPENDED

    def ecall_resume(self, cvm_id: int) -> None:
        """Return a suspended CVM to the runnable state."""
        self._charge_ecall("ecall_resume")
        cvm = self._cvm(cvm_id)
        cvm.require_state(CvmState.SUSPENDED)
        cvm.state = CvmState.FINALIZED

    def ecall_describe_cvm(self, cvm_id: int) -> CvmDescriptor:
        """Host-visible summary of a CVM (the DESCRIBE_CVM ECALL).

        The sanctioned way for the hypervisor to learn a CVM's shape --
        vCPU count and GPA layout -- when provisioning host resources
        for a CVM it did not create (migration adopt path).  Exposes
        nothing the host could not already observe at creation time.
        """
        self._charge_ecall("ecall_describe_cvm")
        cvm = self._cvm(cvm_id)
        return CvmDescriptor(
            cvm_id=cvm.cvm_id,
            vcpu_count=len(cvm.vcpus),
            layout=cvm.layout,
            state=cvm.state.value,
        )

    def ecall_destroy(self, cvm_id: int) -> None:
        """Destroy a CVM: scrub every owned frame, recycle its blocks."""
        self._charge_ecall("ecall_destroy")
        cvm = self._cvm(cvm_id)
        cvm.require_state(
            CvmState.CREATED, CvmState.FINALIZED, CvmState.RUNNING, CvmState.SUSPENDED
        )
        # Channels die with either endpoint: unmap from both sides and
        # scrub the windows *before* the CVM's own frames are recycled.
        self.channels.on_cvm_destroyed(cvm_id)
        for page in self.pool.pages_owned_by(cvm.cvm_id):
            self.dram.zero_range(page, PAGE_SIZE)
            self.ledger.charge(Category.SM_LOGIC, self.costs.zero_bytes(PAGE_SIZE))
            self.pool.set_page_owner(page, "free")
        allocator = self._allocators[cvm.cvm_id]
        for block in allocator.release_all(cvm.cvm_id) + self._cvm_blocks[cvm.cvm_id]:
            if block.owner is not None:
                self.pool.free_block(block)
        self._cvm_blocks[cvm.cvm_id] = []
        self.translator.hfence_gvma(cvm.vmid)
        cvm.state = CvmState.DESTROYED

    # ------------------------------------------------------------------
    # ECALLs from confidential VMs (CVM mode)
    # ------------------------------------------------------------------

    def ecall_attestation_report(self, cvm_id: int, report_data: bytes = b"") -> AttestationReport:
        """Sign a report over the launch measurement, RTMRs and user data."""
        self._charge_ecall("ecall_attestation_report")
        cvm = self._cvm(cvm_id)
        if cvm.measurement is None:
            raise EcallError("CVM is not finalized; no measurement exists")
        self.ledger.charge(Category.SM_LOGIC, 4000)  # HMAC over the report
        import hashlib

        rtmr_digest = hashlib.sha256(b"".join(cvm.rtmrs)).digest()
        return self.attestation.sign_report(
            cvm.cvm_id, cvm.measurement, report_data, rtmr_digest=rtmr_digest
        )

    def ecall_extend_rtmr(self, cvm_id: int, index: int, data: bytes) -> bytes:
        """Guest-side runtime measurement extension (RTMR-style).

        ``rtmr[index] = SHA-256(rtmr[index] || SHA-256(data))`` -- the
        standard extend operation, so a verifier can replay an event log.
        Returns the new register value.
        """
        import hashlib

        self._charge_ecall("ecall_extend_rtmr")
        cvm = self._cvm(cvm_id)
        if not 0 <= index < len(cvm.rtmrs):
            raise EcallError(f"no such RTMR: {index}")
        if len(data) > 4096:
            raise EcallError("extend data too large")
        self.ledger.charge(Category.SM_LOGIC, 2_500)  # two hash blocks
        digest = hashlib.sha256(data).digest()
        cvm.rtmrs[index] = hashlib.sha256(cvm.rtmrs[index] + digest).digest()
        return cvm.rtmrs[index]

    def ecall_get_random(self, cvm_id: int, count: int) -> bytes:
        """Platform random bytes from the SM's DRBG (1..512)."""
        self._charge_ecall("ecall_get_random")
        if not 0 < count <= 512:
            raise EcallError("random request must be 1..512 bytes")
        self._cvm(cvm_id)
        self.ledger.charge(Category.SM_LOGIC, 50 * count)
        return self.attestation.random_bytes(count)

    def ecall_guest_share_request(self, hart, cvm_id: int, vcpu_id: int, size: int) -> int:
        """Guest-initiated shared-memory growth (paper V-A: the CVM kernel
        issues shared-memory requests, e.g. to enlarge its SWIOTLB).

        The SM validates the request and relays it to the hypervisor via a
        world switch (only Normal mode can allocate normal memory); the
        hypervisor extends the premapped shared window.  Returns the GPA
        of the newly shared range.
        """
        self._charge_ecall("ecall_guest_share_request")
        cvm = self._cvm(cvm_id)
        if size <= 0 or size % PAGE_SIZE:
            raise EcallError("share request must be a positive page multiple")
        if self.hypervisor is None:
            raise EcallError("no hypervisor connected")
        handle = self.hypervisor.cvm_handles[cvm_id]
        if handle.shared_window_size + size > cvm.layout.shared_size:
            raise EcallError("share request exceeds the shared GPA region")
        if handle.shared_window_size + size > SHARED_SUBTREE_SPAN:
            raise EcallError("share request reaches past the 1 GiB shared subtree")
        vcpu = cvm.vcpu(vcpu_id)
        self.world_switch.exit_to_normal(
            hart, cvm, vcpu, {"kind": "share_request", "cause": 0}
        )
        new_base_gpa = self.hypervisor.on_share_request(self, cvm_id, size)
        self.world_switch.enter_cvm(hart, cvm, vcpu)
        return new_base_gpa

    def ecall_reclaim_pages(self, cvm_id: int, vcpu_id: int, gpa: int, count: int) -> int:
        """Guest returns private pages it no longer needs (ballooning).

        The SM unmaps each page from the stage-2 table, scrubs it, and
        pushes it back onto the vCPU's page cache so subsequent faults
        reuse it at stage-1 cost.  Returns the number of pages reclaimed.
        """
        self._charge_ecall("ecall_reclaim_pages")
        cvm = self._cvm(cvm_id)
        if gpa % PAGE_SIZE:
            raise EcallError("reclaim GPA must be page-aligned")
        # Check-after-Load: the count register bounds SM work below; an
        # unvalidated value lets a guest pin the monitor in this loop
        # (one stage-2 walk per iteration) for arbitrarily long.
        if not 0 <= count <= cvm.layout.dram_size // PAGE_SIZE:
            raise EcallError(f"reclaim count {count} exceeds the private region")
        allocator = self._allocators[cvm_id]
        cache = allocator.cache_for(vcpu_id)
        reclaimed = 0
        for i in range(count):
            page_gpa = gpa + i * PAGE_SIZE
            if not cvm.layout.in_private_dram(page_gpa):
                raise SecurityViolation(
                    f"reclaim of non-private GPA {page_gpa:#x} refused"
                )
            try:
                mapped_pa, _flags = self.translator.gpa_to_pa(
                    cvm.hgatp_root, page_gpa, AccessType.LOAD
                )
            except TrapRaised:
                continue  # not mapped: nothing to reclaim
            # A guest must not reclaim frames it does not own -- in
            # particular channel-window frames mapped at one of its GPAs,
            # which would steal the window into its private page cache.
            if self.pool.owner_of(mapped_pa & ~(PAGE_SIZE - 1)) != cvm.cvm_id:
                raise SecurityViolation(
                    f"reclaim of GPA {page_gpa:#x} refused: frame not owned "
                    f"by CVM {cvm.cvm_id}"
                )
            pa = self.split.unmap_private(cvm, page_gpa)
            self.dram.zero_range(pa, PAGE_SIZE)
            self.ledger.charge(Category.SM_LOGIC, self.costs.zero_bytes(PAGE_SIZE))
            cache._pages.append(pa)
            self.translator.sfence_page(cvm.vmid, page_gpa)
            reclaimed += 1
        return reclaimed

    # ------------------------------------------------------------------
    # Inter-CVM secure channels (extension beyond the paper)
    # ------------------------------------------------------------------

    def ecall_channel_create(
        self, cvm_id: int, window_gpa: int, size: int, expected_peer_measurement: bytes
    ) -> int:
        """Create a channel endpoint; returns the new channel ID."""
        self._charge_ecall("ecall_channel_create")
        cvm = self._cvm(cvm_id)
        cvm.require_state(CvmState.FINALIZED, CvmState.RUNNING)
        return self.channels.create(cvm, window_gpa, size, expected_peer_measurement)

    def ecall_channel_connect(
        self, cvm_id: int, channel_id: int, window_gpa: int,
        expected_creator_measurement: bytes,
    ) -> int:
        """Join an existing channel; returns the window size in bytes."""
        self._charge_ecall("ecall_channel_connect")
        cvm = self._cvm(cvm_id)
        cvm.require_state(CvmState.FINALIZED, CvmState.RUNNING)
        return self.channels.connect(
            cvm, channel_id, window_gpa, expected_creator_measurement
        )

    def ecall_channel_notify(self, cvm_id: int, channel_id: int) -> int:
        """Ring the peer's doorbell; returns its pending doorbell count."""
        self._charge_ecall("ecall_channel_notify")
        cvm = self._cvm(cvm_id)
        return self.channels.notify(cvm, channel_id)

    def ecall_channel_close(self, cvm_id: int, channel_id: int) -> None:
        """Close a channel from either endpoint (unmap, scrub, recycle)."""
        self._charge_ecall("ecall_channel_close")
        cvm = self._cvm(cvm_id)
        self.channels.close(cvm, channel_id)

    # ------------------------------------------------------------------
    # Stage-2 guest-page fault handling (paper IV-C/IV-D)
    # ------------------------------------------------------------------

    def handle_guest_page_fault(
        self, hart, cvm: ConfidentialVm, vcpu_id: int, gpa: int, walk=None
    ) -> AllocStage:
        """Resolve a private-DRAM stage-2 fault with hierarchical allocation.

        Returns the allocation stage that satisfied it.  MMIO and
        shared-region faults never reach here (the dispatcher exits to the
        hypervisor for those); a fault outside every known region is a
        security violation and kills the access.  A permission fault on a
        present leaf is refused with :class:`MemoryError_` before any page
        is allocated: demand allocation cannot fix it.

        ``walk`` is the uncharged G-stage walk of ``gpa``
        (:meth:`AddressTranslator.probe_gpa`) its caller made with nothing
        run since; without one -- a trap does not say whether the leaf is
        present -- the handler walks.  The new leaf goes into the walk's
        full-depth slot unless a stage-3 expansion left the SM in between.
        """
        self._charge_trap_to_m()
        self._charge_fault_fixed()
        if not cvm.layout.in_private_dram(gpa):
            raise SecurityViolation(
                f"unresolvable stage-2 fault at GPA {gpa:#x} for CVM {cvm.cvm_id}"
            )
        if walk is None:
            walk = self.translator.probe_gpa(cvm.hgatp_root, gpa)
        if walk[0] is not None:
            raise MemoryError_(
                f"stage-2 fault at GPA {gpa:#x} for CVM {cvm.cvm_id} hit a "
                "present leaf: a permission fault, not a missing page"
            )
        page_gpa = gpa & ~(PAGE_SIZE - 1)
        pa, stage = self._alloc_page_with_expansion(hart, cvm, vcpu_id)
        self.dram.zero_range(pa, PAGE_SIZE)
        self._charge_zero_page()
        self.split.map_private(
            cvm, page_gpa, pa, self._alloc_table_page,
            leaf_slot=0 if stage is AllocStage.POOL_EXPANSION else walk[3],
        )
        self.translator.sfence_page(cvm.vmid, page_gpa)
        self.fault_stage_counts[stage] += 1
        self._charge_xret()
        return stage

    def _alloc_and_map(self, cvm: ConfidentialVm, vcpu_id: int, gpa: int) -> int:
        """Allocation + mapping used by image loading (no fault framing)."""
        pa, _stage = self._alloc_page_with_expansion(None, cvm, vcpu_id)
        self.split.map_private(cvm, gpa, pa, self._alloc_table_page)  # zionlint: disable=ZL4 pre-finalize image load: the CVM has never executed, so no translation is cached
        return pa

    #: Pool-expansion attempts per allocation before the SM gives up.  The
    #: hypervisor is untrusted: it may donate nothing (or a short chunk),
    #: so a single stage-3 round trip is not guaranteed to produce a page.
    EXPANSION_ATTEMPTS = 3

    def _alloc_page_with_expansion(self, hart, cvm: ConfidentialVm, vcpu_id: int):
        """The three-stage path, escalating to the hypervisor when needed.

        Raises :class:`PoolExhausted` (a contained, typed refusal -- not a
        crash) if the hypervisor fails to donate usable memory after
        :data:`EXPANSION_ATTEMPTS` rounds.
        """
        allocator = self._allocators[cvm.cvm_id]
        try:
            pa, stage = allocator.alloc_page(cvm.cvm_id, vcpu_id)
        except PoolExhausted:
            pa = None
            for _ in range(self.EXPANSION_ATTEMPTS):
                self._request_pool_expansion(hart, cvm, vcpu_id)
                try:
                    pa, _ = allocator.alloc_page(cvm.cvm_id, vcpu_id)
                except PoolExhausted:
                    continue  # hypervisor donated nothing usable; re-ask
                break
            if pa is None:
                raise PoolExhausted(
                    f"hypervisor failed to expand the secure pool after "
                    f"{self.EXPANSION_ATTEMPTS} requests (CVM {cvm.cvm_id})"
                )
            allocator.note_expansion()
            stage = AllocStage.POOL_EXPANSION
        if stage is not AllocStage.PAGE_CACHE:
            # Stages 2 and 3 hand the vCPU a fresh block, which the CVM
            # holds until it is destroyed (the uncached ablation has none).
            block = allocator.cache_for(vcpu_id).block
            if block is not None:
                self._cvm_blocks[cvm.cvm_id].append(block)
        return pa, stage

    def _request_pool_expansion(self, hart, cvm: ConfidentialVm, vcpu_id: int) -> None:
        """Stage 3: leave CVM mode so the hypervisor can donate memory.

        When called outside guest execution (image loading), the expansion
        request is a plain call without the world switch.
        """
        if self.hypervisor is None:
            raise PoolExhausted("secure pool exhausted and no hypervisor connected")
        if hart is None:
            self.ask_host_for_pool_memory()
            return
        vcpu = cvm.vcpu(vcpu_id)
        self.world_switch.exit_to_normal(hart, cvm, vcpu, {"kind": "pool_expand", "cause": 0})
        self.ask_host_for_pool_memory()
        self.world_switch.enter_cvm(hart, cvm, vcpu)

    def ask_host_for_pool_memory(self) -> None:
        """The SM's upcall for stage-3 memory, which an untrusted host may
        ignore -- so an event sink may decline it; callers re-check."""
        events = self.ledger.events
        if events is None or not events.record("pool_expand"):
            self.hypervisor.on_pool_expand_request(self)

    def _alloc_table_page(self) -> int:
        """Fresh zeroed secure page for a stage-2 table level."""
        pa = self.metadata.alloc()
        self.dram.zero_range(pa, PAGE_SIZE)
        self.ledger.charge(Category.SM_LOGIC, self.costs.zero_bytes(PAGE_SIZE))
        return pa

    # ------------------------------------------------------------------

    def _cvm(self, cvm_id: int) -> ConfidentialVm:
        cvm = self.cvms.get(cvm_id)
        if cvm is None:
            raise EcallError(f"no such CVM: {cvm_id}")
        return cvm

    def _charge_ecall(self, name: str) -> None:
        """Charge one ECALL's trap, dispatch and return; ``name`` is the
        ``ecall_*`` method taking it, recorded when a sink is attached."""
        events = self.ledger.events
        if events is not None:
            events.record("ecall", function=name)
        self.ledger.charge(Category.TRAP, self.costs.trap_to_m)
        self.ledger.charge(Category.SM_LOGIC, self.costs.ecall_dispatch)
        self.ledger.charge(Category.TRAP, self.costs.xret)
