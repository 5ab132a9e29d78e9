"""The KVM-like hypervisor (Normal mode, HS privilege).

Fully manages normal VMs (stage-2 tables in normal memory, demand paging
via the KVM fault path) and performs the *untrusted* host half of the CVM
lifecycle: donating shared-vCPU pages, building and linking shared-region
subtrees, premapping the shared window for SWIOTLB, servicing MMIO exits
through the device registry, and expanding the secure pool when the SM
asks (allocation stage 3).

Everything here executes below M mode: its page-table edits and
shared-vCPU accesses go through the PMP-checked bus, so an attempt to
touch secure memory faults exactly as on hardware.
"""

from __future__ import annotations

import struct

from repro.cycles import Category, CycleCosts, CycleLedger
from repro.errors import MemoryError_
from repro.hyp.devices import MmioRegistry
from repro.hyp.vm import CvmHostHandle, NormalVm
from repro.isa.privilege import PrivilegeMode
from repro.mem.frames import FrameAllocator
from repro.mem.pagetable import PTE_D, PTE_R, PTE_U, PTE_V, PTE_W, PTE_X, Sv39x4, pte_pack
from repro.mem.physmem import PAGE_SIZE
from repro.sm.abi import SHARED_SUBTREE_SPAN
from repro.sm.cvm import GpaLayout
from repro.sm.vcpu import SHARED_VCPU_FIELDS

#: Default contiguous chunk donated per pool-expansion request.
DEFAULT_EXPAND_CHUNK = 8 << 20
#: Shared window premapped at CVM creation and adoption (SWIOTLB + rings).
DEFAULT_SHARED_WINDOW = 4 << 20
#: Leaf permissions of every shared-window page.
_SHARED_FLAGS = PTE_R | PTE_W | PTE_U | PTE_D
#: Leaf permissions of a normal VM's demand-mapped page.
_NORMAL_VM_FLAGS = PTE_R | PTE_W | PTE_X | PTE_U | PTE_D
#: Number of CSRs KVM swaps on a normal-VM world switch (smaller than
#: the SM's set: KVM trusts itself and lazily switches several).
KVM_CSR_COUNT = 12


def _shared_window(layout: GpaLayout, window: int | None) -> int:
    """Resolve the default; refuse a window one shared subtree cannot hold."""
    window = DEFAULT_SHARED_WINDOW if window is None else window
    if window < 0 or window % PAGE_SIZE:
        raise ValueError(f"shared window {window:#x} is not a page multiple")
    if window > layout.shared_size:
        raise ValueError("shared window exceeds the layout's shared region")
    if window > SHARED_SUBTREE_SPAN:
        raise ValueError("shared window exceeds the 1 GiB shared subtree")
    return window


class _HypAccessor:
    """PTE accessor running at the hypervisor's privilege (PMP-checked)."""

    def __init__(self, bus, hart):
        self._bus = bus
        self._hart = hart

    def read_u64(self, addr: int) -> int:
        return self._bus.cpu_read_u64(self._hart, addr)

    def write_u64(self, addr: int, value: int) -> None:
        self._bus.cpu_write_u64(self._hart, addr, value)


class Hypervisor:
    """The untrusted host kernel + VMM."""

    def __init__(
        self,
        bus,
        translator,
        allocator: FrameAllocator,
        ledger: CycleLedger,
        costs: CycleCosts,
        expand_chunk: int = DEFAULT_EXPAND_CHUNK,
    ):
        self.bus = bus
        self.translator = translator
        self.allocator = allocator
        self.ledger = ledger
        self.costs = costs
        self.expand_chunk = expand_chunk
        self.devices = MmioRegistry()
        self._sv39x4 = Sv39x4()
        self.normal_vms: list[NormalVm] = []
        self.cvm_handles: dict[int, CvmHostHandle] = {}
        self.pool_expansions = 0
        self.mmio_exits = 0
        #: Monotonic epoch bumped on every hypervisor-side stage-2 table
        #: mutation (normal-VM demand maps and shared-subtree edits), the
        #: counterpart of the SM split manager's epoch (see share.py).
        self.map_generation = 0
        #: Platform interrupt controller; installed by the machine.
        self.plic = None
        #: PLIC source -> device bindings (set by the machine's wiring).
        self.plic_bindings = {}
        #: The hart the host kernel runs on; set by the machine at wiring
        #: time and used for PMP-checked page-table edits in callbacks
        #: that are not passed a hart explicitly.
        self.hart = None
        #: Wake callback installed by the machine's concurrent executor:
        #: called with a CVM id when an inter-CVM channel doorbell targets
        #: one of its vCPUs, so a blocked session re-enters the rotation.
        self.scheduler_wake = None
        #: Channel doorbells observed by the host scheduler (statistics;
        #: the host never learns more than "a doorbell rang").
        self.doorbell_wakeups = 0

    # ------------------------------------------------------------------
    # Normal VM management (the conventional KVM path)
    # ------------------------------------------------------------------

    def create_normal_vm(self, name: str, hart, layout: GpaLayout | None = None) -> NormalVm:
        """Allocate a normal VM and its stage-2 root in normal memory."""
        vm = NormalVm(name, layout)
        root = self.allocator.alloc(size=16 * 1024, align=16 * 1024)
        self.bus.cpu_zero_range(hart, root, 16 * 1024)
        vm.hgatp_root = root
        self.normal_vms.append(vm)
        return vm

    def normal_vm_exit(self, hart) -> None:
        """Charge a VM exit into KVM (trap + state save)."""
        self.ledger.charge(Category.TRAP, self.costs.trap_to_hs)
        self.ledger.charge(Category.HYP_LOGIC, self.costs.kvm_exit_logic)
        self.ledger.charge(
            Category.REG_SAVE,
            self.costs.gpr_file_save + KVM_CSR_COUNT * self.costs.csr_read,
        )
        hart.mode = PrivilegeMode.HS

    def normal_vm_enter(self, hart) -> None:
        """Charge a VM entry from KVM (state restore + sret)."""
        self.ledger.charge(Category.HYP_LOGIC, self.costs.kvm_entry_logic)
        self.ledger.charge(
            Category.REG_SAVE,
            self.costs.gpr_file_save + KVM_CSR_COUNT * self.costs.csr_write,
        )
        self.ledger.charge(Category.TRAP, self.costs.xret)
        hart.mode = PrivilegeMode.VS

    def sched_tick(self) -> None:
        """Scheduler pass on a timer tick."""
        self.ledger.charge(Category.HYP_LOGIC, self.costs.hyp_sched_pass)

    def on_channel_doorbell(self, cvm_id: int) -> None:
        """An inter-CVM doorbell IPI landed: run a scheduler pass and wake
        the target CVM's session if it was blocked waiting for one.

        The SM already injected the VSEI; the host only sees the CLINT
        kick and reschedules -- it cannot observe the channel contents.
        """
        self.doorbell_wakeups += 1
        self.ledger.charge(Category.HYP_LOGIC, self.costs.hyp_sched_pass)
        if self.scheduler_wake is not None:
            self.scheduler_wake(cvm_id)

    def handle_normal_stage2_fault(self, hart, vm: NormalVm, gpa: int, walk=None) -> int:
        """KVM's stage-2 fault path: allocate a frame, map it, return PA.

        The dominant cost is the measurement-calibrated ``kvm_fault_fixed``
        (memslot lookup + get_user_pages + mmu lock on the paper's 100 MHz
        platform); the PTE installation is charged on top.  A permission
        fault on a present leaf is refused with :class:`MemoryError_`
        before any frame is allocated: demand mapping cannot fix it.

        ``walk`` is as for :meth:`SecureMonitor.handle_guest_page_fault`:
        the caller's uncharged ``probe_gpa`` of ``gpa``, or ``None`` to
        walk here.  The leaf goes into the walk's full-depth slot with one
        PMP-checked store; a missing table (slot 0) takes ``Sv39x4.map``.
        """
        self.ledger.charge(Category.HYP_LOGIC, self.costs.kvm_fault_fixed)
        if walk is None:
            walk = self.translator.probe_gpa(vm.hgatp_root, gpa)
        if walk[0] is not None:
            raise MemoryError_(
                f"stage-2 fault at GPA {gpa:#x} of VM {vm.name!r} hit a "
                "present leaf: a permission fault, not a missing page"
            )
        page_gpa = gpa & ~(PAGE_SIZE - 1)
        pa = self._alloc_zeroed_page(hart)
        self.ledger.charge(Category.HYP_LOGIC, self.costs.zero_bytes(PAGE_SIZE))
        leaf_slot = walk[3]
        if leaf_slot:
            self.bus.cpu_write_u64(hart, leaf_slot, pte_pack(pa, _NORMAL_VM_FLAGS | PTE_V))
        else:
            self._sv39x4.map(
                _HypAccessor(self.bus, hart), vm.hgatp_root, page_gpa, pa,
                _NORMAL_VM_FLAGS, alloc_table=lambda: self._alloc_zeroed_page(hart),
            )
        self.map_generation += 1
        self.ledger.charge(Category.HYP_LOGIC, self.costs.kvm_pte_install)
        self.translator.sfence_page(vm.vmid, page_gpa)
        vm.fault_count += 1
        return pa

    def _alloc_zeroed_page(self, hart) -> int:
        pa = self.allocator.alloc()
        self.bus.cpu_zero_range(hart, pa, PAGE_SIZE)
        return pa

    # ------------------------------------------------------------------
    # CVM host-side lifecycle
    # ------------------------------------------------------------------

    def host_create_cvm(
        self,
        monitor,
        hart,
        layout: GpaLayout | None = None,
        vcpu_count: int = 1,
        image: bytes = b"",
        image_gpa: int | None = None,
        entry_pc: int | None = None,
        shared_window: int | None = None,
    ) -> CvmHostHandle:
        """Drive the full CVM creation ECALL sequence against the SM.

        Returns the host handle.  ``shared_window`` bytes of the shared
        region (default 4 MB, enough for SWIOTLB + rings) are premapped to
        normal frames through the hypervisor-managed shared subtree.
        """
        layout = layout or GpaLayout()
        window = _shared_window(layout, shared_window)
        cvm_id = monitor.ecall_create_cvm(layout, vcpu_count)
        handle = CvmHostHandle(cvm_id, layout)
        self.cvm_handles[cvm_id] = handle
        self._provision(monitor, hart, handle, vcpu_count, window)
        if image:
            gpa = image_gpa if image_gpa is not None else layout.dram_base
            monitor.ecall_load_image(cvm_id, gpa, image)
        pc = entry_pc if entry_pc is not None else layout.dram_base
        monitor.ecall_set_entry_point(cvm_id, 0, pc)
        monitor.ecall_finalize(cvm_id)
        return handle

    def host_adopt_cvm(self, monitor, hart, cvm_id: int, shared_window: int | None = None) -> CvmHostHandle:
        """Provision host resources for an SM-created CVM (e.g. migrated in).

        Performs the same donation sequence as creation -- shared vCPU
        pages, shared subtree, premapped window -- then finalizes.  The
        CVM's shape (vCPU count, GPA layout) comes from the DESCRIBE_CVM
        ECALL: the host never touches the SM's CVM registry directly.
        """
        descriptor = monitor.ecall_describe_cvm(cvm_id)
        window = _shared_window(descriptor.layout, shared_window)
        handle = CvmHostHandle(cvm_id, descriptor.layout)
        self.cvm_handles[cvm_id] = handle
        self._provision(monitor, hart, handle, descriptor.vcpu_count, window)
        monitor.ecall_finalize(cvm_id)
        return handle

    def _provision(self, monitor, hart, handle: CvmHostHandle, vcpu_count: int, window: int) -> None:
        """Donate shared-vCPU pages, link a shared subtree, premap ``window``."""
        for vcpu_id in range(vcpu_count):
            page = self._alloc_zeroed_page(hart)
            monitor.ecall_assign_shared_vcpu(handle.cvm_id, vcpu_id, page)
            handle.shared_vcpu_pages[vcpu_id] = page
        shared_base = handle.layout.shared_base
        subtree = self._alloc_zeroed_page(hart)
        handle.shared_subtrees[shared_base >> 30] = subtree
        monitor.ecall_link_shared_subtree(handle.cvm_id, shared_base >> 30, subtree)
        backing = self.allocator.alloc(size=window)
        handle.shared_window_base = backing
        handle.shared_window_size = window
        self._map_range_in_subtree(hart, subtree, shared_base, backing, window, _SHARED_FLAGS)

    def _map_range_in_subtree(self, hart, subtree: int, gpa: int, pa: int, size: int, flags: int) -> None:
        """Map page-aligned ``gpa -> pa`` for ``size`` bytes under a shared
        level-1 table (one 1 GiB stage-2 root slot) the hypervisor owns.

        A range's PTEs in one leaf table are consecutive words, so each run
        is written with one PMP-checked store: a denial anywhere faults
        before any of it lands.  Epoch and PAGE_WALK still count per page.
        """
        offset = gpa & (SHARED_SUBTREE_SPAN - 1)
        end = offset + size
        if end > SHARED_SUBTREE_SPAN:
            raise ValueError(f"shared range {gpa:#x}+{size:#x} reaches past its 1 GiB subtree")
        pte = (pa >> 12) << 10 | flags | PTE_V
        while offset < end:
            slot = subtree + 8 * (offset >> 21)
            level1_pte = self.bus.cpu_read_u64(hart, slot)
            if level1_pte & PTE_V:
                leaf_table = (level1_pte >> 10) << 12
            else:
                leaf_table = self._alloc_zeroed_page(hart)
                self.bus.cpu_write_u64(hart, slot, (leaf_table >> 12) << 10 | PTE_V)
            run_end = min(end, (offset | 0x1FFFFF) + 1)
            count = (run_end - offset) >> 12
            run = struct.pack(f"<{count}Q", *range(pte, pte + (count << 10), 1 << 10))
            self.bus.cpu_write(hart, leaf_table + 8 * ((offset >> 12) & 0x1FF), run)
            self.map_generation += count
            self.ledger.charge(Category.PAGE_WALK, count * int(2 * self.costs.page_walk_level))
            pte += count << 10
            offset = run_end

    def shared_gpa_to_hpa(self, handle: CvmHostHandle, gpa: int) -> int:
        """Device-side translation through the hypervisor's shared view.

        Performs a real walk of the hypervisor-owned shared subtree (the
        same table pages linked under the CVM's stage-2 root), so it stays
        correct for windows extended by guest share requests regardless
        of backing contiguity.
        """
        layout = handle.layout
        if not layout.in_shared(gpa):
            raise ValueError(f"GPA {gpa:#x} is not in the shared region")
        subtree = handle.shared_subtrees.get(gpa >> 30)
        if subtree is None:
            raise ValueError(f"no shared subtree covers GPA {gpa:#x}")
        self.ledger.charge(Category.PAGE_WALK, 2 * self.costs.page_walk_level)
        level1_pte = self.bus.cpu_read_u64(self.hart, subtree + 8 * ((gpa >> 21) & 0x1FF))
        if not level1_pte & 1:
            raise ValueError(f"shared GPA {gpa:#x} beyond the premapped window")
        leaf_table = (level1_pte >> 10) << 12
        leaf_pte = self.bus.cpu_read_u64(self.hart, leaf_table + 8 * ((gpa >> 12) & 0x1FF))
        if not leaf_pte & 1:
            raise ValueError(f"shared GPA {gpa:#x} beyond the premapped window")
        return ((leaf_pte >> 10) << 12) | (gpa & (PAGE_SIZE - 1))

    # ------------------------------------------------------------------
    # CVM exit servicing (the QEMU/KVM half of an MMIO exit)
    # ------------------------------------------------------------------

    def handle_cvm_exit(self, hart, monitor, cvm, vcpu_id: int) -> None:
        """Service whatever the shared vCPU says this exit needs.

        Reads the exit fields through the PMP-checked bus (the hypervisor
        cannot see anything else), emulates MMIO through the device
        registry, and writes the reply back into the shared vCPU.
        """
        shared = cvm.shared_vcpus[vcpu_id]
        read = lambda field: shared.hyp_read(hart, field)
        self.ledger.charge(
            Category.HYP_LOGIC, len(SHARED_VCPU_FIELDS) * self.costs.field_copy
        )
        cause = read("exit_cause")
        if cause not in (21, 23):  # not a load/store guest-page fault
            return
        gpa = read("htval")
        handle = self.cvm_handles.get(cvm.cvm_id)
        if handle is None:
            # An exit for a CVM this host never provisioned (possible only
            # if the exit fields were corrupted): nothing to service.
            return
        if handle.layout.in_shared(gpa):
            # The CVM touched shared GPA space the subtree does not map
            # yet; extend the premapped window (no SM involvement at all).
            if handle.shared_subtrees.get(gpa >> 30) is not None:
                self._fix_shared_fault(hart, handle, gpa)
            # No covering subtree: the exit fields describe a fault that
            # cannot have happened -- drop it rather than crash the host.
            return
        self.mmio_exits += 1
        self.ledger.charge(Category.HYP_LOGIC, self.costs.qemu_mmio_dispatch)
        device = self.devices.find(gpa)
        if cause == 21:
            value = device.mmio_load(gpa - device.mmio_base, 8) if device else 0
            shared.hyp_write(hart, "gpr_value", value)
            shared.hyp_write(hart, "gpr_index", read("gpr_index"))
        else:
            value = read("gpr_value")
            if device is not None:
                device.mmio_store(gpa - device.mmio_base, value, 8)
        shared.hyp_write(hart, "sepc_advance", 4)

    def _fix_shared_fault(self, hart, handle: CvmHostHandle, gpa: int) -> None:
        """Demand-map one page of the shared region in the hyp's subtree."""
        subtree = handle.shared_subtrees.get(gpa >> 30)
        if subtree is None:
            raise ValueError(f"no shared subtree covers GPA {gpa:#x}")
        page_gpa = gpa & ~(PAGE_SIZE - 1)
        pa = self._alloc_zeroed_page(hart)
        self._map_range_in_subtree(hart, subtree, page_gpa, pa, PAGE_SIZE, _SHARED_FLAGS)
        self.translator.sfence_page(0, page_gpa)

    def service_plic(self, hart, cvm=None, vcpu_id: int = 0, machine=None) -> int:
        """Claim/complete every pending device interrupt (context 0).

        For a CVM target, each claim becomes a validated VSEI injection
        through the shared vCPU; for a normal VM, KVM's direct injection
        flag.  Returns the number of interrupts serviced.
        """
        if self.plic is None:
            return 0
        served = 0
        while True:
            source = self.plic.claim(0)
            if not source:
                break
            self.ledger.charge(Category.HYP_LOGIC, self.costs.plic_claim_cost)
            if cvm is not None:
                self.inject_vs_external(hart, cvm, vcpu_id)
            elif machine is not None:
                machine._normal_irq_flag = True
            self.plic.complete(0, source)
            served += 1
        return served

    def inject_vs_external(self, hart, cvm, vcpu_id: int) -> None:
        """Queue a VS external interrupt via the shared vCPU reply field."""
        shared = cvm.shared_vcpus[vcpu_id]
        pending = shared.hyp_read(hart, "pending_irq")
        shared.hyp_write(hart, "pending_irq", pending | 1 << 10)

    # ------------------------------------------------------------------
    # Stage-3 pool expansion
    # ------------------------------------------------------------------

    def on_share_request(self, monitor, cvm_id: int, size: int) -> int:
        """Extend a CVM's premapped shared window by ``size`` bytes.

        Allocates normal backing and maps it into the hypervisor-owned
        shared subtree immediately after the current window.  Returns the
        GPA of the new range.
        """
        handle = self.cvm_handles[cvm_id]
        self.ledger.charge(Category.HYP_LOGIC, self.costs.hyp_sched_pass)
        shared_base = handle.layout.shared_base
        window = _shared_window(handle.layout, handle.shared_window_size + size)
        backing = self.allocator.alloc(size=size)
        self.bus.cpu_zero_range(self.hart, backing, size)
        gpa = shared_base + handle.shared_window_size
        subtree = handle.shared_subtrees[shared_base >> 30]
        self._map_range_in_subtree(self.hart, subtree, gpa, backing, size, _SHARED_FLAGS)
        handle.shared_window_size = window
        return gpa

    def on_pool_expand_request(self, monitor) -> None:
        """The SM asked for more secure memory: donate a contiguous chunk."""
        self.ledger.charge(Category.HYP_LOGIC, self.costs.hyp_expand_cost)
        base = self.allocator.alloc(size=self.expand_chunk)
        monitor.ecall_register_pool_memory(base, self.expand_chunk)
        self.pool_expansions += 1
