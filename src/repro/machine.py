"""The simulated machine: platform wiring plus the guest execution engine.

A :class:`Machine` assembles the paper's platform (4 harts, 1 GB DRAM,
PMP/IOPMP, the SM in firmware, a KVM-like host) and executes *guest
workloads*: plain Python callables driving a :class:`GuestContext` whose
methods perform architecturally-faithful operations -- every load/store is
translated through real page tables with a TLB, every fault is routed by
the live delegation CSRs, every CVM exit runs the SM's world-switch code,
and every cycle lands in the machine's ledger.

Timer interrupts fire on a fixed cycle period (the host scheduler tick);
for a confidential VM each tick is a full short-path world switch through
the SM, for a normal VM a conventional KVM exit -- which is exactly the
asymmetry the paper's macrobenchmarks measure.
"""

from __future__ import annotations

import dataclasses
import functools
import struct
import weakref

from repro.cycles import Category, CycleCosts, CycleLedger, DEFAULT_COSTS
from repro.errors import (
    ConfigurationError,
    MemoryError_,
    ReproError,
    SecurityViolation,
    TrapRaised,
)
from repro.hyp.hypervisor import Hypervisor
from repro.hyp.vm import NormalVm, VmKind
from repro.isa.hart import Hart
from repro.isa.iopmp import IopmpUnit
from repro.isa.privilege import PrivilegeMode
from repro.isa.traps import (
    AccessType,
    ExceptionCause,
    guest_page_fault_for,
    route_exception,
)
from repro.mem.frames import FrameAllocator
from repro.mem.physmem import PAGE_SIZE, MemoryBus, PhysicalMemory
from repro.mem.tlb import Tlb
from repro.mem.translation import AddressTranslator
from repro.sm.cvm import CvmState, GpaLayout
from repro.sm.monitor import SecureMonitor
from repro.sm.pmp_plan import PmpController

#: GPR index the synthetic MMIO instructions use (a0).
_MMIO_GPR_INDEX = 10

#: Yielded by a concurrent workload to park its session until an
#: inter-CVM channel doorbell targets its CVM (see :meth:`Machine.run_concurrent`).
WAIT_DOORBELL = object()

#: Operations of the guest-access engine (:meth:`Machine._build_engine`).
#: Bit 0 selects a store; bit 1 a bulk-copy page chunk (data in bytes, no
#: compute cycle: the caller charges the copy) instead of a scalar word.
_LOAD, _STORE, _READ, _WRITE = 0, 1, 2, 3

#: Access type and PTE permission bit of each operation.
_ACCESS = (AccessType.LOAD, AccessType.STORE, AccessType.LOAD, AccessType.STORE)
_REQUIRED = tuple(access.required_pte_bit for access in _ACCESS)

#: Members the guest's per-call paths charge or compare, bound once: on
#: CPython a lookup through an enum class runs its metaclass's attribute
#: hook, several times the cost of a global read.
_COMPUTE, _COPY, _TRAP, _GUEST_KERNEL, _SM_LOGIC, _HYP_LOGIC = (
    Category.COMPUTE, Category.COPY, Category.TRAP, Category.GUEST_KERNEL, Category.SM_LOGIC,
    Category.HYP_LOGIC,
)
_TLB, _PAGE_WALK = Category.TLB, Category.PAGE_WALK
_CONFIDENTIAL, _NORMAL = VmKind.CONFIDENTIAL, VmKind.NORMAL
_FINALIZED, _RUNNING = CvmState.FINALIZED, CvmState.RUNNING
_M, _HS, _VS = PrivilegeMode.M, PrivilegeMode.HS, PrivilegeMode.VS
#: The causes KVM's stage-2 fault path takes.
_GUEST_PAGE_FAULTS = frozenset((
    ExceptionCause.LOAD_GUEST_PAGE_FAULT,
    ExceptionCause.STORE_GUEST_PAGE_FAULT,
    ExceptionCause.INSTRUCTION_GUEST_PAGE_FAULT,
))

_MASK64 = (1 << 64) - 1
_U64 = struct.Struct("<Q")


def _move_word(dram, pa: int, op: int, size: int, value):
    """The data half of a scalar access that fits in one page."""
    small = size if size < 8 else 8
    if op:
        if small == 8 and not pa & 7:
            dram.write_u64(pa, value)
        else:
            dram.write(pa, (value & (1 << 8 * small) - 1).to_bytes(small, "little"))
        return None
    if small == 8 and not pa & 7:
        return dram.read_u64(pa)
    return int.from_bytes(dram.read(pa, small), "little")


def _split_scalar(access, gva: int, op: int, small: int, first: int, value):
    """A page-straddling scalar access, as the two accesses it splits into.

    The ``first`` bytes up to the page end and the rest from the next
    page are each an access of their own: translated, PMP-checked and
    charged (timer check, TLB lookup or walk, compute cycle) in address
    order, so the upper bytes land in the guest's next page, not the
    physically adjacent frame.  A load's value is reassembled
    little-endian.
    """
    second = small - first
    shift = 8 * first
    if op:
        access(gva, op, first, value & (1 << shift) - 1)
        access(gva + first, op, second, (value & _MASK64) >> shift)
        return None
    low = access(gva, op, first, None)
    high = access(gva + first, op, second, None)
    return low & (1 << shift) - 1 | (high & (1 << 8 * second) - 1) << shift


@dataclasses.dataclass(frozen=True)
class MachineConfig:
    """Platform configuration (defaults mirror the paper's Genesys2 setup)."""

    dram_base: int = 0x8000_0000
    dram_size: int = 1 << 30  # 1 GB
    firmware_size: int = 2 << 20  # OpenSBI + SM + metadata seed
    hart_count: int = 4
    clock_hz: int = 100_000_000  # 100 MHz Rocket cores
    #: Host scheduler tick period in cycles (100 Hz at 100 MHz).
    timer_tick_cycles: int = 1_000_000
    #: Secure pool registered at boot.
    initial_pool_bytes: int = 16 << 20
    tlb_capacity: int = 512
    #: ZION knobs (the ablation baselines flip these).
    use_shared_vcpu: bool = True
    long_path: bool = False
    #: Secure-memory block size (paper default 256 KB).
    secure_block_size: int | None = None
    #: Ablation switch: stage-1 per-vCPU page caches (paper IV-D).
    use_page_cache: bool = True
    costs: CycleCosts = DEFAULT_COSTS


class GuestSession:
    """One VM being executed (normal or confidential)."""

    #: The engine sits outside ``__dict__``, which the engine itself reads:
    #: neither it nor the session it serves keeps the other alive.
    __slots__ = ("_engine", "__dict__", "__weakref__")

    def __init__(self, machine, kind: VmKind, *, cvm=None, handle=None, normal_vm=None):
        self.machine = machine
        self.kind = kind
        self.cvm = cvm
        self.handle = handle
        self.normal_vm = normal_vm
        self.vcpu_id = 0
        #: The hart this session executes on (settable before running;
        #: each hart has its own PMP state and delegation CSRs).
        self.hart = machine.harts[0]
        #: Guest stage-1 root (a GPA) once the guest kernel enables paging;
        #: ``None`` means vsatp is Bare (GVA == GPA), the boot state.
        self.vsatp_root = None
        #: VS-level interrupt bits pending delivery to the guest kernel.
        self.pending_irq_bits = 0
        #: Host-side work poller: ``callable(machine, session) -> bool``;
        #: invoked when the guest WFIs.  Returns True if it produced work.
        self.host_work = None
        self.active = False
        vm = cvm if kind is _CONFIDENTIAL else normal_vm
        #: The VM's VMID and GPA layout: fixed for the session's lifetime,
        #: and read on every guest access.
        self.vmid: int = vm.vmid
        self.layout: GpaLayout = vm.layout
        #: The session's guest-access engine (:meth:`Machine._build_engine`).
        self._engine = machine._build_engine(self)

    @property
    def hgatp_root(self) -> int:
        if self.kind is _CONFIDENTIAL:
            return self.cvm.hgatp_root
        return self.normal_vm.hgatp_root


class Machine:
    """The simulated platform.

    No hook the machine hands its parts -- the CLINT's time source, the
    ECALL interface's CVM lookup, a device's IRQ sink and DMA
    translation, a session's engine -- refers strongly back to the
    machine or to the part that holds it.  Such a reference cycle would
    keep a dropped machine's DRAM alive until the cycle collector runs.
    """

    def __init__(self, config: MachineConfig | None = None):
        self.config = config or MachineConfig()
        cfg = self.config
        self.ledger = CycleLedger()
        self.costs = cfg.costs
        self.dram = PhysicalMemory(cfg.dram_base, cfg.dram_size)
        self.iopmp = IopmpUnit()
        self.bus = MemoryBus(self.dram, self.iopmp)
        self.harts = [Hart(i, self.ledger) for i in range(cfg.hart_count)]
        self.translator = AddressTranslator(
            self.bus, self.costs, self.ledger, Tlb(cfg.tlb_capacity)
        )
        self.pmp_controller = PmpController(
            self.harts,
            self.iopmp,
            firmware_base=cfg.dram_base,
            firmware_size=cfg.firmware_size,
            dram_base=cfg.dram_base,
            dram_size=cfg.dram_size,
            ledger=self.ledger,
            costs=self.costs,
        )
        self.monitor = SecureMonitor(
            self.bus,
            self.translator,
            self.pmp_controller,
            self.ledger,
            self.costs,
            use_shared_vcpu=cfg.use_shared_vcpu,
            long_path=cfg.long_path,
            block_size=cfg.secure_block_size,
            use_page_cache=cfg.use_page_cache,
        )
        host_base = cfg.dram_base + cfg.firmware_size
        self.host_allocator = FrameAllocator(host_base, cfg.dram_size - cfg.firmware_size)
        self.hypervisor = Hypervisor(
            self.bus, self.translator, self.host_allocator, self.ledger, self.costs
        )
        self.monitor.connect_hypervisor(self.hypervisor)
        self.hypervisor.hart = self.harts[0]
        if cfg.initial_pool_bytes:
            self.hypervisor.expand_chunk = cfg.initial_pool_bytes
            self.hypervisor.on_pool_expand_request(self.monitor)
            self.hypervisor.expand_chunk = 8 << 20
            # Boot-time registration is not an on-demand expansion.
            self.hypervisor.pool_expansions = 0
        # Boot-time delegation: the SM (like OpenSBI) configures the
        # conventional hosted profile; world switches swap it thereafter.
        from repro.sm import delegation

        for hart in self.harts:
            delegation.NORMAL_MODE.apply(hart)
        from repro.isa.clint import Clint
        from repro.isa.plic import Plic

        #: Core-local interruptor: mtime tracks the cycle ledger; the SM
        #: arms each hart's scheduler tick here.
        ledger = self.ledger
        self.clint = Clint(cfg.hart_count, lambda: ledger.total)
        for hart_id in range(cfg.hart_count):
            self.clint.arm_after(hart_id, cfg.timer_tick_cycles)
        #: Platform interrupt controller (device IRQs -> host claims).
        self.plic = Plic()
        self.hypervisor.plic = self.plic
        self.monitor.clint = self.clint
        #: The hart guest sessions execute on.
        self.hart = self.harts[0]
        #: Currently-executing session (guest ECALL attribution).
        self._active_session: GuestSession | None = None
        from repro.sm.abi import EcallInterface

        running_cvm_of = weakref.WeakMethod(self._running_cvm_of)
        self.ecall_interface = EcallInterface(
            self.monitor, running_cvm_of=lambda hart: running_cvm_of()(hart)
        )
        # The guest-access engine charges the ledger's counters in place
        # and fuses same-category charges (a TLB hit with its compute
        # cycle), which is only bit-identical to per-access charging when
        # the per-access costs are integral (charge() floors); non-integral
        # cost ablations put every access on the reference path.
        self._reference_only = not (
            self.costs.tlb_hit == int(self.costs.tlb_hit)
            and self.costs.page_walk_level == int(self.costs.page_walk_level)
        )
        self._charge_seq_compute = self.ledger.charger(Category.COMPUTE, 1)

    def _running_cvm_of(self, hart):
        """ABI helper: which CVM/vCPU is executing on this hart, if any."""
        session = self._active_session
        if session is None or session.kind is not _CONFIDENTIAL:
            return None
        return session.cvm, session.vcpu_id

    # ------------------------------------------------------------------
    # VM launch
    # ------------------------------------------------------------------

    def launch_confidential_vm(
        self,
        image: bytes = b"",
        layout: GpaLayout | None = None,
        vcpu_count: int = 1,
        shared_window: int | None = None,
    ) -> GuestSession:
        """Create + finalize a CVM via the host's ECALL sequence."""
        handle = self.hypervisor.host_create_cvm(
            self.monitor,
            self.hart,
            layout=layout,
            vcpu_count=vcpu_count,
            image=image,
            shared_window=shared_window,
        )
        cvm = self.monitor.cvms[handle.cvm_id]
        return GuestSession(self, _CONFIDENTIAL, cvm=cvm, handle=handle)

    def launch_normal_vm(self, name: str = "vm", layout: GpaLayout | None = None) -> GuestSession:
        """Create a conventional KVM guest managed by the hypervisor."""
        vm = self.hypervisor.create_normal_vm(name, self.hart, layout)
        return GuestSession(self, _NORMAL, normal_vm=vm)

    # ------------------------------------------------------------------
    # CVM migration (extension; see repro.sm.migration)
    # ------------------------------------------------------------------

    def export_confidential_vm(self, session: GuestSession, key: bytes) -> bytes:
        """Seal a session's CVM into a migration blob (destroys it here).

        The CVM must not be running; the SM suspends, serialises under
        ``key``, scrubs, and hands the opaque blob to the host.
        """
        if session.kind is not _CONFIDENTIAL:
            raise ConfigurationError("only confidential VMs migrate through the SM")
        from repro.sm.migration import export_cvm

        cvm_id = session.cvm.cvm_id
        if session.cvm.state is not CvmState.SUSPENDED:
            self.monitor.ecall_suspend(cvm_id)
        return export_cvm(self.monitor, cvm_id, key)

    def import_confidential_vm(self, blob: bytes, key: bytes) -> GuestSession:
        """Re-instantiate a migrated CVM on this machine.

        Verifies + decrypts through the SM, then the local hypervisor
        provisions shared vCPU pages and the shared window.  Returns a
        runnable session with all guest state intact.
        """
        from repro.sm.migration import import_cvm

        cvm_id = import_cvm(self.monitor, blob, key)
        handle = self.hypervisor.host_adopt_cvm(self.monitor, self.hart, cvm_id)
        cvm = self.monitor.cvms[cvm_id]
        return GuestSession(self, _CONFIDENTIAL, cvm=cvm, handle=handle)

    # ------------------------------------------------------------------
    # Virtio device wiring
    # ------------------------------------------------------------------

    def attach_virtio_block(self, session: GuestSession, mmio_base: int = 0x1000_1000, source_id: int = 1,
                            event_idx: bool = True):
        """Create a virtio-blk device for the session and wire its DMA path."""
        from repro.hyp.virtio import VirtioBlockDevice

        device = VirtioBlockDevice(mmio_base, source_id, self.bus, self.ledger, self.costs,
                                   event_idx=event_idx)
        self._wire_device(session, device)
        session.virtio_blk = device
        return device

    def attach_virtio_net(self, session: GuestSession, mmio_base: int = 0x1000_2000, source_id: int = 2,
                          event_idx: bool = True):
        """Create a virtio-net device for the session and wire its DMA path."""
        from repro.hyp.virtio import VirtioNetDevice

        device = VirtioNetDevice(mmio_base, source_id, self.bus, self.ledger, self.costs,
                                 event_idx=event_idx)
        self._wire_device(session, device)
        session.virtio_net = device
        return device

    def attach_virtio_rng(self, session: GuestSession, mmio_base: int = 0x1000_3000, source_id: int = 3):
        """Create a virtio-rng device for the session and wire its DMA path."""
        from repro.hyp.virtio import VirtioRngDevice

        device = VirtioRngDevice(mmio_base, source_id, self.bus, self.ledger, self.costs)
        self._wire_device(session, device)
        session.virtio_rng = device
        return device

    def _wire_device(self, session: GuestSession, device) -> None:
        self.hypervisor.devices.add(device)
        source = device.source_id
        self.plic.set_priority(source, 1)
        self.plic.enable(0, source)
        self.hypervisor.plic_bindings[source] = device
        plic = self.plic
        device.irq_sink = lambda _dev: plic.raise_irq(source)
        if session.kind is _CONFIDENTIAL:
            handle = session.handle
            # Weak: the hypervisor's device registry holds the device.
            to_hpa = weakref.WeakMethod(self.hypervisor.shared_gpa_to_hpa)
            device.dma_translate = lambda gpa: to_hpa()(handle, gpa)
        else:
            vm = session.normal_vm
            gpa_to_pa = self.translator.gpa_to_pa

            def translate(gpa):
                pa, _flags = gpa_to_pa(vm.hgatp_root, gpa, _ACCESS[_LOAD])
                return pa

            device.dma_translate = translate

    def swiotlb_window(self, session: GuestSession) -> tuple:
        """(base_gpa, size) where the session's SWIOTLB pool should live.

        Confidential VMs place it in the shared region (after a 64 KB
        reservation for virtqueue rings); normal VMs carve it from the top
        of their own DRAM -- SWIOTLB is enabled on both, per the paper's
        experimental setup.
        """
        layout = session.layout
        if session.kind is _CONFIDENTIAL:
            return layout.shared_base + 0x10000, 2 << 20
        return layout.dram_base + layout.dram_size - (2 << 20) - 0x10000, 2 << 20

    # ------------------------------------------------------------------
    # Workload execution
    # ------------------------------------------------------------------

    def run(self, session: GuestSession, workload) -> dict:
        """Run ``workload(ctx)`` to completion inside the session's VM.

        Returns a result dict with the cycle span and category breakdown
        of the guest's execution (world switches included).
        """
        with self.ledger.span() as span:
            self._enter_guest(session)
            ctx = GuestContext(self, session)
            try:
                result = workload(ctx)
            finally:
                self._leave_guest(session)
        return {
            "cycles": span.cycles,
            "breakdown": span.breakdown,
            "workload_result": result,
        }

    def run_concurrent(self, pairs, on_error: str = "raise",
                       wake_priority: bool = False) -> dict:
        """Interleave several VMs' workloads on the hart, round-robin.

        ``pairs`` is a list of ``(session, generator_workload)`` where each
        workload is a *generator function* taking a :class:`GuestContext`
        and yielding at its preemption points.  Every rotation performs
        the full architectural switch sequence: the outgoing VM exits (a
        CVM through the SM's short path, a normal VM through KVM), the
        hypervisor's scheduler runs, and the incoming VM enters.

        A workload may yield :data:`WAIT_DOORBELL` to park itself until an
        inter-CVM channel doorbell targets its CVM (the hypervisor's
        :meth:`on_channel_doorbell` wakes it); if every remaining workload
        is parked, all are woken -- the single-hart executor's progress
        backstop against lost doorbells.

        ``on_error`` selects what happens when a session raises a typed
        :class:`~repro.errors.ReproError` (an architectural refusal such
        as ``SecurityViolation`` or ``ChannelCorrupt``): ``"raise"`` (the
        default) propagates it, aborting the whole run; ``"contain"``
        records the exception object as that session's result, drops the
        session from the rotation, and keeps the other VMs running --
        the fault-injection campaigns run in this mode, where a typed
        error is precisely a *contained* fault.

        ``wake_priority`` selects the doorbell wake policy: ``False``
        (default, the recorded-golden behaviour) returns a woken session
        to the rotation *tail*; ``True`` puts it at the *head*, so the
        session a doorbell targets runs on the next dispatch -- the
        latency-oriented policy the sharded redis cluster uses for its
        router<->shard hops (see docs/DATA_PLANE.md).

        Returns ``{session: workload_return_value}`` plus the total cycle
        span under the key ``"cycles"`` and the scheduler's park/resume
        accounting under ``"sched"``.
        """
        from repro.hyp.scheduler import RoundRobinScheduler

        scheduler = RoundRobinScheduler()
        state = {}
        wake_keys: dict[int, int] = {}  # cvm_id -> session key
        for session, workload in pairs:
            ctx = GuestContext(self, session)
            state[id(session)] = (session, workload(ctx))
            scheduler.add(id(session))
            if session.kind is _CONFIDENTIAL:
                wake_keys[session.cvm.cvm_id] = id(session)

        def wake(cvm_id: int) -> None:
            key = wake_keys.get(cvm_id)
            if key is not None:
                scheduler.wake(key, front=wake_priority)

        previous_wake = self.hypervisor.scheduler_wake
        self.hypervisor.scheduler_wake = wake
        results = {}
        try:
            with self.ledger.span() as span:
                while len(scheduler) or scheduler.blocked_count:
                    key = scheduler.next()
                    if key is None:
                        scheduler.wake_all()
                        continue
                    session, generator = state[key]
                    yielded = None
                    try:
                        self._enter_guest(session)
                        try:
                            yielded = next(generator)
                        except StopIteration as stop:
                            results[session] = stop.value
                            scheduler.remove(key)
                        finally:
                            self._leave_guest(session)
                    except ReproError as error:
                        if on_error != "contain":
                            raise
                        # Typed architectural refusal: the session is dead
                        # but the fault is contained -- record it, drop the
                        # session, keep every other VM running.
                        results[session] = error
                        scheduler.remove(key)
                        session.active = False
                        if self._active_session is session:
                            self._active_session = None
                    self.hypervisor.sched_tick()
                    if yielded is WAIT_DOORBELL:
                        scheduler.block(key)
        finally:
            self.hypervisor.scheduler_wake = previous_wake
        results["cycles"] = span.cycles
        results["sched"] = scheduler.stats()
        return results

    def _enter_guest(self, session: GuestSession) -> None:
        if session.active:
            raise ConfigurationError("session is already active")
        if session.kind is _CONFIDENTIAL:
            session.cvm.require_state(_FINALIZED, _RUNNING)
            vcpu = session.cvm.vcpu(session.vcpu_id)
            self.monitor.world_switch.enter_cvm(session.hart, session.cvm, vcpu)
            session.cvm.state = _RUNNING
        else:
            self.hypervisor.normal_vm_enter(session.hart)
        session.active = True
        self._active_session = session

    def _leave_guest(self, session: GuestSession) -> None:
        if not session.active:
            return
        if session.kind is _CONFIDENTIAL:
            vcpu = session.cvm.vcpu(session.vcpu_id)
            self.monitor.world_switch.exit_to_normal(
                session.hart, session.cvm, vcpu, {"kind": "halt", "cause": 0}
            )
            vcpu.exit_context = None
            session.cvm.state = _FINALIZED
        else:
            self.hypervisor.normal_vm_exit(session.hart)
        session.active = False
        self._active_session = None

    # ------------------------------------------------------------------
    # Timer
    # ------------------------------------------------------------------

    def check_timer(self, session: GuestSession) -> None:
        """Fire the host scheduler tick when this hart's MTIP asserts."""
        hart_id = session.hart.hart_id
        # Inline timer_pending: mtime is the ledger total (the CLINT's time
        # source) and totals never approach the 64-bit wrap, so the idle
        # case -- checked once per guest access -- is a single compare.
        if self.ledger._total < self.clint._mtimecmp[hart_id]:
            return
        if not self.clint.timer_pending(hart_id):
            return
        self.clint.arm_after(hart_id, self.config.timer_tick_cycles)
        if session.kind is _CONFIDENTIAL:
            vcpu = session.cvm.vcpu(session.vcpu_id)
            self.monitor.world_switch.exit_to_normal(
                session.hart, session.cvm, vcpu, {"kind": "timer", "cause": 7}
            )
            self.hypervisor.sched_tick()
            self.monitor.world_switch.enter_cvm(session.hart, session.cvm, vcpu)
            self._collect_injected_irqs(session)
        else:
            self.hypervisor.normal_vm_exit(session.hart)
            self.hypervisor.sched_tick()
            self.hypervisor.normal_vm_enter(session.hart)

    # ------------------------------------------------------------------
    # Guest memory access (the heart of the engine)
    # ------------------------------------------------------------------

    def guest_access(self, session: GuestSession, gva: int, access: AccessType, size: int = 8):
        """Translate-and-perform one guest access, handling faults.

        Returns ``(pa, 'memory')`` when the access hit RAM, or
        ``(value, 'mmio')`` when it was emulated as MMIO.
        """
        self.check_timer(session)
        for _attempt in range(8):
            try:
                result = self.translator.translate(
                    session.hart,
                    session.vmid,
                    gva,
                    access,
                    session.hgatp_root,
                    vsatp_root=session.vsatp_root,
                )
            except TrapRaised as trap:
                outcome = self._dispatch_trap(session, trap, access, gva)
                if outcome is not None:
                    return outcome, "mmio"
                continue
            self._check_shared_leaf(session, result)
            return result.pa, "memory"
        raise ConfigurationError(
            f"guest access at {gva:#x} did not make progress after 8 faults"
        )

    def _check_shared_leaf(self, session: GuestSession, result) -> None:
        """Split-table backstop: shared-region leaves must target normal memory.

        A malicious hypervisor controls the shared subtree; if it aliases a
        shared GPA onto a secure frame, the SM's walk-time validation
        refuses the access (modelled here; see DESIGN.md section 6).
        """
        if session.kind is not _CONFIDENTIAL:
            return
        if not session.layout.in_shared(result.gpa):
            return
        if not self.monitor.split.shared_leaf_is_safe(result.pa):
            raise SecurityViolation(
                f"shared GPA {result.gpa:#x} resolves into the secure pool "
                f"(PA {result.pa:#x}); hypervisor-controlled alias refused"
            )

    # ------------------------------------------------------------------
    # The guest-access engine
    # ------------------------------------------------------------------

    def run_seq(self, session: GuestSession, op: str, gva0: int, step: int,
                count: int, size: int, values, gvas):
        """Execute one access sequence, one engine call per access.

        ``op`` is ``"L"``/``"S"``/``"T"`` (load_seq / store_seq /
        touch_seq).  Strided sequences address ``gva0 + i*step``; touch
        sequences carry their literal ``gvas`` tuple.  Each access is the
        scalar call it stands for; a store latches its value for MMIO
        emulation first, as :meth:`GuestContext.store` does.
        """
        access = session._engine
        if gvas is None:
            gvas = range(gva0, gva0 + count * step, step) if step else (gva0,) * count
        if op == "L":
            return [access(gva, _LOAD, size, None) for gva in gvas]
        if op == "S":
            for gva, value in zip(gvas, values):
                self._pending_store_value = value & _MASK64
                access(gva, _STORE, size, value)
        else:
            for gva in gvas:
                access(gva, _LOAD, 1, None)
        return None

    def _build_engine(self, session: GuestSession):
        """Build ``session``'s guest-access engine: one call per guest access.

        Returns ``access(gva, op, size, value)`` for the operations
        :data:`_LOAD`/:data:`_STORE` (a scalar word: returns the loaded
        value) and :data:`_READ`/:data:`_WRITE` (one page chunk of a bulk
        copy: returns the bytes read).  It is the only engine:
        :class:`GuestContext`'s scalar and bulk calls make one call per
        access, and :meth:`run_seq` loops over it for
        ``load_seq``/``store_seq``/``touch_seq``.  Each
        :class:`GuestSession` builds it once.  The session's fixed
        constants -- its VMID, its engine address window, the TLB dict, the
        ``mtimecmp`` list -- are bound here; ``hart``, ``hgatp_root`` and
        ``vsatp_root`` are read on every access, and the machine's
        handlers each time one runs.  The engine reads the session's
        ``__dict__`` and holds the session itself only weakly, and the
        session keeps the engine in a slot: no reference cycle keeps
        either alive.

        Per access the engine performs, in the order
        :meth:`_reference_access` does, the timer compare, the range check
        and the translation.  A TLB hit updates the statistics and LRU
        order and charges the hit (fused with the compute cycle of a
        scalar access -- no timer check can fall between them).  A miss
        with a valid, PMP-permitted walk charges exactly as the translator
        would and performs :meth:`Tlb.insert` in place: the entry goes
        straight into the TLB's dict, and at capacity the LRU entry is
        evicted.  An invalid walk whose stage-2 fault routes to
        the VM's own handler (the SM in M mode for a CVM, KVM in HS for a
        normal VM) is taken in place: the walk is charged, the helper the
        reference path calls (:meth:`_sm_fault`, given the engine's walk,
        or :meth:`_kvm_demand_map`) runs, and the access retries -- at
        most eight times, as the reference path does.  Anything else --
        MMIO or out-of-window addresses, insufficient permissions,
        permission faults on a present leaf, PMP denials, a table read
        outside DRAM, any other fault route, VS-stage paging -- takes
        :meth:`_reference_access` *before* charging or mutating anything,
        so the detour is invisible.  A page-straddling scalar is the two
        accesses it splits into (:func:`_split_scalar`).  Machines with
        non-integral TLB or walk costs take the reference path for every
        access.
        """
        machine = self
        state = session.__dict__
        session_ref = weakref.ref(session)

        def reference(gva, op, size, value):
            return machine._reference_access(session_ref(), gva, op, size, value)

        if self._reference_only:
            return reference
        ledger = self.ledger
        counts = ledger._counts
        mtimecmp = self.clint._mtimecmp
        translator = self.translator
        tlb = translator.tlb
        entries = tlb._entries
        entries_get = entries.get
        move_to_end = entries.move_to_end
        evict_lru = entries.popitem
        capacity = tlb.capacity
        probe = translator.probe_gpa
        va_limit = translator.sv39x4._va_limit
        dram = self.dram
        pages = dram._pages
        dram_lo, dram_hi = dram.base, dram.end
        unpack_from = _U64.unpack_from
        pack_into = _U64.pack_into
        vmid = session.vmid
        layout = session.layout
        # The engine's window: a CVM's private DRAM, or everything outside
        # a normal VM's MMIO window.
        inside = session.kind is _CONFIDENTIAL
        if inside:
            lo, hi = layout.dram_base, layout.dram_base + layout.dram_size
        else:
            lo, hi = layout.mmio_base, layout.mmio_base + layout.mmio_size
        # Whose ``hgatp_root`` the session's property reads.
        vm = session.cvm if inside else session.normal_vm
        tlb_hit = int(self.costs.tlb_hit)
        walk_cost = int(self.costs.page_walk_level)
        tlb_index = _TLB.index
        compute_index = _COMPUTE.index
        walk_index = _PAGE_WALK.index
        scalar_hit = tlb_hit + 1
        # Where the VM's stage-2 faults are fixed in place.
        handler_mode = _M if inside else _HS
        in_place_routes: dict = {}

        def fault_in_place(hart, store: int) -> bool:
            csrs = hart.csrs
            route = (store, hart.mode, csrs.read_raw("medeleg"), csrs.read_raw("hedeleg"))
            in_place = in_place_routes.get(route)
            if in_place is None:
                in_place = in_place_routes[route] = route_exception(
                    guest_page_fault_for(_ACCESS[store]),
                    hart.mode, hart.medeleg, hart.hedeleg,
                ) is handler_mode
            return in_place

        def access(gva, op, size, value):
            if op < 2 and (gva & 0xFFF) + size > PAGE_SIZE:
                small = size if size < 8 else 8
                first = PAGE_SIZE - (gva & 0xFFF)
                if first < small:
                    return _split_scalar(session_ref()._engine, gva, op, small, first, value)
            hart = state["hart"]
            if ledger._total >= mtimecmp[hart.hart_id]:
                machine.check_timer(session_ref())
            if (lo <= gva < hi) is not inside or state["vsatp_root"] is not None:
                return reference(gva, op, size, value)
            key = (vmid, gva >> 12)
            faults = 0
            while True:
                entry = entries_get(key)
                if entry is not None:
                    if not entry[1] & _REQUIRED[op]:
                        # Hardware re-walks; the reference path does.
                        return reference(gva, op, size, value)
                    tlb.hits += 1
                    move_to_end(key)
                    pa = entry[0] << 12 | gva & 0xFFF
                    if op > 1:
                        ledger._total += tlb_hit
                        counts[tlb_index] += tlb_hit
                    else:
                        ledger._total += scalar_hit
                        counts[tlb_index] += tlb_hit
                        counts[compute_index] += 1
                    break
                if not 0 <= gva < va_limit:
                    return reference(gva, op, size, value)
                try:
                    probed = probe(vm.hgatp_root, gva)
                except MemoryError_:
                    # A table read outside DRAM: the reference walk
                    # charges the reads it made, then raises.
                    return reference(gva, op, size, value)
                pa, flags, levels, _slot = probed
                walk = levels * walk_cost
                if pa is not None:
                    if not flags & _REQUIRED[op] or not hart.pmp.check(pa, 1, _ACCESS[op], hart.mode):
                        # A permission fault or a PMP denial: the
                        # reference path traps.
                        return reference(gva, op, size, value)
                    tlb.misses += 1
                    counts[walk_index] += walk
                    if op > 1:
                        ledger._total += walk
                    else:
                        ledger._total += walk + 1
                        counts[compute_index] += 1
                    # Tlb.insert in place: the key just missed, so the
                    # new entry lands at the LRU tail without a move.
                    entries[key] = (pa >> 12, flags)
                    if len(entries) > capacity:
                        evict_lru(last=False)
                    break
                # Invalid walk: a stage-2 guest page fault.
                if not fault_in_place(hart, op & 1):
                    return reference(gva, op, size, value)
                tlb.misses += 1
                ledger._total += walk
                counts[walk_index] += walk
                # Nothing ran since the probe: the fault handler takes
                # its walk.
                if inside:
                    machine._sm_fault(session_ref(), gva, probed)
                else:
                    machine._kvm_demand_map(session_ref(), gva, probed)
                # Retry: the reference path performs no timer check
                # between a fault fix and its retry.
                faults += 1
                if faults == 8:
                    raise ConfigurationError(
                        f"guest access at {gva:#x} did not make progress after 8 faults"
                    )
            # Chunks and words never straddle a page here, so each moves in
            # place in its DRAM page.  Only range-checked writes create
            # pages, so a page that exists lies inside DRAM; a missing one
            # is compared against DRAM's bounds, and outside them the
            # checked PhysicalMemory call raises MemoryError_.
            page = pages.get(pa >> 12)
            if page is None and not dram_lo <= pa < dram_hi:
                if op > 1:
                    return dram.read(pa, size) if op == _READ else dram.write(pa, value)
                return _move_word(dram, pa, op, size, value)
            if op > 1:
                offset = pa & 0xFFF
                if op == _READ:
                    return bytes(size) if page is None else bytes(page[offset:offset + size])
                if page is None:
                    page = pages[pa >> 12] = bytearray(PAGE_SIZE)
                page[offset:offset + size] = value
                return None
            if size == 8 and not pa & 7:
                if op:
                    if page is None:
                        page = pages[pa >> 12] = bytearray(PAGE_SIZE)
                    pack_into(page, pa & 0xFFF, value & _MASK64)
                    return None
                return 0 if page is None else unpack_from(page, pa & 0xFFF)[0]
            if size == 1 and not op:
                # A byte load (every touch).
                return 0 if page is None else page[pa & 0xFFF]
            return _move_word(dram, pa, op, size, value)

        return access

    def _reference_access(self, session: GuestSession, gva: int, op: int,
                          size: int, value):
        """The reference single access: :meth:`guest_access`, then the data.

        Same operations and results as the engine :meth:`_build_engine`
        builds.  A scalar access also charges its compute cycle; one that
        straddles a page boundary is performed as the two accesses it
        splits into (:func:`_split_scalar`).  A bulk chunk that lands in
        an MMIO window is a :class:`~repro.errors.ConfigurationError`.
        """
        access = _ACCESS[op]
        if op > 1:
            pa, kind = self.guest_access(session, gva, access, size)
            if kind != "memory":
                raise ConfigurationError(
                    f"bulk {'write' if op & 1 else 'read'} hit an MMIO window"
                )
            return self.dram.read(pa, size) if op == _READ else self.dram.write(pa, value)
        small = size if size < 8 else 8
        first = PAGE_SIZE - (gva & 0xFFF)
        if first < small:
            return _split_scalar(
                functools.partial(self._reference_access, session),
                gva, op, small, first, value,
            )
        result, kind = self.guest_access(session, gva, access, size)
        self._charge_seq_compute()
        if kind == "mmio":
            return None if op else result
        return _move_word(self.dram, result, op, size, value)

    # ------------------------------------------------------------------
    # Trap dispatch
    # ------------------------------------------------------------------

    def _dispatch_trap(self, session: GuestSession, trap: TrapRaised, access: AccessType, gva: int):
        """Route a guest trap per the live delegation CSRs.

        Returns an MMIO value when the trap was consumed by device
        emulation (the access is complete), else ``None`` (retry).
        """
        cause = trap.cause
        hart = session.hart
        from_mode = hart.mode
        dest = route_exception(cause, from_mode, hart.medeleg, hart.hedeleg)
        if dest is _VS:
            # The guest kernel handles its own trap entirely inside the VM.
            self.ledger.charge(_TRAP, self.costs.trap_to_vs)
            self.ledger.charge(_GUEST_KERNEL, self.costs.guest_trap_handler)
            self.ledger.charge(_TRAP, self.costs.xret)
            raise SecurityViolation(
                f"guest cannot resolve its own {cause!r} at {gva:#x} "
                "(VS-delegated trap in a Bare-paging guest)"
            )
        if dest is _HS:
            return self._handle_in_hypervisor(session, trap, access)
        return self._handle_in_monitor(session, trap, access)

    def _handle_in_hypervisor(self, session: GuestSession, trap: TrapRaised, access: AccessType):
        """Normal-mode handling: the conventional KVM/QEMU paths."""
        if session.kind is not _NORMAL:
            raise SecurityViolation(
                f"CVM trap {trap.cause!r} was routed to the hypervisor: "
                "delegation misconfiguration"
            )
        gpa = trap.gpa if trap.gpa is not None else trap.tval
        if trap.cause in _GUEST_PAGE_FAULTS:
            layout = session.layout
            if layout.in_mmio(gpa):
                self.hypervisor.normal_vm_exit(session.hart)
                value = self._emulate_mmio_normal(session, gpa, access)
                self.hypervisor.service_plic(session.hart, machine=self)
                self.hypervisor.normal_vm_enter(session.hart)
                self._deliver_normal_irqs(session)
                return value
            self._kvm_demand_map(session, gpa)
            return None
        raise SecurityViolation(f"unhandled normal-VM trap {trap.cause!r}")

    def _kvm_demand_map(self, session: GuestSession, gpa: int, walk=None) -> None:
        """KVM's demand-map round trip for a normal VM's stage-2 fault.

        The VM exit, :meth:`Hypervisor.handle_normal_stage2_fault` --
        given the caller's uncharged walk of ``gpa`` when it has one, as
        :meth:`_sm_fault` gives the SM -- and the VM entry; the entry is
        charged even when the handler refuses the fault, so the hart
        always returns to the guest.  With an event sink attached, the
        round trip is recorded as a ``fault`` with path ``"kvm"``, no
        stage and its cycles.
        """
        hypervisor = self.hypervisor
        hart = session.hart
        events = self.ledger.events
        # Spans are charge-free snapshots: open one only for a sink.
        span = None if events is None else self.ledger.span()
        hypervisor.normal_vm_exit(hart)
        try:
            hypervisor.handle_normal_stage2_fault(hart, session.normal_vm, gpa, walk)
        finally:
            hypervisor.normal_vm_enter(hart)
        if span is not None:
            span.close()
            events.record("fault", path="kvm", stage=None, cycles=span.cycles)

    def _sm_fault(self, session: GuestSession, gpa: int, walk=None) -> None:
        """The SM's fix of a CVM's private stage-2 fault, in M mode.

        The CVM counterpart of :meth:`_kvm_demand_map`:
        :meth:`SecureMonitor.handle_guest_page_fault`, given the caller's
        uncharged walk of ``gpa`` when it has one.  With an event sink
        attached, the fix is recorded as a ``fault`` with path ``"sm"``,
        the allocation stage's name and its cycles.
        """
        events = self.ledger.events
        # Spans are charge-free snapshots: open one only for a sink.
        span = None if events is None else self.ledger.span()
        stage = self.monitor.handle_guest_page_fault(
            session.hart, session.cvm, session.vcpu_id, gpa, walk
        )
        if span is not None:
            span.close()
            events.record("fault", path="sm", stage=stage.name, cycles=span.cycles)

    def _emulate_mmio_normal(self, session: GuestSession, gpa: int, access: AccessType):
        self.hypervisor.mmio_exits += 1
        self.ledger.charge(_HYP_LOGIC, self.costs.qemu_mmio_dispatch)
        device = self.hypervisor.devices.find(gpa)
        if device is None:
            return 0
        if access is _ACCESS[_LOAD]:
            return device.mmio_load(gpa - device.mmio_base, 8)
        device.mmio_store(gpa - device.mmio_base, self._pending_store_value, 8)
        return 0

    def _handle_in_monitor(self, session: GuestSession, trap: TrapRaised, access: AccessType):
        """CVM-mode handling in the SM: the short-path flows."""
        if session.kind is not _CONFIDENTIAL:
            raise SecurityViolation(
                f"normal-VM trap {trap.cause!r} reached the SM unexpectedly"
            )
        gpa = trap.gpa if trap.gpa is not None else trap.tval
        layout = session.layout
        if layout.in_private_dram(gpa):
            # Stage-2 fault on private memory: the SM resolves it alone --
            # no world switch, the whole point of SM-side allocation.
            self._sm_fault(session, gpa)
            return None
        if layout.in_mmio(gpa):
            return self._emulate_mmio_cvm(session, gpa, access)
        if layout.in_shared(gpa):
            # Shared-region fault: only the hypervisor can fix its subtree.
            vcpu = session.cvm.vcpu(session.vcpu_id)
            self.monitor.world_switch.exit_to_normal(
                session.hart, session.cvm, vcpu,
                {"kind": "shared_fault", "cause": int(trap.cause), "htval": gpa},
            )
            self.hypervisor.handle_cvm_exit(
                session.hart, self.monitor, session.cvm, session.vcpu_id
            )
            self.hypervisor.service_plic(session.hart, cvm=session.cvm, vcpu_id=session.vcpu_id)
            self.monitor.world_switch.enter_cvm(session.hart, session.cvm, vcpu)
            self._collect_injected_irqs(session)
            return None
        raise SecurityViolation(
            f"CVM {session.cvm.cvm_id} faulted outside every region: GPA {gpa:#x}"
        )

    def _emulate_mmio_cvm(self, session: GuestSession, gpa: int, access: AccessType):
        """The full MMIO exit: SM -> hypervisor/QEMU -> SM -> guest."""
        vcpu = session.cvm.vcpu(session.vcpu_id)
        is_load = access is _ACCESS[_LOAD]
        exit_info = {
            "kind": "mmio_load" if is_load else "mmio_store",
            "cause": 21 if is_load else 23,
            "htval": gpa,
            "htinst": self._encode_htinst(is_load),
            "gpr_index": _MMIO_GPR_INDEX if is_load else 0,
            "gpr_value": 0 if is_load else self._pending_store_value,
        }
        self.monitor.world_switch.exit_to_normal(session.hart, session.cvm, vcpu, exit_info)
        self.hypervisor.handle_cvm_exit(session.hart, self.monitor, session.cvm, session.vcpu_id)
        self.hypervisor.service_plic(session.hart, cvm=session.cvm, vcpu_id=session.vcpu_id)
        reply = self.monitor.world_switch.enter_cvm(session.hart, session.cvm, vcpu)
        self._collect_injected_irqs(session)
        return reply.get("gpr_value", 0) if is_load else 0

    @staticmethod
    def _encode_htinst(is_load: bool) -> int:
        """A plausible transformed-instruction encoding for the exit."""
        # ld a0, 0(a0) / sd a0, 0(a0) style encodings.
        return 0x00053503 if is_load else 0x00A53023

    # ------------------------------------------------------------------
    # Interrupt plumbing
    # ------------------------------------------------------------------

    def _collect_injected_irqs(self, session: GuestSession) -> None:
        """Move validated hvip bits into the session's pending set."""
        vcpu = session.cvm.vcpu(session.vcpu_id)
        bits = vcpu.csrs.get("hvip", 0)
        if bits:
            session.pending_irq_bits |= bits
            vcpu.csrs["hvip"] = 0

    def _deliver_normal_irqs(self, session: GuestSession) -> None:
        """Normal VM: KVM injects directly; collect from the device layer."""
        if self._normal_irq_flag:
            session.pending_irq_bits |= 1 << 10
            self._normal_irq_flag = False

    #: Set by GuestContext around emulated stores (the store value has to
    #: reach the device model through the exit path, as htinst implies).
    _pending_store_value: int = 0
    _normal_irq_flag: bool = False


class GuestContext:
    """The API guest workloads program against.

    Every method models what the corresponding guest instruction sequence
    would do architecturally, including faulting and being resumed.
    """

    def __init__(self, machine: Machine, session: GuestSession):
        self.machine = machine
        self.session = session
        self.ledger = machine.ledger
        self.costs = machine.costs
        #: The session's guest-access engine (:meth:`Machine._build_engine`).
        self._access = session._engine

    # -- computation -------------------------------------------------------

    def compute(self, cycles: int) -> None:
        """Execute ``cycles`` of guest-local work (interleaves timer ticks).

        The work is charged in slices that end where the hart's timer
        deadline falls, each preceded by a timer check.  When the deadline
        lies beyond the whole amount (``mtime`` is the ledger total), that
        check could not fire, and the amount is one slice.
        """
        remaining = int(cycles)
        if remaining <= 0:
            return
        clint = self.machine.clint
        hart_id = self.session.hart.hart_id
        if self.ledger._total + remaining <= clint._mtimecmp[hart_id]:
            self.ledger.charge(_COMPUTE, remaining)
            return
        while remaining > 0:
            self.machine.check_timer(self.session)
            until_tick = clint.read_mtimecmp(hart_id) - clint.mtime
            slice_ = min(remaining, max(1, until_tick))
            self.ledger.charge(_COMPUTE, slice_)
            remaining -= slice_

    # -- memory -------------------------------------------------------------

    def load(self, gva: int, size: int = 8) -> int:
        """Guest load; returns the value (integers up to 8 bytes)."""
        return self._access(gva, _LOAD, size, None)

    def store(self, gva: int, value: int, size: int = 8) -> None:
        """Guest store of an integer value."""
        self.machine._pending_store_value = value & _MASK64
        self._access(gva, _STORE, size, value)

    def load_seq(self, gva: int, count: int, size: int = 8, stride: int | None = None) -> list:
        """Batched guest loads: ``count`` values starting at ``gva``.

        Wall-clock batching only -- every element performs the identical
        architectural sequence an individual :meth:`load` would (timer
        check, translation with its TLB lookup and charges, per-access
        compute charge), so simulated cycles are bit-for-bit the same.
        """
        step = size if stride is None else stride
        return self.machine.run_seq(self.session, "L", gva, step, count, size, None, None)

    def store_seq(self, gva: int, values, size: int = 8, stride: int | None = None) -> None:
        """Batched guest stores of ``values`` starting at ``gva``.

        Same cycle-exactness contract as :meth:`load_seq`: this is the
        per-element :meth:`store` sequence with the Python call overhead
        hoisted out of the loop, never a change to what is charged.
        """
        step = size if stride is None else stride
        if not isinstance(values, (list, tuple)):
            values = list(values)
        self.machine.run_seq(self.session, "S", gva, step, len(values), size, values, None)

    def write_bytes(self, gva: int, data: bytes) -> None:
        """Bulk guest write (page-wise translation, per-byte copy charge).

        One engine call per page chunk; a copy that fits in its first
        page is that one call.
        """
        access = self._access
        length = len(data)
        if 0 < length <= PAGE_SIZE - (gva & 0xFFF):
            access(gva, _WRITE, length, data)
        else:
            offset = 0
            while offset < length:
                chunk = min(length - offset, PAGE_SIZE - (gva + offset) % PAGE_SIZE)
                access(gva + offset, _WRITE, chunk, data[offset : offset + chunk])
                offset += chunk
        self.ledger.charge(_COPY, self.costs.copy_bytes(length))

    def read_bytes(self, gva: int, length: int) -> bytes:
        """Bulk guest read, chunked as :meth:`write_bytes` is."""
        access = self._access
        if 0 < length <= PAGE_SIZE - (gva & 0xFFF):
            data = access(gva, _READ, length, None)
        else:
            chunks = []
            offset = 0
            while offset < length:
                chunk = min(length - offset, PAGE_SIZE - (gva + offset) % PAGE_SIZE)
                chunks.append(access(gva + offset, _READ, chunk, None))
                offset += chunk
            data = b"".join(chunks)
        self.ledger.charge(_COPY, self.costs.copy_bytes(length))
        return data

    def touch(self, gva: int) -> None:
        """Touch one page (a minimal load; populates mappings and TLB)."""
        self._access(gva, _LOAD, 1, None)

    def touch_range(self, gva: int, length: int) -> None:
        """Touch every page of ``[gva, gva+length)`` (e.g. a bounce copy)."""
        access = self._access
        page = gva & ~(PAGE_SIZE - 1)
        end = gva + max(length, 1)
        while page < end:
            access(page, _LOAD, 1, None)
            page += PAGE_SIZE

    def touch_seq(self, gvas) -> None:
        """Touch every address in ``gvas`` (batched :meth:`touch`).

        Architecturally identical to touching each address in a Python
        loop -- same timer checks, translations, and compute charges.
        MMIO touches perform the full device access.
        """
        gvas = tuple(gvas)
        self.machine.run_seq(self.session, "T", 0, 0, len(gvas), 1, None, gvas)

    # -- virtio driver construction ---------------------------------------------

    def blk_driver(self):
        """Build (once) the guest's virtio-blk driver over SWIOTLB."""
        if not hasattr(self, "_blk_driver"):
            from repro.guest.swiotlb import Swiotlb
            from repro.guest.virtio_driver import VirtioBlkDriver
            from repro.hyp.virtio import Virtqueue

            device = self.session.virtio_blk
            swiotlb = self._get_swiotlb()
            queue = Virtqueue(ring_gpa=self._ring_gpa(0))
            self._blk_driver = VirtioBlkDriver(self, device, swiotlb, queue)
        return self._blk_driver

    def net_driver(self):
        """Build (once) the guest's virtio-net driver over SWIOTLB."""
        if not hasattr(self, "_net_driver"):
            from repro.guest.virtio_driver import VirtioNetDriver
            from repro.hyp.virtio import Virtqueue

            device = self.session.virtio_net
            swiotlb = self._get_swiotlb()
            tx = Virtqueue(ring_gpa=self._ring_gpa(1))
            rx = Virtqueue(ring_gpa=self._ring_gpa(2))
            self._net_driver = VirtioNetDriver(self, device, swiotlb, tx, rx)
        return self._net_driver

    def rng_driver(self):
        """Build (once) the guest's virtio-rng driver over SWIOTLB."""
        if not hasattr(self, "_rng_driver"):
            from repro.guest.virtio_driver import VirtioRngDriver
            from repro.hyp.virtio import Virtqueue

            device = self.session.virtio_rng
            swiotlb = self._get_swiotlb()
            queue = Virtqueue(ring_gpa=self._ring_gpa(3))
            self._rng_driver = VirtioRngDriver(self, device, swiotlb, queue)
        return self._rng_driver

    def _get_swiotlb(self):
        if not hasattr(self, "_swiotlb"):
            from repro.guest.swiotlb import Swiotlb

            base, size = self.machine.swiotlb_window(self.session)
            self._swiotlb = Swiotlb(base, size, self.ledger, self.costs)
        return self._swiotlb

    def _ring_gpa(self, index: int) -> int:
        layout = self.session.layout
        if self.session.kind is _CONFIDENTIAL:
            return layout.shared_base + index * 0x1000
        return layout.dram_base + layout.dram_size - 0x10000 + index * 0x1000

    # -- MMIO ------------------------------------------------------------------

    def mmio_read(self, gpa: int) -> int:
        """Emulated-device register read (a load into the MMIO window)."""
        return self.load(gpa)

    def mmio_write(self, gpa: int, value: int) -> None:
        """Emulated-device register write (a store into the MMIO window)."""
        self.store(gpa, value)

    # -- SM services (CVM only) ---------------------------------------------------

    def attestation_report(self, report_data: bytes = b""):
        """ECALL the SM for a signed measurement report."""
        self._require_cvm()
        return self.machine.monitor.ecall_attestation_report(
            self.session.cvm.cvm_id, report_data
        )

    def extend_rtmr(self, index: int, data: bytes) -> bytes:
        """Extend a runtime measurement register (ECALL to the SM)."""
        self._require_cvm()
        return self.machine.monitor.ecall_extend_rtmr(
            self.session.cvm.cvm_id, index, data
        )

    def get_random(self, count: int) -> bytes:
        """ECALL the SM for platform random bytes."""
        self._require_cvm()
        return self.machine.monitor.ecall_get_random(self.session.cvm.cvm_id, count)

    def sbi_ecall(self, eid: int, fid: int, *args) -> tuple:
        """Raw register-convention ECALL into the SM (the real ABI path).

        Writes a7/a6/a0-a5, traps to M mode, and returns the SBI
        ``(error, value)`` pair from a0/a1.  Most callers prefer the typed
        convenience methods; this is the boundary conformance surface.
        """
        hart = self.session.hart
        gprs = hart.gprs
        gprs["a7"] = eid & _MASK64
        gprs["a6"] = fid & _MASK64
        a0, a1, a2, a3, a4, a5 = (args + (0,) * 6)[:6]
        gprs["a0"] = a0 & _MASK64
        gprs["a1"] = a1 & _MASK64
        gprs["a2"] = a2 & _MASK64
        gprs["a3"] = a3 & _MASK64
        gprs["a4"] = a4 & _MASK64
        gprs["a5"] = a5 & _MASK64
        self.ledger.charge(_TRAP, self.costs.trap_to_m)
        self.ledger.charge(_SM_LOGIC, self.costs.ecall_dispatch)
        self.machine.ecall_interface.dispatch(hart)
        self.ledger.charge(_TRAP, self.costs.xret)
        error = gprs["a0"]
        if error >= 1 << 63:
            error -= 1 << 64  # SBI errors are negative
        return error, gprs["a1"]

    # -- guest user mode (VU) ------------------------------------------------

    def run_user_process(self, user_fn):
        """Run ``user_fn(ctx)`` as a guest *user* process (VU mode).

        Models the guest kernel dispatching to userspace: ``sret`` into
        VU, the function's memory accesses translate at VU privilege, and
        :meth:`syscall` round-trips stay entirely inside the VM (the
        compatibility property VM-based TEEs claim: unmodified apps).
        """
        hart = self.session.hart
        if hart.mode is not PrivilegeMode.VS:
            raise ConfigurationError("only the guest kernel can start a process")
        self.ledger.charge(Category.TRAP, self.costs.xret)  # sret to VU
        self.ledger.charge(Category.GUEST_KERNEL, self.costs.guest_trap_handler)
        hart.mode = PrivilegeMode.VU
        self.syscall_count = getattr(self, "syscall_count", 0)
        try:
            return user_fn(self)
        finally:
            # Process exit: one final trap back into the guest kernel.
            self.ledger.charge(Category.TRAP, self.costs.trap_to_vs)
            self.ledger.charge(Category.GUEST_KERNEL, self.costs.guest_trap_handler)
            hart.mode = PrivilegeMode.VS

    def syscall(self, cost: int | None = None) -> None:
        """A guest-internal syscall from VU mode.

        Routed by the live delegation CSRs: for a confidential VM the
        ECALL-from-U cause is delegated to VS, so the whole round trip
        happens inside the VM -- no world switch, nothing for the host or
        the SM to see.  Raises if delegation would leak it (a
        configuration the SM never produces).
        """
        hart = self.session.hart
        if hart.mode is not PrivilegeMode.VU:
            raise ConfigurationError("syscalls come from user mode")
        dest = route_exception(
            ExceptionCause.ECALL_FROM_U, PrivilegeMode.VU, hart.medeleg, hart.hedeleg
        )
        if dest is not PrivilegeMode.VS:
            raise SecurityViolation(
                f"guest syscall would trap to {dest.name}: delegation broken"
            )
        self.ledger.charge(Category.TRAP, self.costs.trap_to_vs)
        self.ledger.charge(
            Category.GUEST_KERNEL, cost if cost is not None else self.costs.guest_syscall
        )
        self.ledger.charge(Category.TRAP, self.costs.xret)
        self.syscall_count = getattr(self, "syscall_count", 0) + 1

    def request_shared_memory(self, size: int) -> int:
        """Ask the SM/host to grow the shared window; returns the new GPA.

        Models the paper's patched guest kernel issuing a shared-memory
        request (e.g. enlarging its SWIOTLB pool at runtime).
        """
        self._require_cvm()
        return self.machine.monitor.ecall_guest_share_request(
            self.session.hart,
            self.session.cvm.cvm_id,
            self.session.vcpu_id,
            size,
        )

    def reclaim_pages(self, gpa: int, count: int) -> int:
        """Return private pages to the SM (balloon); returns pages freed."""
        self._require_cvm()
        return self.machine.monitor.ecall_reclaim_pages(
            self.session.cvm.cvm_id, self.session.vcpu_id, gpa, count
        )

    def _require_cvm(self) -> None:
        if self.session.kind is not _CONFIDENTIAL:
            raise ConfigurationError("SM guest services require a confidential VM")

    # -- waiting / interrupts ------------------------------------------------------

    def wfi(self) -> bool:
        """Wait-for-interrupt: exit to the host until it produces work.

        Returns True if the host's work poller reported progress.
        """
        session = self.session
        machine = self.machine
        if session.kind is _CONFIDENTIAL:
            vcpu = session.cvm.vcpu(session.vcpu_id)
            machine.monitor.world_switch.exit_to_normal(
                session.hart, session.cvm, vcpu, {"kind": "wfi", "cause": 0}
            )
            produced = bool(session.host_work and session.host_work(machine, session))
            machine.hypervisor.service_plic(
                session.hart, cvm=session.cvm, vcpu_id=session.vcpu_id
            )
            machine.monitor.world_switch.enter_cvm(session.hart, session.cvm, vcpu)
            machine._collect_injected_irqs(session)
        else:
            machine.hypervisor.normal_vm_exit(session.hart)
            produced = bool(session.host_work and session.host_work(machine, session))
            machine.hypervisor.service_plic(session.hart, machine=machine)
            machine.hypervisor.normal_vm_enter(session.hart)
            machine._deliver_normal_irqs(session)
        return produced

    def deliver_pending_irqs(self) -> int:
        """Run the guest kernel's handler for each pending VS interrupt."""
        delivered = 0
        bits = self.session.pending_irq_bits
        self.session.pending_irq_bits = 0
        while bits:
            bits &= bits - 1
            self.ledger.charge(_TRAP, self.costs.trap_to_vs)
            self.ledger.charge(_GUEST_KERNEL, self.costs.guest_trap_handler)
            self.ledger.charge(_TRAP, self.costs.xret)
            delivered += 1
        return delivered
