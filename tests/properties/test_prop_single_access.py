"""Differential test of the single-access engine against the reference path.

A default machine runs guest ``load``/``store``/``read_bytes``/
``write_bytes`` through the single-access engine; a ``trace_cache=False``
machine runs the same calls through the reference path
(``Machine.guest_access`` plus the data move).  The state machine below
drives both in lockstep over private pages, a live channel window, a
read-only mapping, the MMIO window, out-of-range and page-straddling
addresses, with compute padding that lands timer ticks mid-sequence.
After every step the two machines must agree on the values returned,
the error types raised, ``ledger.by_category()``, the TLB statistics and
generation, the TLB's LRU key order, the fault handlers' counters and
allocations, and the hart's mode.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro import Machine, MachineConfig
from repro.machine import GuestContext
from repro.mem.pagetable import PTE_W
from repro.mem.physmem import PAGE_SIZE
from repro.sm.cvm import GpaLayout

#: Both kinds of VM boot with the default GPA layout.
LAYOUT = GpaLayout()
IMAGE = b"single-access-diff" * 32
#: Private test pages: four adjacent pages from this offset of guest DRAM.
PRIVATE_OFFSET = 24 << 20
#: A first-touched page whose leaf is then made read-only.
READ_ONLY_OFFSET = 28 << 20
#: The channel window (CVMs only), two pages.
WINDOW_OFFSET = 32 << 20
WINDOW = 2 * PAGE_SIZE


def _leaf_slot(machine, root: int, gpa: int) -> int:
    """Physical address of the valid leaf PTE mapping ``gpa`` (test probe)."""
    sv = machine.translator.sv39x4
    table = root
    for depth in range(sv.levels):
        slot = table + 8 * ((gpa >> sv._shifts[depth]) & sv._masks[depth])
        pte = machine.dram.read_u64(slot)
        assert pte & 1, f"{gpa:#x} is not mapped"
        if pte & 0b1110:
            return slot
        table = (pte >> 10) << 12
    raise AssertionError(f"no leaf for {gpa:#x}")


class _Side:
    """One machine of the pair, with its session entered."""

    def __init__(self, kind: str, trace_cache: bool, **config):
        machine = Machine(MachineConfig(trace_cache=trace_cache, **config))
        self.machine = machine
        if kind == "cvm":
            session = machine.launch_confidential_vm(image=IMAGE)
            peer = machine.launch_confidential_vm(image=IMAGE)
            monitor = machine.monitor
            base = session.layout.dram_base + WINDOW_OFFSET
            channel = monitor.ecall_channel_create(
                session.cvm.cvm_id, base, WINDOW, peer.cvm.measurement
            )
            monitor.ecall_channel_connect(
                peer.cvm.cvm_id, channel, peer.layout.dram_base + WINDOW_OFFSET,
                session.cvm.measurement,
            )
        else:
            session = machine.launch_normal_vm("diff")
        self.session = session
        machine._enter_guest(session)
        self.ctx = GuestContext(machine, session)
        # The read-only page: first-touch it, then clear W in its leaf.
        gpa = session.layout.dram_base + READ_ONLY_OFFSET
        self.ctx.store(gpa, 0x5EED)
        slot = _leaf_slot(machine, session.hgatp_root, gpa)
        machine.dram.write_u64(slot, machine.dram.read_u64(slot) & ~PTE_W)
        machine.translator.tlb.flush_all()

    def call(self, method: str, *args):
        try:
            return "ok", getattr(self.ctx, method)(*args)
        except Exception as error:  # the type is what must agree
            return "raised", type(error).__name__

    def fingerprint(self) -> dict:
        machine = self.machine
        tlb = machine.translator.tlb
        vmid = self.session.vmid
        normal_vm = self.session.normal_vm
        return {
            "by_category": machine.ledger.by_category(),
            "tlb": (tlb.hits, tlb.misses, tlb.generation, tlb.flushes, tlb.page_flushes),
            # VMIDs of normal VMs come from a process-wide counter, so
            # keys are compared as (own VM?, page).
            "tlb_order": [(key[0] == vmid, key[1]) for key in tlb._entries],
            # Which fault handlers ran, what they mapped and allocated,
            # and the mode the hart came back in.
            "kvm_maps": machine.hypervisor.map_generation,
            "host_free": machine.hypervisor.allocator.free_bytes(),
            "sm_fault_stages": dict(machine.monitor.fault_stage_counts),
            "pool_free_blocks": machine.monitor.pool.free_blocks,
            "kvm_faults": None if normal_vm is None else normal_vm.fault_count,
            "hart_mode": self.session.hart.mode,
        }


def _addresses(kind: str):
    """Guest addresses worth probing for a VM of ``kind``."""
    dram = LAYOUT.dram_base
    offsets = st.sampled_from([0, 8, 0x7F8, PAGE_SIZE - 8, PAGE_SIZE - 4, PAGE_SIZE - 1])
    choices = [
        st.builds(lambda page, off: dram + PRIVATE_OFFSET + page * PAGE_SIZE + off,
                  st.integers(0, 3), offsets),
        st.builds(lambda off: dram + READ_ONLY_OFFSET + off, offsets),
        st.builds(lambda off: LAYOUT.mmio_base + off, st.sampled_from([0, 0x100, 0x1008])),
        st.sampled_from([
            dram + LAYOUT.dram_size + 0x1000,  # past the guest's DRAM
            (1 << 41) + 0x2000,  # past the Sv39x4 space
        ]),
    ]
    if kind == "cvm":
        choices.append(st.builds(lambda page, off: dram + WINDOW_OFFSET + page * PAGE_SIZE + off,
                                 st.integers(0, 1), offsets))
    return st.one_of(choices)


ADDRESSES = {kind: _addresses(kind) for kind in ("cvm", "normal")}


class SingleAccessDiff(RuleBasedStateMachine):
    """Engine and reference machines, stepped in lockstep."""

    @initialize(kind=st.sampled_from(["cvm", "normal"]))
    def boot(self, kind):
        self.kind = kind
        self.sides = (_Side(kind, trace_cache=True), _Side(kind, trace_cache=False))
        assert self.sides[0].machine._trace_cache is not None
        assert self.sides[1].machine._trace_cache is None

    def _both(self, method: str, *args):
        engine, reference = (side.call(method, *args) for side in self.sides)
        assert engine == reference

    @rule(data=st.data(), size=st.sampled_from([1, 2, 4, 8]))
    def load(self, data, size):
        self._both("load", data.draw(ADDRESSES[self.kind]), size)

    @rule(data=st.data(), size=st.sampled_from([1, 2, 4, 8]),
          value=st.integers(0, (1 << 64) - 1))
    def store(self, data, size, value):
        self._both("store", data.draw(ADDRESSES[self.kind]), value, size)

    @rule(data=st.data(), length=st.integers(1, PAGE_SIZE + 64))
    def read_bytes(self, data, length):
        self._both("read_bytes", data.draw(ADDRESSES[self.kind]), length)

    @rule(data=st.data(), length=st.integers(1, PAGE_SIZE + 64), fill=st.integers(0, 255))
    def write_bytes(self, data, length, fill):
        payload = bytes((fill + i) & 0xFF for i in range(length))
        self._both("write_bytes", data.draw(ADDRESSES[self.kind]), payload)

    @rule(before=st.integers(0, 40))
    def pad_to_tick(self, before):
        """Compute until ``before`` cycles short of the next timer tick."""
        for side in self.sides:
            machine = side.machine
            hart_id = side.session.hart.hart_id
            until = machine.clint.read_mtimecmp(hart_id) - machine.ledger.total
            side.ctx.compute(max(0, until - before))

    @invariant()
    def agree(self):
        engine, reference = (side.fingerprint() for side in self.sides)
        assert engine == reference


SingleAccessDiff.TestCase.settings = settings(
    deadline=None, stateful_step_count=40
)
TestSingleAccessDiff = SingleAccessDiff.TestCase
