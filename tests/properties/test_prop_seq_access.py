"""Differential test of the guest-access engine against the reference path.

A default machine runs every guest access through the one engine
(``Machine._build_engine``): ``load``/``store``/``read_bytes``/
``write_bytes`` make one engine call per access, and ``load_seq``/
``store_seq``/``touch_seq`` loop over it (``Machine.run_seq``).  A
reference machine (``make_machine(reference=True)``) runs the same
calls one access at a time through the reference path
(``Machine.guest_access`` plus the data move).  The state machines below
(``SingleAccessDiff``, one access per call, and ``AccessDiff``, which
adds the sequence rules) drive both in lockstep over private pages, a
live channel window, a read-only mapping, the MMIO window, out-of-range
and page-straddling addresses, and strided and page-straddling sequences
across the same regions and the end of guest DRAM, mixed with:

- compute padding that lands timer ticks mid-sequence, and TLB flushes,
  through such a tick or an ``sfence`` of one page;
- reclaiming a private page and touching it again (a remap);
- first-touch stores to runs of fresh pages, one ``store_seq`` or one
  ``store`` per page, which move the map epoch while the TLB keeps its
  entries (the ``mem_churn`` shape).

Runs may boot both machines with a four-page secure block, so a CVM's
first touches, scalar or batched, cross stage-2 refills and pool
expansions.

After every step the two machines must agree on the values returned, the
error types raised, ``ledger.by_category()``, the TLB statistics and
generation, the TLB's LRU key order, the fault handlers' counters and
allocations, and the hart's mode.  The engine machine runs with a
:class:`~repro.trace.Tracer` attached, so the diff also shows that
recording events changes none of these.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.machine import GuestContext
from repro.mem.pagetable import PTE_W
from repro.mem.physmem import PAGE_SIZE
from repro.sm.cvm import GpaLayout
from repro.trace import Tracer
from tests.conftest import make_machine

#: Both kinds of VM boot with the default GPA layout.
LAYOUT = GpaLayout()
IMAGE = b"single-access-diff" * 32
#: Private test pages from this offset of guest DRAM.
PRIVATE_OFFSET = 24 << 20
#: A first-touched page whose leaf is then made read-only.
READ_ONLY_OFFSET = 28 << 20
#: The channel window (CVMs only), two pages.
WINDOW_OFFSET = 32 << 20
WINDOW = 2 * PAGE_SIZE

DRAM = LAYOUT.dram_base
PRIVATE = DRAM + PRIVATE_OFFSET
#: First-touch stores go to fresh pages from here, one word per page.
FRESH = DRAM + (40 << 20)

#: The small-block variant's secure block size.
SMALL_BLOCK = 4 * PAGE_SIZE
#: Strided shapes ``(gva0, size, stride, count)``, few enough that the
#: same shape recurs within one run.
STRIDED = [
    (PRIVATE, 8, PAGE_SIZE, 4),  # one aligned word per private page
    (PRIVATE + 8, 8, 8, 6),  # dense words in one page
    (PRIVATE + PAGE_SIZE - 8, 8, 4, 3),  # misaligned words straddling pages 0/1
    (PRIVATE + 2 * PAGE_SIZE - 2, 4, PAGE_SIZE, 2),  # every access straddles
    (PRIVATE + 0x7F8, 2, PAGE_SIZE + 8, 3),
    (PRIVATE + 4 * PAGE_SIZE, 1, PAGE_SIZE + 1, 3),  # first touches, then hot
    (DRAM + READ_ONLY_OFFSET, 8, 8, 2),  # stores take the permission path
    (LAYOUT.mmio_base, 8, 8, 2),
    (DRAM + LAYOUT.dram_size - 8, 8, 8, 2),  # runs off the end of guest DRAM
]
#: Literal ``touch_seq`` address tuples (repeated pages included).
TOUCHES = [
    (PRIVATE, PRIVATE + 2 * PAGE_SIZE, PRIVATE + PAGE_SIZE, PRIVATE),
    (PRIVATE + 3 * PAGE_SIZE + 5, PRIVATE + 5 * PAGE_SIZE),
    (DRAM + READ_ONLY_OFFSET, LAYOUT.mmio_base + 0x100, PRIVATE + 7),
]
#: Shapes only a CVM has: the channel window.
CVM_STRIDED = [(DRAM + WINDOW_OFFSET + PAGE_SIZE - 4, 8, PAGE_SIZE, 2)]
CVM_TOUCHES = [(DRAM + WINDOW_OFFSET, DRAM + WINDOW_OFFSET + PAGE_SIZE, PRIVATE)]


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

    def __init__(self, kind: str, reference: bool, **config):
        machine = make_machine(reference, **config)
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
    """Guest addresses worth probing with a scalar or bulk access."""
    offsets = st.sampled_from([0, 8, 0x7F8, PAGE_SIZE - 8, PAGE_SIZE - 4, PAGE_SIZE - 1])
    choices = [
        st.builds(lambda page, off: PRIVATE + page * PAGE_SIZE + off,
                  st.integers(0, 5), offsets),
        st.builds(lambda off: DRAM + READ_ONLY_OFFSET + off, offsets),
        st.builds(lambda off: LAYOUT.mmio_base + off, st.sampled_from([0, 0x100, 0x1008])),
        st.sampled_from([
            DRAM + LAYOUT.dram_size + 0x1000,  # past the guest's DRAM
            (1 << 41) + 0x2000,  # past the Sv39x4 space
        ]),
    ]
    if kind == "cvm":
        choices.append(st.builds(lambda page, off: DRAM + WINDOW_OFFSET + page * PAGE_SIZE + off,
                                 st.integers(0, 1), offsets))
    return st.one_of(choices)


ADDRESSES = {kind: _addresses(kind) for kind in ("cvm", "normal")}


class SingleAccessDiff(RuleBasedStateMachine):
    """Engine and reference machines, stepped in lockstep, one access per
    call (``test_prop_single_access.py`` runs this machine alone)."""

    @initialize(kind=st.sampled_from(["cvm", "normal"]), small_blocks=st.booleans())
    def boot(self, kind, small_blocks):
        self.kind = kind
        # A few-page secure block in a pool of a few blocks: a CVM's
        # first touches cross stage-2 refills and a pool expansion.
        config = {}
        if small_blocks:
            config = {"secure_block_size": SMALL_BLOCK, "initial_pool_bytes": 16 * SMALL_BLOCK}
        self.sides = tuple(
            _Side(kind, reference=reference, **config) for reference in (False, True)
        )
        # The engine side runs traced: recording must change nothing the
        # fingerprints compare.
        self.tracer = Tracer(self.sides[0].machine)
        cvm = kind == "cvm"
        self.strided = STRIDED + (CVM_STRIDED if cvm else [])
        self.touches = TOUCHES + (CVM_TOUCHES if cvm else [])
        self.fresh = 0

    def _both(self, method: str, *args):
        engine, reference = (side.call(method, *args) for side in self.sides)
        assert engine == reference

    # -- one access per call ---------------------------------------------------

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

    # -- what happens between accesses -----------------------------------------

    @rule(before=st.integers(0, 40))
    def pad_to_tick(self, before):
        """Compute until ``before`` cycles short of the next timer tick."""
        for side in self.sides:
            machine = side.machine
            hart_id = side.session.hart.hart_id
            until = machine.clint.read_mtimecmp(hart_id) - machine.ledger.total
            side.ctx.compute(max(0, until - before))

    @rule(page=st.integers(0, 5))
    def sfence(self, page):
        """Flush one private page's translation."""
        for side in self.sides:
            side.machine.translator.sfence_page(side.session.vmid, PRIVATE + page * PAGE_SIZE)

    @precondition(lambda self: self.kind == "cvm")
    @rule(page=st.integers(0, 5))
    def reclaim_and_retouch(self, page):
        """Balloon a private page back to the SM, then touch it again."""
        gpa = PRIVATE + page * PAGE_SIZE
        self._both("reclaim_pages", gpa, 1)
        self._both("load", gpa)

    @rule(value=st.integers(0, (1 << 64) - 1), pages=st.integers(1, 6))
    def first_touch(self, value, pages):
        """One word per fresh page, one ``store`` each: the map epoch moves."""
        self._first_touch(value, pages, scalar=True)

    def _first_touch(self, value, pages, scalar):
        base = FRESH + self.fresh * PAGE_SIZE
        values = [value ^ i for i in range(pages)]
        if scalar:
            for i, word in enumerate(values):
                self._both("store", base + i * PAGE_SIZE, word)
        else:
            self._both("store_seq", base, values, 8, PAGE_SIZE)
        self.fresh += pages

    @invariant()
    def agree(self):
        engine, reference = (side.fingerprint() for side in self.sides)
        assert engine == reference


class AccessDiff(SingleAccessDiff):
    """The one-access rules plus sequences, stepped in lockstep."""

    # -- sequences -------------------------------------------------------------

    @rule(data=st.data())
    def load_seq(self, data):
        gva, size, stride, count = data.draw(st.sampled_from(self.strided))
        self._both("load_seq", gva, count, size, stride)

    @rule(data=st.data(), seed=st.integers(0, (1 << 64) - 1))
    def store_seq(self, data, seed):
        gva, size, stride, count = data.draw(st.sampled_from(self.strided))
        values = [(seed * (i + 1)) & ((1 << 64) - 1) for i in range(count)]
        self._both("store_seq", gva, values, size, stride)

    @rule(data=st.data())
    def touch_seq(self, data):
        self._both("touch_seq", data.draw(st.sampled_from(self.touches)))

    @rule(value=st.integers(0, (1 << 64) - 1), pages=st.integers(1, 6), scalar=st.booleans())
    def first_touch(self, value, pages, scalar):
        """One word per fresh page, in one ``store_seq`` or one ``store``
        each: the map epoch moves."""
        self._first_touch(value, pages, scalar)


AccessDiff.TestCase.settings = settings(deadline=None, stateful_step_count=80)
TestSeqAccessDiff = AccessDiff.TestCase
