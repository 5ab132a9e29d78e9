"""Differential test of the batched access engine against the reference path.

A default machine runs ``load_seq``/``store_seq``/``touch_seq`` through
the batched engine and its trace cache (``Machine.run_seq``); a
``trace_cache=False`` machine runs the same calls one access at a time
through the reference path.  The state machine below drives both in
lockstep over strided and page-straddling shapes across private pages,
the channel window, a read-only mapping, the MMIO window and the end of
guest DRAM, mixed with:

- TLB flushes, through a timer tick landing mid-sequence or an
  ``sfence`` of one page;
- reclaiming a private page and touching it again (a remap);
- first-touch stores to runs of fresh pages, which move the map epoch
  while the TLB keeps its entries (the ``mem_churn`` shape).

Runs may boot both machines with a four-page secure block, so a
CVM's first touches cross stage-2 refills and pool expansions inside one
sequence.

After every step the two machines must agree on the values returned, the
error types raised, ``ledger.by_category()``, the TLB statistics and
generation, the TLB's LRU key order, the fault handlers' counters and
allocations, and the hart's mode.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.mem.physmem import PAGE_SIZE
from tests.properties.test_prop_single_access import (
    LAYOUT,
    PRIVATE_OFFSET,
    READ_ONLY_OFFSET,
    WINDOW_OFFSET,
    _Side,
)

DRAM = LAYOUT.dram_base
PRIVATE = DRAM + PRIVATE_OFFSET
#: First-touch stores go to fresh pages from here, one word per page.
FRESH = DRAM + (40 << 20)

#: The small-block variant's secure block size.
SMALL_BLOCK = 4 * PAGE_SIZE
#: Strided shapes ``(gva0, size, stride, count)``, few enough that the
#: same shape recurs -- and replays -- within one run.
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


class SeqAccessDiff(RuleBasedStateMachine):
    """Batched-engine and reference machines, stepped in lockstep."""

    @initialize(kind=st.sampled_from(["cvm", "normal"]), small_blocks=st.booleans())
    def boot(self, kind, small_blocks):
        self.kind = kind
        # A few-page secure block in a pool of a few blocks: a CVM's
        # first touches cross stage-2 refills and a pool expansion.
        config = {}
        if small_blocks:
            config = {"secure_block_size": SMALL_BLOCK, "initial_pool_bytes": 16 * SMALL_BLOCK}
        self.sides = tuple(
            _Side(kind, trace_cache=trace_cache, **config) for trace_cache in (True, False)
        )
        assert self.sides[0].machine._trace_cache is not None
        assert self.sides[1].machine._trace_cache is None
        cvm = kind == "cvm"
        self.strided = STRIDED + (CVM_STRIDED if cvm else [])
        self.touches = TOUCHES + (CVM_TOUCHES if cvm else [])
        self.fresh = 0

    def _both(self, method: str, *args):
        engine, reference = (side.call(method, *args) for side in self.sides)
        assert engine == reference

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
        """One word per fresh page, in one ``store_seq``: the map epoch moves."""
        values = [value ^ i for i in range(pages)]
        self._both("store_seq", FRESH + self.fresh * PAGE_SIZE, values, 8, PAGE_SIZE)
        self.fresh += pages

    @invariant()
    def agree(self):
        engine, reference = (side.fingerprint() for side in self.sides)
        assert engine == reference


SeqAccessDiff.TestCase.settings = settings(deadline=None, stateful_step_count=40)
TestSeqAccessDiff = SeqAccessDiff.TestCase
