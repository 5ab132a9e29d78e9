"""Guest-access trace cache: recorded replays of hot, all-hit access sequences.

Workload hot loops issue the same ``load_seq``/``store_seq``/``touch_seq``
shapes over and over (a redis request touches the same 10 working-set
pages; a ring poll reads the same descriptors).  When every access of
such a sequence is a TLB hit, the live engine *records* what happened --
each access's TLB key and resolved host address.  Later executions of the
same shape replay the record against physical memory.

A TLB hit never reads a page table: it charges the hit, moves the entry
to the LRU tail and uses the entry's physical page.  So a replay is
proven by the TLB alone, whatever happened to the page tables since:

- the TLB ``generation`` is unchanged since the recording began -- it is
  bumped by every flush and capacity eviction, and an entry can only
  change value by being removed and re-filled, so every recorded entry
  is still present with its recorded value; or
- when the generation has moved, a structural re-check finds every
  recorded entry still present with its recorded value.

Either way the live engine would hit on every access, in the same order,
so the replay performs the same state updates and charges: bit-identical
total cycles, per-category counts, TLB statistics, LRU order and memory
effects.  A run with any miss, fault or detour to the reference path is
not recorded and always re-executes; a timer tick that flushes the TLB
partway through a replay hands the rest of the sequence to the live
engine.

Wall-clock only: the cache changes how fast *Python* reproduces a
sequence, never what the sequence charges.
"""

from __future__ import annotations

from collections import OrderedDict


class SeqTrace:
    """One recorded access sequence whose every access was a TLB hit."""

    __slots__ = ("tlb_gen", "keys", "pas", "expected")

    def __init__(self, tlb_gen, keys, pas, expected):
        #: TLB generation when the recording began (the fast proof).
        self.tlb_gen = tlb_gen
        #: Per-access TLB key ``(vmid, vpage)``.
        self.keys = keys
        #: Per-access resolved physical address.
        self.pas = pas
        #: key -> (ppage, flags) expected present (the structural proof).
        self.expected = expected


class TraceCache:
    """Bounded LRU of :class:`SeqTrace`, keyed by the call-site shape.

    Keys are ``(op, vmid, hgatp_root, addresses, size)`` where
    ``addresses`` is ``(gva0, step, count)`` for strided sequences or the
    literal gva tuple for ``touch_seq``.  The vmid/root components make
    stale traces from destroyed VMs unreachable (vmids are never reused
    within a machine), so the cache needs no teardown hook.
    """

    __slots__ = ("capacity", "_traces")

    def __init__(self, capacity: int = 2048):
        self.capacity = capacity
        self._traces: OrderedDict = OrderedDict()

    def get(self, key):
        """The trace recorded for ``key``, refreshed in LRU order."""
        trace = self._traces.get(key)
        if trace is not None:
            self._traces.move_to_end(key)
        return trace

    def put(self, key, trace: SeqTrace) -> None:
        """Record (or replace) ``key``'s trace, evicting the LRU at capacity."""
        traces = self._traces
        traces[key] = trace
        traces.move_to_end(key)
        while len(traces) > self.capacity:
            traces.popitem(last=False)

    def __len__(self):
        return len(self._traces)
