"""The TLB against a list-based LRU reference model.

Random ``insert``/``lookup``/``flush_page``/``flush_vmid``/``flush_all``
sequences over three VMIDs run on a small :class:`~repro.mem.tlb.Tlb` and
on :class:`_ModelTlb`, a plain list kept in LRU order.  After every
operation the two must agree on the value returned, the entry order
and ``hits``/``misses``/``flushes``/``page_flushes``.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.mem.tlb import Tlb

VMIDS = st.integers(1, 3)
#: Few pages, so operations keep landing on entries already present.
PAGES = st.integers(0, 9)


class _ModelTlb:
    """The reference: ``entries`` is a list of ``(key, value)``, oldest first."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: list = []
        self.hits = self.misses = self.flushes = self.page_flushes = 0

    def _pop(self, key):
        for index, (present, value) in enumerate(self.entries):
            if present == key:
                del self.entries[index]
                return value
        return None

    def lookup(self, vmid, vpage):
        key = (vmid, vpage)
        value = self._pop(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        self.entries.append((key, value))
        return value

    def insert(self, vmid, vpage, ppage, flags):
        key = (vmid, vpage)
        self._pop(key)
        self.entries.append((key, (ppage, flags)))
        if len(self.entries) > self.capacity:
            del self.entries[0]

    def flush_page(self, vmid, vpage):
        self._pop((vmid, vpage))
        self.page_flushes += 1

    def flush_vmid(self, vmid):
        self.entries = [entry for entry in self.entries if entry[0][0] != vmid]
        self.flushes += 1

    def flush_all(self):
        self.entries = []
        self.flushes += 1


INSERT = st.tuples(st.just("insert"), VMIDS, PAGES, st.integers(0, 1 << 20), st.integers(0, 0xFF))
LOOKUP = st.tuples(st.just("lookup"), VMIDS, PAGES)
FLUSH_PAGE = st.tuples(st.just("flush_page"), VMIDS, PAGES)
FLUSH_VMID = st.tuples(st.just("flush_vmid"), VMIDS)
FLUSH_ALL = st.tuples(st.just("flush_all"))
#: Inserts outweigh flushes, so most sequences fill the TLB and evict.
OPERATIONS = st.integers(0, 19).flatmap(
    lambda roll: INSERT if roll < 10 else LOOKUP if roll < 16
    else FLUSH_PAGE if roll < 18 else FLUSH_VMID if roll < 19 else FLUSH_ALL
)


def _state(tlb) -> tuple:
    return (tlb.hits, tlb.misses, tlb.flushes, tlb.page_flushes)


@given(capacity=st.integers(4, 8), operations=st.lists(OPERATIONS, min_size=20, max_size=120))
def test_tlb_matches_lru_model(capacity, operations):
    tlb = Tlb(capacity)
    model = _ModelTlb(capacity)
    for name, *args in operations:
        assert getattr(tlb, name)(*args) == getattr(model, name)(*args)
        assert list(tlb._entries.items()) == model.entries
        assert _state(tlb) == _state(model)
        assert len(tlb) == len(model.entries) <= capacity
