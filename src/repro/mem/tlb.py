"""A small TLB model.

Caches successful guest-physical translations keyed by ``(vmid, page)``.
Capacity-bounded with LRU replacement (both ``lookup`` and ``insert``
refresh an entry's recency, and eviction takes the least recently used)
-- enough fidelity to express the performance effect ZION's world
switches have (the PMP toggle forces an ``hfence.gvma``, so a resumed
guest re-walks its hot pages), without modelling associativity.

Statistics distinguish whole-TLB / per-VMID flushes (``flushes``, the
``hfence``-scale events the experiments care about) from single-page
invalidations (``page_flushes``).
"""

from __future__ import annotations

from collections import OrderedDict


class Tlb:
    """Translation cache: (vmid, virtual page) -> (physical page, flags)."""

    def __init__(self, capacity: int = 512):
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: Whole-TLB and per-VMID flushes (hfence.gvma-scale events).
        self.flushes = 0
        #: Single-page invalidations, counted separately from ``flushes``.
        self.page_flushes = 0
        #: Monotonic invalidation epoch: bumped whenever entries may have
        #: *disappeared* (any flush, or a capacity eviction); insertions
        #: only bump it when they evict.
        self.generation = 0

    def lookup(self, vmid: int, vpage: int):
        """Cached (ppage, flags) or ``None``."""
        key = (vmid, vpage)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return entry

    def insert(self, vmid: int, vpage: int, ppage: int, flags: int) -> None:
        """Cache a translation, evicting the least recently used at capacity."""
        entries = self._entries
        key = (vmid, vpage)
        entries[key] = (ppage, flags)
        entries.move_to_end(key)
        # One insert adds at most one entry, so it evicts at most one.
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.generation += 1

    def flush_all(self) -> None:
        """Drop every cached translation."""
        self._entries.clear()
        self.flushes += 1
        self.generation += 1

    def flush_vmid(self, vmid: int) -> None:
        """Drop all translations of one VMID (a scan of every entry).

        Only rare events fence one VMID -- a shared-subtree re-link, a
        CVM's destruction, a guest enabling or disabling ``vsatp`` -- so
        the scan is cheaper overall than indexing every insert by VMID.
        """
        entries = self._entries
        for key in [key for key in entries if key[0] == vmid]:
            del entries[key]
        self.flushes += 1
        self.generation += 1

    def flush_page(self, vmid: int, vpage: int) -> None:
        """Drop one page's translation (counted even if absent)."""
        self.generation += 1
        self._entries.pop((vmid, vpage), None)
        self.page_flushes += 1

    def __len__(self):
        return len(self._entries)
