"""TLB model: lookup, capacity, flush scoping."""

from repro.mem.tlb import Tlb


def test_miss_then_hit():
    tlb = Tlb()
    assert tlb.lookup(1, 0x80000) is None
    tlb.insert(1, 0x80000, 0x90000, 0b111)
    assert tlb.lookup(1, 0x80000) == (0x90000, 0b111)
    assert tlb.hits == 1
    assert tlb.misses == 1


def test_vmid_isolation():
    tlb = Tlb()
    tlb.insert(1, 0x80000, 0x90000, 0b111)
    assert tlb.lookup(2, 0x80000) is None


def test_capacity_eviction_takes_least_recent():
    tlb = Tlb(capacity=4)
    for i in range(5):
        tlb.insert(1, i, i + 100, 0)
    assert len(tlb) == 4
    # With no intervening lookups the least recently used IS the oldest.
    assert tlb.lookup(1, 0) is None
    assert tlb.lookup(1, 4) is not None


def test_lookup_refreshes_recency():
    """Pins the replacement policy as LRU, not FIFO: a hit saves an
    entry that insertion order alone would have evicted."""
    tlb = Tlb(capacity=4)
    for i in range(4):
        tlb.insert(1, i, i + 100, 0)
    assert tlb.lookup(1, 0) is not None  # refresh the oldest insert
    tlb.insert(1, 99, 199, 0)
    assert tlb.lookup(1, 0) is not None  # survived: recently used
    assert tlb.lookup(1, 1) is None      # evicted instead: least recent


def test_insert_refreshes_recency():
    tlb = Tlb(capacity=2)
    tlb.insert(1, 0, 10, 0)
    tlb.insert(1, 1, 11, 0)
    tlb.insert(1, 0, 12, 0)  # re-insert refreshes (and updates) entry 0
    tlb.insert(1, 2, 13, 0)
    assert tlb.lookup(1, 1) is None
    assert tlb.lookup(1, 0) == (12, 0)


def test_flush_all():
    tlb = Tlb()
    tlb.insert(1, 1, 2, 0)
    tlb.insert(2, 1, 2, 0)
    tlb.flush_all()
    assert len(tlb) == 0
    assert tlb.flushes == 1


def test_flush_vmid_scoped():
    tlb = Tlb()
    tlb.insert(1, 1, 2, 0)
    tlb.insert(2, 1, 3, 0)
    tlb.flush_vmid(1)
    assert tlb.lookup(1, 1) is None
    assert tlb.lookup(2, 1) == (3, 0)


def test_flush_page():
    tlb = Tlb()
    tlb.insert(1, 5, 6, 0)
    tlb.insert(1, 7, 8, 0)
    tlb.flush_page(1, 5)
    assert tlb.lookup(1, 5) is None
    assert tlb.lookup(1, 7) == (8, 0)


def test_flush_page_missing_is_noop():
    tlb = Tlb()
    tlb.flush_page(1, 99)  # must not raise


def test_page_flushes_counted_separately_from_flushes():
    tlb = Tlb()
    tlb.insert(1, 5, 6, 0)
    tlb.flush_page(1, 5)
    tlb.flush_page(1, 99)  # absent pages still count (hfence was issued)
    assert tlb.page_flushes == 2
    assert tlb.flushes == 0  # single-page invalidations are not hfence-scale
    tlb.flush_all()
    tlb.flush_vmid(1)
    assert tlb.flushes == 2
    assert tlb.page_flushes == 2


# -- flush_vmid after evictions and page flushes ----------------------------


def test_flush_vmid_drops_exactly_that_vmid():
    tlb = Tlb()
    for vpage in range(3):
        tlb.insert(7, vpage, vpage + 100, 0)
    tlb.insert(8, 0, 200, 0)
    tlb.flush_vmid(7)
    assert tlb.flushes == 1  # one hfence-scale event, however many entries
    assert len(tlb) == 1
    assert tlb.lookup(8, 0) == (200, 0)


def test_flush_vmid_after_eviction_skips_evicted_entries():
    """An entry LRU eviction already retired is not flushed a second
    time: a later flush_vmid drops only the entries still present."""
    tlb = Tlb(capacity=2)
    tlb.insert(1, 0, 10, 0)
    tlb.insert(1, 1, 11, 0)
    tlb.insert(1, 2, 12, 0)  # evicts (1, 0)
    tlb.flush_vmid(1)  # must not raise on the already-evicted entry
    assert tlb.flushes == 1
    assert len(tlb) == 0


def test_flush_vmid_after_flush_page_skips_flushed_entries():
    tlb = Tlb()
    tlb.insert(1, 5, 6, 0)
    tlb.insert(1, 7, 8, 0)
    tlb.flush_page(1, 5)
    tlb.flush_vmid(1)  # must not raise on the already-flushed page
    assert tlb.flushes == 1
    assert tlb.page_flushes == 1
    assert tlb.lookup(1, 7) is None


def test_flush_vmid_on_empty_vmid_still_counts_the_fence():
    tlb = Tlb()
    tlb.insert(3, 1, 2, 0)
    tlb.flush_vmid(3)
    tlb.flush_vmid(3)  # nothing left, but the hfence was still issued
    assert tlb.flushes == 2
    assert len(tlb) == 0


def test_reinsert_after_flush_vmid():
    tlb = Tlb()
    tlb.insert(4, 9, 90, 0b111)
    tlb.flush_vmid(4)
    tlb.insert(4, 9, 91, 0b011)
    assert tlb.lookup(4, 9) == (91, 0b011)
    tlb.flush_vmid(4)
    assert tlb.lookup(4, 9) is None


def test_eviction_across_vmids_keeps_other_vmid_flushable():
    tlb = Tlb(capacity=2)
    tlb.insert(1, 0, 10, 0)
    tlb.insert(2, 0, 20, 0)
    tlb.insert(2, 1, 21, 0)  # evicts vmid 1's only entry
    tlb.flush_vmid(1)  # nothing left for vmid 1; must not raise
    tlb.flush_vmid(2)
    assert tlb.flushes == 2
    assert len(tlb) == 0
