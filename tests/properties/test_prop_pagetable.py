"""Property-based tests: page-table map/walk/unmap invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryError_
from repro.mem.pagetable import (
    PTE_A,
    PTE_D,
    PTE_G,
    PTE_R,
    PTE_U,
    PTE_V,
    PTE_W,
    PTE_X,
    Sv39,
    Sv39x4,
    _reaches,
    pte_is_leaf,
    pte_target,
)
from repro.mem.physmem import PAGE_SIZE, PhysicalMemory

BASE = 0x8000_0000


class Raw:
    def __init__(self, dram):
        self.dram = dram

    def read_u64(self, addr):
        return self.dram.read_u64(addr)

    def write_u64(self, addr, value):
        self.dram.write_u64(addr, value)


def _env(scheme):
    dram = PhysicalMemory(BASE, 64 << 20)
    root = BASE
    dram.zero_range(root, scheme.root_size)
    cursor = [BASE + (1 << 20)]

    def alloc():
        pa = cursor[0]
        cursor[0] += PAGE_SIZE
        dram.zero_range(pa, PAGE_SIZE)
        return pa

    return dram, Raw(dram), root, alloc


va_pages_39 = st.integers(min_value=0, max_value=(1 << 27) - 1)
va_pages_41 = st.integers(min_value=0, max_value=(1 << 29) - 1)
pa_pages = st.integers(min_value=1 << 20, max_value=(1 << 20) + 4096)


@settings(max_examples=50, deadline=None)
@given(mapping=st.dictionaries(va_pages_41, pa_pages, min_size=1, max_size=24))
def test_walk_returns_exactly_what_was_mapped(mapping):
    scheme = Sv39x4()
    dram, acc, root, alloc = _env(scheme)
    for va_page, pa_page in mapping.items():
        scheme.map(acc, root, va_page << 12, BASE + (pa_page << 12) - BASE + 0x200_0000,
                   PTE_R | PTE_W, alloc)
    for va_page, pa_page in mapping.items():
        result = scheme.walk(acc, root, va_page << 12)
        assert result is not None
        assert result.pa == BASE + (pa_page << 12) - BASE + 0x200_0000
    leaves = dict(
        (va >> 12, pa) for va, pa, _f, _l in scheme.iter_leaves(dram, root)
    )
    assert set(leaves) == set(mapping)


@settings(max_examples=50, deadline=None)
@given(
    va_pages=st.sets(va_pages_39, min_size=2, max_size=16),
    data=st.data(),
)
def test_unmap_removes_only_the_target(va_pages, data):
    scheme = Sv39()
    dram, acc, root, alloc = _env(scheme)
    va_pages = sorted(va_pages)
    for i, va_page in enumerate(va_pages):
        scheme.map(acc, root, va_page << 12, BASE + 0x200_0000 + i * PAGE_SIZE,
                   PTE_R, alloc)
    victim = data.draw(st.sampled_from(va_pages))
    scheme.unmap(acc, root, victim << 12)
    assert scheme.walk(acc, root, victim << 12) is None
    for va_page in va_pages:
        if va_page != victim:
            assert scheme.walk(acc, root, va_page << 12) is not None


@settings(max_examples=50, deadline=None)
@given(va_page=va_pages_39, offset=st.integers(min_value=0, max_value=PAGE_SIZE - 1))
def test_offset_preserved_through_translation(va_page, offset):
    scheme = Sv39()
    dram, acc, root, alloc = _env(scheme)
    scheme.map(acc, root, va_page << 12, BASE + 0x200_0000, PTE_R, alloc)
    result = scheme.walk(acc, root, (va_page << 12) | offset)
    assert result.pa == BASE + 0x200_0000 + offset


@settings(max_examples=30, deadline=None)
@given(va_pages=st.sets(va_pages_41, min_size=1, max_size=16))
def test_tables_and_leaves_never_alias(va_pages):
    """No leaf target is also used as a table page."""
    scheme = Sv39x4()
    dram, acc, root, alloc = _env(scheme)
    for i, va_page in enumerate(sorted(va_pages)):
        scheme.map(acc, root, va_page << 12, BASE + 0x300_0000 + i * PAGE_SIZE,
                   PTE_R | PTE_X, alloc)
    tables = set(scheme.iter_tables(dram, root))
    leaves = {pa for _va, pa, _f, _l in scheme.iter_leaves(dram, root)}
    assert not tables & leaves


# -- table scans against a naive reference -------------------------------------


def _reference_leaves(scheme, dram, table, depth=0, va_prefix=0):
    """The plain per-word recursion ``iter_leaves`` must agree with."""
    entries = scheme.root_entries if depth == 0 else 512
    below = sum(scheme.vpn_bits[depth + 1 :])
    for index in range(entries):
        pte = dram.read_u64(table + 8 * index)
        if not pte & PTE_V:
            continue
        va = va_prefix | index << (12 + below)
        if pte_is_leaf(pte):
            yield va, pte_target(pte), pte & 0xFF, scheme.levels - 1 - depth
        elif depth < scheme.levels - 1:  # a last-level pointer is not followed
            yield from _reference_leaves(scheme, dram, pte_target(pte), depth + 1, va)


def _reference_tables(scheme, dram, table, depth=0):
    """The plain per-word recursion ``iter_tables`` must agree with."""
    if depth == 0:
        yield table
    if depth == scheme.levels - 1:
        return
    entries = scheme.root_entries if depth == 0 else 512
    for index in range(entries):
        pte = dram.read_u64(table + 8 * index)
        if pte & PTE_V and not pte_is_leaf(pte):
            yield pte_target(pte)
            yield from _reference_tables(scheme, dram, pte_target(pte), depth + 1)


#: Leaf permissions: a non-empty R/W/X set plus any of U/G/A/D.
leaf_flags = st.builds(
    lambda rwx, extra: rwx | extra,
    st.sampled_from([PTE_R, PTE_R | PTE_W, PTE_X, PTE_R | PTE_X,
                     PTE_R | PTE_W | PTE_X, PTE_W]),
    st.sets(st.sampled_from([PTE_U, PTE_G, PTE_A, PTE_D])).map(sum),
)

#: (level, slot, flags): level 0 = 4 KB, 1 = 2 MB, 2 = 1 GB.  Slots are
#: drawn from a small window so leaves of different sizes share tables.
mixed_leaves = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 1023), leaf_flags),
    min_size=1, max_size=24,
)


def _mixed_table(scheme, leaves, high):
    """Map ``mixed_leaves`` into a fresh table; returns ``(dram, root)``."""
    dram, acc, root, alloc = _env(scheme)
    # Half the examples also use the top of the address space (for
    # Sv39x4, root slots only its 2048-entry root has).
    base_va = (1 << (scheme.va_bits - 1)) if high else 0
    for i, (level, slot, flags) in enumerate(leaves):
        span = PAGE_SIZE << (9 * level)
        # Cluster 4 KB and 2 MB leaves inside the first few gigapages.
        va = base_va + (slot % (4 << (9 * (2 - level)))) * span
        pa = (i + 1) * span
        try:
            scheme.map(acc, root, va, pa, flags, alloc, level=level)
        except MemoryError_:
            pass  # overlaps an earlier leaf or table: keep the first
    return dram, root


@settings(max_examples=40, deadline=None)
@given(scheme=st.sampled_from([Sv39x4(), Sv39()]), leaves=mixed_leaves,
       high=st.booleans())
def test_scans_match_reference_over_mixed_leaf_sizes(scheme, leaves, high):
    """4 KB, 2 MB and 1 GB leaves with varied flags: ``iter_leaves``
    yields the reference sequence (order included) and ``iter_tables``
    the reference set."""
    dram, root = _mixed_table(scheme, leaves, high)
    assert list(scheme.iter_leaves(dram, root)) == list(
        _reference_leaves(scheme, dram, root)
    )
    tables = list(scheme.iter_tables(dram, root))
    assert len(tables) == len(set(tables))
    assert set(tables) == set(_reference_tables(scheme, dram, root))


GIB = 1 << 30


@settings(max_examples=80, deadline=None)
@given(scheme=st.sampled_from([Sv39x4(), Sv39()]), leaves=mixed_leaves,
       high=st.booleans(), lo=st.integers(-GIB, 6 * GIB),
       size=st.integers(0, 4 * GIB), unbounded=st.booleans(), data=st.data())
def test_bounded_scans_are_the_full_scan_filtered(scheme, leaves, high, lo, size,
                                                  unbounded, data):
    """``iter_leaves(lo, hi)`` is the full scan filtered to the root slots
    overlapping ``[lo, hi)``; ``leaves_overlapping`` further keeps exactly
    the leaves whose whole span overlaps a region."""
    dram, root = _mixed_table(scheme, leaves, high)
    if high:
        lo += 1 << (scheme.va_bits - 1)
    hi = None if unbounded else lo + size
    end = 1 << scheme.va_bits if hi is None else hi
    full = list(scheme.iter_leaves(dram, root))
    expected = [
        leaf for leaf in full
        if lo < end and leaf[0] // GIB * GIB < end and lo < (leaf[0] // GIB + 1) * GIB
    ]
    assert list(scheme.iter_leaves(dram, root, lo, hi)) == expected

    def region_near(leaf):
        """A page-granular region from a span before the leaf to a span
        after it, so it may miss, clip either end of, or cover the leaf."""
        pages = scheme.level_span(leaf[3]) // PAGE_SIZE
        return st.tuples(st.integers(-pages, pages), st.integers(1, pages)).map(
            lambda r: (max(leaf[1] + r[0] * PAGE_SIZE, 0), r[1] * PAGE_SIZE)
        )

    regions = data.draw(st.lists(st.sampled_from(full).flatmap(region_near), max_size=3))
    assert scheme.leaves_overlapping(dram, root, regions, lo, hi) == [
        (va, pa, flags, level) for va, pa, flags, level in expected
        if any(pa < base + size and base < pa + scheme.level_span(level)
               for base, size in regions)
    ]


# -- the overlap scan's screen against raw leaf words --------------------------

_PPN_ALL = (1 << 44) - 1

#: Page offsets from a region's edges: a PPN just inside, on, or just
#: outside either end of the region or of the span before it.
_EDGE_PAGES = st.integers(-2, 2)


@st.composite
def _raw_words(draw, span, regions):
    """One raw PTE word for a slot whose leaves cover ``span`` bytes.

    Its PPN sits near an edge of one of ``regions`` (including a span
    below the base, where superpages start that reach into the region),
    inside one, or anywhere.  V may be clear, and bits 54-63 may be set
    (``iter_leaves`` ignores them; they reorder words against PAs).
    """
    base, size = draw(st.sampled_from(regions))
    anchor = draw(st.sampled_from([
        base - span, base, base + size - PAGE_SIZE, base + size,
        base // span * span,
    ]))
    pa = draw(st.one_of(
        _EDGE_PAGES.map(lambda pages: anchor // PAGE_SIZE * PAGE_SIZE + pages * PAGE_SIZE),
        st.integers(base, base + size - 1),
        st.integers(0, (1 << 56) - 1),
    ))
    flags = draw(st.one_of(leaf_flags.map(lambda flags: flags | PTE_V),
                           st.integers(0, 0x3FF)))
    high = draw(st.sampled_from([0, 0, 0, 1, 1 << 9, 0x3FF]))
    return high << 54 | (max(pa, 0) >> 12 & _PPN_ALL) << 10 | flags


#: Regions of at most a few superpages; bases range from below one 4 KB
#: span up the PA space, and sizes need not be page multiples.
_regions = st.lists(
    st.tuples(
        st.one_of(st.integers(0, PAGE_SIZE), st.integers(0, 4 * GIB),
                  st.integers(0, _PPN_ALL).map(lambda pages: pages * PAGE_SIZE)),
        st.one_of(st.integers(1, 3 * PAGE_SIZE), st.integers(1, 5 << 20)),
    ),
    min_size=1, max_size=3,
)


@settings(deadline=None)
@given(scheme=st.sampled_from([Sv39x4(), Sv39()]), regions=_regions, data=st.data())
def test_overlap_scan_matches_reference_over_raw_leaf_words(scheme, regions, data):
    """Hypervisor-written tables hold any word.  ``leaves_overlapping`` on
    raw leaf words at every level (4 KB, 2 MB and 1 GB spans) is the
    ``iter_leaves`` scan filtered by span overlap, whether or not a word's
    high bits defeat the sorted-word screen."""
    dram, acc, root, alloc = _env(scheme)
    # One pointer chain down to a last-level table; every other slot on
    # the chain's three tables is a raw word.
    scheme.map(acc, root, 0, BASE, PTE_R, alloc)
    tables = [root]
    for _depth in range(scheme.levels - 1):
        tables.append(pte_target(dram.read_u64(tables[-1])))
    for depth, table in enumerate(tables):
        span = scheme.level_span(scheme.levels - 1 - depth)
        entries = scheme.root_entries if depth == 0 else 512
        placed = data.draw(st.dictionaries(
            st.integers(1, entries - 1), _raw_words(span, regions), max_size=8,
        ))
        for slot, word in placed.items():
            if depth < scheme.levels - 1 and word & PTE_V and not pte_is_leaf(word):
                word |= PTE_R  # keep to leaves: a raw pointer leads anywhere
            dram.write_u64(table + 8 * slot, word)
    assert scheme.leaves_overlapping(dram, root, regions) == [
        (va, pa, flags, level) for va, pa, flags, level in scheme.iter_leaves(dram, root)
        if any(pa < base + size and base < pa + scheme.level_span(level)
               for base, size in regions)
    ]


@settings(deadline=None)
@given(after=st.integers(-3 * PAGE_SIZE, 1 << 40), width=st.integers(0, 6 * PAGE_SIZE),
       data=st.data())
def test_the_screen_is_exact_for_words_below_bit_54(after, width, data):
    """``_reaches`` says a word's PA lies in ``(after, end)`` exactly when
    one does: too narrow a window would drop a leaf, too wide one would
    run the comprehension it exists to skip."""
    end = after + width
    near = st.integers(after // PAGE_SIZE - 2, -(-end // PAGE_SIZE) + 2)
    pages = data.draw(st.lists(st.one_of(near, st.integers(0, _PPN_ALL)), max_size=8))
    words = [max(page, 0) << 10 | data.draw(st.integers(0, 0x3FF)) for page in pages]
    assert _reaches(sorted(words), after, end) == any(
        after < word >> 10 << 12 < end for word in words
    )
