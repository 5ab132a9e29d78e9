"""SWIOTLB bounce-buffer allocator."""

import random

import pytest

from repro.cycles import Category, CycleLedger, DEFAULT_COSTS
from repro.errors import MemoryError_
from repro.guest.swiotlb import MAX_MAPPING, Swiotlb

BASE = 1 << 38


@pytest.fixture
def ledger():
    return CycleLedger()


@pytest.fixture
def swiotlb(ledger):
    return Swiotlb(BASE, 64 * 1024, ledger, DEFAULT_COSTS)  # 32 slots


def test_map_returns_in_window(swiotlb):
    gpa = swiotlb.map_single(4096)
    assert BASE <= gpa < BASE + 64 * 1024


def test_slots_accounting(swiotlb):
    assert swiotlb.free_slots == 32
    swiotlb.map_single(4096)  # 2 slots
    assert swiotlb.free_slots == 30


def test_unmap_returns_slots(swiotlb):
    gpa = swiotlb.map_single(6000)
    swiotlb.unmap_single(gpa)
    assert swiotlb.free_slots == 32


def test_mappings_do_not_overlap(swiotlb):
    a = swiotlb.map_single(4096)
    b = swiotlb.map_single(4096)
    assert abs(a - b) >= 4096


def test_mapping_is_contiguous_slots(swiotlb):
    """A 3-slot mapping occupies a contiguous GPA run."""
    gpa = swiotlb.map_single(3 * 2048)
    # Overlapping single-slot mappings must avoid the whole run.
    others = [swiotlb.map_single(2048) for _ in range(29)]
    for other in others:
        assert not gpa <= other < gpa + 3 * 2048


def test_exhaustion(swiotlb):
    for _ in range(32):
        swiotlb.map_single(2048)
    with pytest.raises(MemoryError_):
        swiotlb.map_single(2048)


def test_max_mapping_enforced(swiotlb):
    with pytest.raises(MemoryError_):
        swiotlb.map_single(MAX_MAPPING + 1)


@pytest.mark.parametrize("length", [0, -1, -5000])
def test_empty_or_negative_mapping_refused(swiotlb, length):
    """An empty mapping takes no slots (it used to take the whole pool)."""
    with pytest.raises(MemoryError_):
        swiotlb.map_single(length)
    assert swiotlb.free_slots == 32
    assert swiotlb.map_many([2048] * 32)  # every slot still mappable


def test_unmap_unmapped_rejected(swiotlb):
    with pytest.raises(MemoryError_):
        swiotlb.unmap_single(BASE)


def test_reuse_after_unmap(swiotlb):
    first = [swiotlb.map_single(2048) for _ in range(32)]
    for gpa in first:
        swiotlb.unmap_single(gpa)
    again = swiotlb.map_single(16 * 1024)
    assert BASE <= again < BASE + 64 * 1024


def test_bounce_charges_copy(swiotlb, ledger):
    swiotlb.bounce(10_000)
    assert ledger.by_category()[Category.COPY] == DEFAULT_COSTS.copy_bytes(10_000)


class TestBatchedMappings:
    def test_map_many_allocates_all(self, swiotlb):
        gpas = swiotlb.map_many([4096, 2048, 6000])
        assert len(gpas) == len(set(gpas)) == 3
        assert swiotlb.free_slots == 32 - (2 + 1 + 3)
        swiotlb.unmap_many(gpas)
        assert swiotlb.free_slots == 32

    def test_map_many_rolls_back_on_exhaustion(self, swiotlb):
        # 3 x 20KB = 30 slots fit; the 4th mapping cannot.
        with pytest.raises(MemoryError_):
            swiotlb.map_many([20 * 1024] * 4)
        # All-or-nothing: the three successful mappings were released.
        assert swiotlb.free_slots == 32
        assert swiotlb.map_many([20 * 1024] * 3)  # pool still healthy

    def test_map_many_rolls_back_on_oversized_member(self, swiotlb):
        with pytest.raises(MemoryError_):
            swiotlb.map_many([4096, MAX_MAPPING + 1])
        assert swiotlb.free_slots == 32

    def test_map_many_rolls_back_on_empty_member(self, swiotlb):
        with pytest.raises(MemoryError_):
            swiotlb.map_many([64, 0])
        assert swiotlb.free_slots == 32

    def test_bounce_many_charges_sum_of_singles(self, ledger, swiotlb):
        lengths = [4096, 2048, 100]
        swiotlb.bounce_many(lengths)
        batched = ledger.by_category()[Category.COPY]
        reference = CycleLedger()
        single = Swiotlb(BASE, 64 * 1024, reference, DEFAULT_COSTS)
        for length in lengths:
            single.bounce(length)
        assert batched == reference.by_category()[Category.COPY]


class _ReferenceSwiotlb(Swiotlb):
    """The earlier ``map_single``: every taken slot removed by value."""

    def map_single(self, length: int) -> int:
        if length > MAX_MAPPING:
            raise MemoryError_(
                f"SWIOTLB mapping of {length} exceeds the {MAX_MAPPING} limit"
            )
        needed = -(-length // self.slot_size)
        if needed > len(self._free):
            raise MemoryError_("SWIOTLB exhausted")
        taken = sorted(self._free[-needed:])
        run_ok = all(b - a == 1 for a, b in zip(taken, taken[1:]))
        if not run_ok:
            taken = self._find_run(needed)
        for slot in taken:
            self._free.remove(slot)
        gpa = self.base_gpa + taken[0] * self.slot_size
        self._allocated[gpa] = needed
        return gpa


def _counting_find_run(pool):
    """Count ``pool``'s fallbacks to the linear run scan."""
    calls = []
    find_run = pool._find_run

    def counted(needed):
        calls.append(needed)
        return find_run(needed)

    pool._find_run = counted
    return calls


def _replay(pool, script):
    """Run a map/unmap script; returns every outcome and the free stack."""
    outcomes = []
    live = []
    for action, arg in script:
        if action == "unmap":
            if live:
                gpa = live.pop(arg % len(live))
                pool.unmap_single(gpa)
                outcomes.append(("unmap", gpa))
            continue
        try:
            gpa = pool.map_single(arg)
        except MemoryError_ as error:
            outcomes.append(("refused", str(error)))
        else:
            live.append(gpa)
            outcomes.append(("map", gpa))
    return outcomes, list(pool._free)


class TestMapSingleMatchesReference:
    """``map_single`` pops a contiguous tail run in place; the GPAs it
    hands out must be exactly those of the slot-by-slot algorithm."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("pool_size", [64 * 1024, 2 << 20])
    def test_seeded_mixed_lengths_and_out_of_order_unmaps(self, seed, pool_size):
        rng = random.Random(seed)
        lengths = [1, 2048, 2049, 4096, 6000, 10_000, 32 * 1024, 100_000]
        script = [
            ("unmap", rng.randrange(1 << 16)) if rng.random() < 0.45
            else ("map", rng.choice(lengths))
            for _ in range(600)
        ]
        fast = Swiotlb(BASE, pool_size, CycleLedger(), DEFAULT_COSTS)
        fallbacks = _counting_find_run(fast)
        reference = _ReferenceSwiotlb(BASE, pool_size, CycleLedger(), DEFAULT_COSTS)
        assert _replay(fast, script) == _replay(reference, script)
        assert fallbacks, "the script never reached the run-scan fallback"

    def test_fragmenting_pattern_reaches_find_run(self):
        # 32 one-slot mappings, every other one released: the free stack
        # holds 16 isolated slots, so a two-slot mapping must scan.
        script = [("map", 2048)] * 32
        script += [("unmap", i) for i in range(16)]
        script += [("map", 4096), ("map", 2048), ("unmap", 3), ("map", 6000)]
        fast = Swiotlb(BASE, 64 * 1024, CycleLedger(), DEFAULT_COSTS)
        fallbacks = _counting_find_run(fast)
        reference = _ReferenceSwiotlb(BASE, 64 * 1024, CycleLedger(), DEFAULT_COSTS)
        outcomes, free = _replay(fast, script)
        assert (outcomes, free) == _replay(reference, script)
        assert fallbacks
        assert ("refused", "SWIOTLB fragmented: no contiguous run") in outcomes
