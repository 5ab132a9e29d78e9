"""Cycle ledger semantics."""

import pytest

from repro.cycles import Category, CycleLedger


def test_charges_accumulate():
    ledger = CycleLedger()
    ledger.charge(Category.COMPUTE, 100)
    ledger.charge(Category.TRAP, 50)
    ledger.charge(Category.COMPUTE, 25)
    assert ledger.total == 175
    assert ledger.by_category()[Category.COMPUTE] == 125
    assert ledger.by_category()[Category.TRAP] == 50


def test_float_charges_floored_to_int():
    ledger = CycleLedger()
    ledger.charge(Category.COPY, 10.9)
    assert ledger.total == 10


def test_negative_charge_rejected():
    ledger = CycleLedger()
    with pytest.raises(ValueError):
        ledger.charge(Category.COMPUTE, -1)


def test_zero_charge_allowed():
    ledger = CycleLedger()
    ledger.charge(Category.COMPUTE, 0)
    assert ledger.total == 0


def test_by_category_is_snapshot():
    ledger = CycleLedger()
    ledger.charge(Category.COMPUTE, 1)
    snap = ledger.by_category()
    ledger.charge(Category.COMPUTE, 1)
    assert snap[Category.COMPUTE] == 1


def test_span_measures_window():
    ledger = CycleLedger()
    ledger.charge(Category.COMPUTE, 100)
    with ledger.span() as span:
        ledger.charge(Category.TRAP, 30)
        ledger.charge(Category.COMPUTE, 20)
    assert span.cycles == 50
    assert span.breakdown == {Category.TRAP: 30, Category.COMPUTE: 20}
    # Charges outside the span don't leak in.
    ledger.charge(Category.TRAP, 5)
    assert span.cycles == 50


def test_nested_spans():
    ledger = CycleLedger()
    with ledger.span() as outer:
        ledger.charge(Category.COMPUTE, 10)
        with ledger.span() as inner:
            ledger.charge(Category.TRAP, 5)
        ledger.charge(Category.COMPUTE, 10)
    assert inner.cycles == 5
    assert outer.cycles == 25


def test_nested_span_breakdown_propagates_to_parent():
    """A child span's categories must appear in the enclosing span's
    breakdown even when the parent never charged them directly."""
    ledger = CycleLedger()
    with ledger.span() as outer:
        ledger.charge(Category.COMPUTE, 10)
        with ledger.span() as inner:
            ledger.charge(Category.TRAP, 5)
            ledger.charge(Category.PMP, 3)
    assert inner.breakdown == {Category.TRAP: 5, Category.PMP: 3}
    assert outer.breakdown == {
        Category.COMPUTE: 10,
        Category.TRAP: 5,
        Category.PMP: 3,
    }


def test_adjacent_spans_do_not_leak_categories():
    """Sequential (sibling) spans each see only their own charges."""
    ledger = CycleLedger()
    with ledger.span() as first:
        ledger.charge(Category.TRAP, 7)
    with ledger.span() as second:
        ledger.charge(Category.COPY, 4)
    assert first.breakdown == {Category.TRAP: 7}
    assert second.breakdown == {Category.COPY: 4}
    assert first.cycles == 7
    assert second.cycles == 4


def test_deeply_nested_spans_accumulate_through_every_level():
    ledger = CycleLedger()
    with ledger.span() as a:
        with ledger.span() as b:
            with ledger.span() as c:
                ledger.charge(Category.ALLOC, 2)
            ledger.charge(Category.SM_LOGIC, 1)
    assert c.breakdown == {Category.ALLOC: 2}
    assert b.breakdown == {Category.ALLOC: 2, Category.SM_LOGIC: 1}
    assert a.breakdown == {Category.ALLOC: 2, Category.SM_LOGIC: 1}


def test_zero_charge_inside_span_excluded_from_breakdown():
    """Zero-cycle charges mark the category in by_category() but produce
    no breakdown entry (no cycles were spent in the window)."""
    ledger = CycleLedger()
    with ledger.span() as span:
        ledger.charge(Category.IDLE, 0)
        ledger.charge(Category.COMPUTE, 6)
    assert span.breakdown == {Category.COMPUTE: 6}
    assert Category.IDLE in ledger.by_category()


def test_span_close_is_idempotent():
    ledger = CycleLedger()
    span = ledger.span()
    with span:
        ledger.charge(Category.TRAP, 9)
    span.close()  # second close must not re-pop or change results
    assert span.cycles == 9
    assert span.breakdown == {Category.TRAP: 9}


def test_multi_pair_charger_is_every_pair_charged_in_turn():
    """One fused fire equals the per-pair charges: total, counters, mask."""
    pairs = (Category.TRAP, 7, Category.REG_SAVE, 5.9, Category.TRAP, 3,
             Category.IDLE, 0)
    fused, reference = CycleLedger(), CycleLedger()
    fire = fused.charger(*pairs)
    for _ in range(3):
        fire()
        for category, cycles in zip(pairs[::2], pairs[1::2]):
            reference.charge(category, cycles)
    assert fused.total == reference.total == 3 * (7 + 5 + 3)
    assert fused.by_category() == reference.by_category()
    assert Category.IDLE in fused.by_category()


def test_multi_pair_charger_validates_every_pair_up_front():
    ledger = CycleLedger()
    with pytest.raises(ValueError):
        ledger.charger(Category.TRAP, 1, Category.COPY, -1)
    with pytest.raises(ValueError):
        ledger.charger(Category.TRAP, 1, Category.COPY)
    assert ledger.total == 0
    assert ledger.by_category() == {}
