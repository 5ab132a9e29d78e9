"""Property: ledger spans equal a snapshot diff of the public counters.

Random programs of nested spans and charges (zero and float charges
included) run on a fresh :class:`CycleLedger`.  Each span's ``cycles``
and ``breakdown`` must equal the reference this test computes from
``total`` and ``by_category()`` snapshots taken around it: the non-zero
per-category differences, in category order.  ``by_category()`` must
still list every category ever charged, zero charges included, and
nothing else.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cycles import Category, CycleLedger

AMOUNTS = st.one_of(
    st.just(0),
    st.integers(0, 5_000),
    st.floats(0, 5_000, allow_nan=False, allow_infinity=False),
)

PROGRAM = st.recursive(
    st.tuples(st.just("charge"), st.sampled_from(list(Category)), AMOUNTS),
    lambda inner: st.tuples(st.just("span"), st.lists(inner, max_size=5)),
    max_leaves=40,
).map(lambda op: [op])


def _snapshot(ledger: CycleLedger) -> tuple:
    return ledger.total, ledger.by_category()


def _run(ledger: CycleLedger, program, spans: list, charged: set) -> None:
    for op in program:
        if op[0] == "charge":
            _, category, cycles = op
            ledger.charge(category, cycles)
            charged.add(category)
            continue
        start = _snapshot(ledger)
        with ledger.span() as span:
            _run(ledger, op[1], spans, charged)
        spans.append((span, start, _snapshot(ledger)))


def _reference(start: tuple, end: tuple) -> tuple:
    (start_total, start_counts), (end_total, end_counts) = start, end
    breakdown = {}
    for category in Category:
        moved = end_counts.get(category, 0) - start_counts.get(category, 0)
        if moved:
            breakdown[category] = moved
    return end_total - start_total, breakdown


@settings(deadline=None)
@given(st.lists(PROGRAM, max_size=6).map(lambda parts: sum(parts, [])))
def test_spans_match_a_snapshot_diff(program):
    ledger = CycleLedger()
    spans: list = []
    charged: set = set()
    _run(ledger, program, spans, charged)
    for span, start, end in spans:
        cycles, breakdown = _reference(start, end)
        assert span.cycles == cycles
        assert list(span.breakdown.items()) == list(breakdown.items())
    assert list(ledger.by_category()) == [c for c in Category if c in charged]
    assert ledger.total == sum(ledger.by_category().values())


@settings(deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(Category)), AMOUNTS), max_size=8))
def test_an_open_span_reports_nothing_until_closed(charges):
    ledger = CycleLedger()
    span = ledger.span()
    start = _snapshot(ledger)
    for category, cycles in charges:
        ledger.charge(category, cycles)
    assert span.breakdown == {}
    span.close()
    cycles, breakdown = _reference(start, _snapshot(ledger))
    assert (span.cycles, span.breakdown) == (cycles, breakdown)
    # Charges after the close do not reach the closed span.
    ledger.charge(Category.COMPUTE, 7)
    assert (span.cycles, span.breakdown) == (cycles, breakdown)
