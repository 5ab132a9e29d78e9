"""IOPMP: DMA-side memory protection."""

from repro.isa.iopmp import IopmpEntry, IopmpUnit
from repro.isa.traps import AccessType

LOAD = AccessType.LOAD
STORE = AccessType.STORE


def test_empty_iopmp_allows_all():
    unit = IopmpUnit()
    assert unit.check(0, 0x8000_0000, 64, LOAD)


def test_programmed_iopmp_default_denies():
    unit = IopmpUnit()
    unit.add_entry(IopmpEntry(base=0x1000, size=0x1000, readable=True, writable=True))
    assert not unit.check(0, 0x9000_0000, 8, LOAD)


def test_allow_rule_grants_within_region():
    unit = IopmpUnit()
    unit.add_entry(IopmpEntry(base=0x8000_0000, size=0x1000, readable=True, writable=True))
    assert unit.check(3, 0x8000_0000, 64, LOAD)
    assert unit.check(3, 0x8000_0800, 64, STORE)


def test_deny_rule_blocks_secure_pool():
    unit = IopmpUnit()
    unit.add_entry(IopmpEntry(base=0x9000_0000, size=0x100000))  # deny: no perms
    unit.add_entry(IopmpEntry(base=0x8000_0000, size=0x2000_0000, readable=True, writable=True))
    assert not unit.check(1, 0x9000_0000, 8, LOAD)
    assert not unit.check(1, 0x9000_0000, 8, STORE)
    assert unit.check(1, 0x8000_0000, 8, STORE)


def test_priority_first_match_wins():
    unit = IopmpUnit()
    unit.add_entry(IopmpEntry(base=0x8000_0000, size=0x2000_0000, readable=True, writable=True))
    # A later deny rule is shadowed by the earlier allow.
    unit.add_entry(IopmpEntry(base=0x9000_0000, size=0x1000))
    assert unit.check(0, 0x9000_0000, 8, LOAD)
    # insert_entry at index 0 takes priority.
    unit.insert_entry(0, IopmpEntry(base=0x9000_0000, size=0x1000))
    assert not unit.check(0, 0x9000_0000, 8, LOAD)


def test_source_id_scoping():
    unit = IopmpUnit()
    unit.add_entry(IopmpEntry(base=0x8000_0000, size=0x1000, source_id=7, readable=True))
    assert unit.check(7, 0x8000_0000, 8, LOAD)
    assert not unit.check(8, 0x8000_0000, 8, LOAD)


def test_partial_overlap_denied():
    unit = IopmpUnit()
    unit.add_entry(IopmpEntry(base=0x8000_0000, size=0x1000, readable=True, writable=True))
    assert not unit.check(0, 0x8000_0FF0, 0x20, LOAD)


def test_devices_never_fetch():
    entry = IopmpEntry(base=0, size=0x1000, readable=True, writable=True)
    assert not entry.permits(AccessType.FETCH)


def test_remove_and_clear():
    unit = IopmpUnit()
    unit.add_entry(IopmpEntry(base=0, size=0x1000))
    unit.clear()
    assert not unit.entries()
    assert unit.check(0, 0x5000_0000, 8, LOAD)  # back to empty-allow
