"""PMP matching, permission, and priority semantics."""

import dataclasses

import pytest

from repro.isa.pmp import PmpAddressMode, PmpEntry, PmpUnit
from repro.isa.privilege import PrivilegeMode
from repro.isa.traps import AccessType

M = PrivilegeMode.M
HS = PrivilegeMode.HS
VS = PrivilegeMode.VS
LOAD = AccessType.LOAD
STORE = AccessType.STORE
FETCH = AccessType.FETCH


def tor(base, size, r=False, w=False, x=False, locked=False):
    return PmpEntry(
        mode=PmpAddressMode.TOR, base=base, size=size,
        readable=r, writable=w, executable=x, locked=locked,
    )


class TestEntryValidation:
    def test_na4_must_cover_4_bytes(self):
        with pytest.raises(ValueError):
            PmpEntry(mode=PmpAddressMode.NA4, base=0x1000, size=8)

    def test_napot_requires_power_of_two(self):
        with pytest.raises(ValueError):
            PmpEntry(mode=PmpAddressMode.NAPOT, base=0x1000, size=0x3000)

    def test_napot_requires_natural_alignment(self):
        with pytest.raises(ValueError):
            PmpEntry(mode=PmpAddressMode.NAPOT, base=0x1000, size=0x2000)

    def test_valid_napot(self):
        entry = PmpEntry(mode=PmpAddressMode.NAPOT, base=0x10000, size=0x10000, readable=True)
        assert entry.matches(0x10000, 8) == "full"


class TestMatching:
    def test_full_match(self):
        entry = tor(0x8000_0000, 0x1000)
        assert entry.matches(0x8000_0100, 8) == "full"

    def test_no_match_below_and_above(self):
        entry = tor(0x8000_0000, 0x1000)
        assert entry.matches(0x7FFF_FFF8, 8) == "none"
        assert entry.matches(0x8000_1000, 8) == "none"

    def test_partial_match_straddling_start(self):
        entry = tor(0x8000_0000, 0x1000)
        assert entry.matches(0x7FFF_FFFC, 8) == "partial"

    def test_partial_match_straddling_end(self):
        entry = tor(0x8000_0000, 0x1000)
        assert entry.matches(0x8000_0FFC, 8) == "partial"

    def test_off_entry_never_matches(self):
        assert PmpEntry().matches(0, 8) == "none"


class TestChecking:
    def test_no_entries_m_mode_allowed(self):
        unit = PmpUnit()
        assert unit.check(0x8000_0000, 8, LOAD, M)

    def test_no_entries_lower_mode_allowed(self):
        """With zero implemented entries, S/U accesses succeed (spec)."""
        unit = PmpUnit()
        assert unit.check(0x8000_0000, 8, LOAD, HS)

    def test_any_entry_implemented_denies_unmatched_lower_access(self):
        unit = PmpUnit()
        unit.set_entry(0, tor(0x1000, 0x1000, r=True))
        assert not unit.check(0x8000_0000, 8, LOAD, HS)
        assert unit.check(0x8000_0000, 8, LOAD, M)

    def test_permissions_enforced_per_access_type(self):
        unit = PmpUnit()
        unit.set_entry(0, tor(0x8000_0000, 0x1000, r=True))
        assert unit.check(0x8000_0000, 8, LOAD, HS)
        assert not unit.check(0x8000_0000, 8, STORE, HS)
        assert not unit.check(0x8000_0000, 4, FETCH, HS)

    def test_priority_lowest_index_wins(self):
        unit = PmpUnit()
        unit.set_entry(0, tor(0x8000_0000, 0x1000))  # deny
        unit.set_entry(1, tor(0x8000_0000, 0x10000, r=True, w=True))
        assert not unit.check(0x8000_0000, 8, LOAD, HS)
        # Outside entry 0, entry 1 applies.
        assert unit.check(0x8000_2000, 8, LOAD, HS)

    def test_partial_match_fails_even_in_m_mode(self):
        unit = PmpUnit()
        unit.set_entry(0, tor(0x8000_0000, 0x1000, r=True, locked=True))
        assert not unit.check(0x8000_0FFC, 8, LOAD, M)

    def test_m_mode_bypasses_unlocked_entries(self):
        unit = PmpUnit()
        unit.set_entry(0, tor(0x8000_0000, 0x1000))  # no perms
        assert unit.check(0x8000_0000, 8, STORE, M)

    def test_m_mode_bound_by_locked_entries(self):
        unit = PmpUnit()
        unit.set_entry(0, tor(0x8000_0000, 0x1000, locked=True))
        assert not unit.check(0x8000_0000, 8, STORE, M)

    def test_virtual_modes_subject_to_pmp(self):
        unit = PmpUnit()
        unit.set_entry(0, tor(0x8000_0000, 0x1000, r=True))
        assert unit.check(0x8000_0000, 8, LOAD, VS)
        assert not unit.check(0x8000_0000, 8, STORE, VS)

    def test_locked_entry_refuses_reprogramming(self):
        unit = PmpUnit()
        unit.set_entry(0, tor(0x8000_0000, 0x1000, locked=True))
        with pytest.raises(PermissionError):
            unit.set_entry(0, tor(0x8000_0000, 0x1000, r=True))

    def test_set_entries_programs_every_pair(self):
        unit = PmpUnit()
        unit.set_entries([(1, tor(0x8000_0000, 0x1000, r=True)),
                          (2, tor(0x9000_0000, 0x1000, w=True))])
        assert unit.check(0x8000_0000, 8, LOAD, VS)
        assert unit.check(0x9000_0000, 8, STORE, VS)

    def test_set_entries_checks_every_lock_before_writing(self):
        unit = PmpUnit()
        unit.set_entry(2, tor(0x9000_0000, 0x1000, locked=True))
        with pytest.raises(PermissionError):
            unit.set_entries([(1, tor(0x8000_0000, 0x1000, r=True)),
                              (2, tor(0x9000_0000, 0x1000, r=True))])
        assert unit[1] == PmpEntry()
        assert not unit.check(0x8000_0000, 8, LOAD, VS)

    def test_entry_count(self):
        assert len(PmpUnit().entries()) == 16

    def test_entry_match_tuple_is_built_at_construction(self):
        entry = tor(0x8000_0000, 0x1000, r=True, locked=True)
        assert entry.match == (0x8000_0000, 0x8000_1000, True, True, False, False)
        assert PmpEntry().match is None
        assert PmpEntry(mode=PmpAddressMode.TOR, base=0x1000, size=0).match is None
        # Not part of equality: two equal entries compare equal either way.
        assert dataclasses.replace(entry) == entry

    def test_unit_scans_exactly_the_matchable_entries_in_priority_order(self):
        unit = PmpUnit()
        first = tor(0x9000_0000, 0x1000, w=True)
        second = tor(0x8000_0000, 0x1000, r=True)
        unit.set_entries([(3, first), (1, second),
                          (2, PmpEntry(mode=PmpAddressMode.TOR, base=0x1000, size=0))])
        assert unit._active == [second.match, first.match]
        assert unit.any_implemented()
