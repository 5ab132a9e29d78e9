"""Hart model: GPRs, delegation views, cycle charging."""

import pytest

from repro.cycles import Category
from repro.isa.hart import GPR_NAMES, Hart
from repro.isa.privilege import PrivilegeMode
from repro.isa.traps import ExceptionCause, InterruptCause


@pytest.fixture
def hart():
    return Hart(0)


def test_resets_into_m_mode(hart):
    assert hart.mode is PrivilegeMode.M


def test_gpr_count():
    assert len(GPR_NAMES) == 31


def test_x0_reads_zero_and_ignores_writes(hart):
    hart.write_gpr("zero", 0xFF)
    assert hart.read_gpr("zero") == 0
    hart.write_gpr("x0", 0xFF)
    assert hart.read_gpr("x0") == 0


def test_gpr_roundtrip_and_mask(hart):
    hart.write_gpr("a0", (1 << 64) + 5)
    assert hart.read_gpr("a0") == 5


def test_unknown_gpr_rejected(hart):
    with pytest.raises(KeyError):
        hart.write_gpr("a99", 1)


def test_gpr_snapshot_is_a_copy(hart):
    hart.write_gpr("s0", 42)
    snap = hart.gpr_snapshot()
    hart.write_gpr("s0", 0)
    assert snap["s0"] == 42
    hart.gprs.update(snap)
    assert hart.read_gpr("s0") == 42


def test_medeleg_roundtrip_through_csr_bits(hart):
    causes = frozenset({ExceptionCause.ECALL_FROM_U, ExceptionCause.LOAD_PAGE_FAULT})
    hart.medeleg = causes
    assert hart.medeleg == causes
    raw = hart.csrs.read_raw("medeleg")
    assert raw == (1 << 8) | (1 << 13)


def test_mideleg_roundtrip(hart):
    causes = frozenset({InterruptCause.VIRTUAL_SUPERVISOR_TIMER})
    hart.mideleg = causes
    assert hart.mideleg == causes
    assert hart.csrs.read_raw("mideleg") == 1 << 6


def test_hedeleg_hideleg_roundtrip(hart):
    hart.hedeleg = frozenset({ExceptionCause.BREAKPOINT})
    hart.hideleg = frozenset({InterruptCause.VIRTUAL_SUPERVISOR_EXTERNAL})
    assert ExceptionCause.BREAKPOINT in hart.hedeleg
    assert InterruptCause.VIRTUAL_SUPERVISOR_EXTERNAL in hart.hideleg


def test_charge_goes_to_ledger(hart):
    hart.charge(Category.COMPUTE, 100)
    assert hart.ledger.total == 100
    assert hart.ledger.by_category()[Category.COMPUTE] == 100
