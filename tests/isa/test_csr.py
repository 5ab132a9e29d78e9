"""CSR file: privileged access control and register aliasing."""

import pytest

from repro.errors import TrapRaised
from repro.isa.csr import CsrFile
from repro.isa.privilege import PrivilegeMode
from repro.isa.traps import ExceptionCause


@pytest.fixture
def csrs():
    return CsrFile(hart_id=2)


def test_mhartid_preset(csrs):
    assert csrs.read_raw("mhartid") == 2


def test_raw_roundtrip(csrs):
    csrs.write_raw("mepc", 0x8000_1234)
    assert csrs.read_raw("mepc") == 0x8000_1234


def test_raw_write_masks_to_64_bits(csrs):
    csrs.write_raw("mepc", 1 << 70 | 0x42)
    assert csrs.read_raw("mepc") == 0x42


def test_unknown_csr_rejected(csrs):
    with pytest.raises(KeyError):
        csrs.read_raw("bogus")
    with pytest.raises(KeyError):
        csrs.write_raw("bogus", 1)


def test_m_mode_reads_anything(csrs):
    for name in ("mstatus", "hgatp", "sepc", "vsatp"):
        csrs.read(name, PrivilegeMode.M)


def test_hs_cannot_touch_m_csrs(csrs):
    with pytest.raises(TrapRaised) as excinfo:
        csrs.read("medeleg", PrivilegeMode.HS)
    assert excinfo.value.cause == ExceptionCause.ILLEGAL_INSTRUCTION


def test_hs_can_access_hypervisor_csrs(csrs):
    csrs.write("hgatp", 0x1234000, PrivilegeMode.HS)
    assert csrs.read("hgatp", PrivilegeMode.HS) == 0x1234000


def test_vs_access_to_hs_csr_raises_virtual_instruction(csrs):
    with pytest.raises(TrapRaised) as excinfo:
        csrs.read("hgatp", PrivilegeMode.VS)
    assert excinfo.value.cause == ExceptionCause.VIRTUAL_INSTRUCTION


def test_vs_access_to_m_csr_raises_illegal(csrs):
    with pytest.raises(TrapRaised) as excinfo:
        csrs.write("mstatus", 1, PrivilegeMode.VS)
    assert excinfo.value.cause == ExceptionCause.ILLEGAL_INSTRUCTION


def test_vs_s_csr_access_aliases_to_vs_bank(csrs):
    """In VS mode, sepc reads/writes transparently hit vsepc (spec 8.2.2)."""
    csrs.write("sepc", 0xAAAA, PrivilegeMode.VS)
    assert csrs.read_raw("vsepc") == 0xAAAA
    assert csrs.read_raw("sepc") == 0
    assert csrs.read("sepc", PrivilegeMode.VS) == 0xAAAA


def test_hs_s_csr_access_hits_real_bank(csrs):
    csrs.write("sepc", 0xBBBB, PrivilegeMode.HS)
    assert csrs.read_raw("sepc") == 0xBBBB
    assert csrs.read_raw("vsepc") == 0


def test_u_mode_cannot_access_supervisor_csrs(csrs):
    with pytest.raises(TrapRaised):
        csrs.read("sepc", PrivilegeMode.U)


def test_vu_mode_cannot_access_supervisor_csrs(csrs):
    with pytest.raises(TrapRaised):
        csrs.read("sepc", PrivilegeMode.VU)


def test_snapshot_and_restore(csrs):
    csrs.write_raw("vsepc", 10)
    csrs.write_raw("vscause", 20)
    snap = csrs.snapshot(["vsepc", "vscause"])
    csrs.write_raw("vsepc", 0)
    csrs.install(snap)
    assert csrs.read_raw("vsepc") == 10
    assert csrs.read_raw("vscause") == 20


def test_snapshot_of_an_unknown_csr_raises_key_error(csrs):
    with pytest.raises(KeyError, match="nosuch"):
        csrs.snapshot(["vsepc", "nosuch"])
