"""The hart (hardware thread) model.

A hart bundles the per-thread architectural state: current privilege mode,
GPR file, CSR file, and the PMP unit.  Each hart also carries the machine's
cycle ledger reference so that components charging cycles do so against the
hart that performs the action.
"""

from __future__ import annotations

from repro.cycles import Category, CycleLedger
from repro.isa.csr import CsrFile
from repro.isa.pmp import PmpUnit
from repro.isa.privilege import PrivilegeMode
from repro.isa.traps import ExceptionCause, InterruptCause

#: ABI names of the 31 writable general-purpose registers.
GPR_NAMES = (
    "ra sp gp tp t0 t1 t2 s0 s1 "
    "a0 a1 a2 a3 a4 a5 a6 a7 "
    "s2 s3 s4 s5 s6 s7 s8 s9 s10 s11 "
    "t3 t4 t5 t6"
).split()

_MASK64 = (1 << 64) - 1


#: Memoized set-views of delegation CSR values.  Trap dispatch reads the
#: medeleg/hedeleg views on every guest fault, and the CSRs only ever
#: hold a handful of distinct values (the delegation profiles), so the
#: frozensets are built once per (enum, value) pair and shared -- they
#: are immutable, which makes the cache safe.
_BITS_CACHE: dict = {}


def _bits_to_set(value: int, enum_cls):
    key = (enum_cls, value)
    members = _BITS_CACHE.get(key)
    if members is None:
        members = frozenset(
            member for member in enum_cls if value >> member.value & 1
        )
        _BITS_CACHE[key] = members
    return members


#: Memoized bitmasks of delegation cause-sets (the setter direction of
#: the same round trip; keyed by the frozenset itself).
_MASK_CACHE: dict = {}


def _set_to_bits(members) -> int:
    if isinstance(members, frozenset):
        value = _MASK_CACHE.get(members)
        if value is None:
            value = 0
            for member in members:
                value |= 1 << member.value
            _MASK_CACHE[members] = value
        return value
    value = 0
    for member in members:
        value |= 1 << member.value
    return value


class Hart:
    """One hardware thread of the simulated machine."""

    def __init__(self, hart_id: int, ledger: CycleLedger | None = None):
        self.hart_id = hart_id
        self.mode = PrivilegeMode.M  # harts reset into M mode
        self.csrs = CsrFile(hart_id)
        self.pmp = PmpUnit()
        self.ledger = ledger if ledger is not None else CycleLedger()
        self.gprs = {name: 0 for name in GPR_NAMES}
        #: Interrupts currently pending at machine level.
        self.pending_interrupts: set[InterruptCause] = set()

    # -- GPR access ---------------------------------------------------------

    def read_gpr(self, name: str) -> int:
        """Read a GPR by ABI name (x0/zero reads as 0)."""
        if name == "zero" or name == "x0":
            return 0
        return self.gprs[name]

    def write_gpr(self, name: str, value: int) -> None:
        """Write a GPR by ABI name (writes to x0/zero are ignored)."""
        if name == "zero" or name == "x0":
            return
        if name not in self.gprs:
            raise KeyError(f"unknown GPR {name!r}")
        self.gprs[name] = value & _MASK64

    def gpr_snapshot(self) -> dict:
        """A copy of the full GPR file (vCPU state save)."""
        return dict(self.gprs)

    # -- delegation views -----------------------------------------------------

    @property
    def medeleg(self) -> frozenset:
        return _bits_to_set(self.csrs.read_raw("medeleg"), ExceptionCause)

    @medeleg.setter
    def medeleg(self, causes) -> None:
        self.csrs.write_raw("medeleg", _set_to_bits(causes))

    @property
    def mideleg(self) -> frozenset:
        return _bits_to_set(self.csrs.read_raw("mideleg"), InterruptCause)

    @mideleg.setter
    def mideleg(self, causes) -> None:
        self.csrs.write_raw("mideleg", _set_to_bits(causes))

    @property
    def hedeleg(self) -> frozenset:
        return _bits_to_set(self.csrs.read_raw("hedeleg"), ExceptionCause)

    @hedeleg.setter
    def hedeleg(self, causes) -> None:
        self.csrs.write_raw("hedeleg", _set_to_bits(causes))

    @property
    def hideleg(self) -> frozenset:
        return _bits_to_set(self.csrs.read_raw("hideleg"), InterruptCause)

    @hideleg.setter
    def hideleg(self, causes) -> None:
        self.csrs.write_raw("hideleg", _set_to_bits(causes))

    # -- cycle charging shortcuts ----------------------------------------------

    def charge(self, category: Category, cycles) -> None:
        """Charge cycles to this hart's ledger."""
        self.ledger.charge(category, cycles)

    def __repr__(self):
        return f"<Hart {self.hart_id} mode={self.mode.name}>"
