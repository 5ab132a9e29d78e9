"""Control and status register file.

Models the CSRs the ZION stack reads and writes, with per-mode access
control (a CSR whose required privilege exceeds the hart's current mode
raises an illegal-instruction trap, as hardware would).  Values are plain
64-bit integers; named accessors exist for the registers with structured
meaning to the rest of the stack.
"""

from __future__ import annotations

from repro.errors import TrapRaised
from repro.isa.privilege import PrivilegeMode
from repro.isa.traps import ExceptionCause

#: CSR name -> minimum privilege level required to access it.
#: (Simplified: we key on level, and virtual modes accessing HS-level CSRs
#: raise virtual-instruction exceptions per the hypervisor spec.)
CSR_PRIVILEGE = {
    # Machine level
    "mstatus": 3,
    "mepc": 3,
    "mcause": 3,
    "mtval": 3,
    "mtval2": 3,
    "mtinst": 3,
    "medeleg": 3,
    "mideleg": 3,
    "mie": 3,
    "mip": 3,
    "mtvec": 3,
    "mscratch": 3,
    "mhartid": 3,
    "mcycle": 3,
    # Hypervisor / HS level
    "hstatus": 1,
    "hedeleg": 1,
    "hideleg": 1,
    "hgatp": 1,
    "htval": 1,
    "htinst": 1,
    "hvip": 1,
    "hie": 1,
    "hip": 1,
    "hcounteren": 1,
    # Supervisor level (backed by vs* when V=1; we keep both banks)
    "sstatus": 1,
    "sepc": 1,
    "scause": 1,
    "stval": 1,
    "stvec": 1,
    "sscratch": 1,
    "satp": 1,
    "sie": 1,
    "sip": 1,
    # Virtual-supervisor bank (accessible from HS/M for guest management)
    "vsstatus": 1,
    "vsepc": 1,
    "vscause": 1,
    "vstval": 1,
    "vstvec": 1,
    "vsscratch": 1,
    "vsatp": 1,
    "vsie": 1,
    "vsip": 1,
}

#: CSRs that only exist at HS level or above; access from a virtual mode
#: raises a virtual-instruction exception rather than illegal-instruction.
_HS_ONLY = frozenset(
    {
        "hstatus",
        "hedeleg",
        "hideleg",
        "hgatp",
        "htval",
        "htinst",
        "hvip",
        "hie",
        "hip",
        "hcounteren",
        "vsstatus",
        "vsepc",
        "vscause",
        "vstval",
        "vstvec",
        "vsscratch",
        "vsatp",
        "vsie",
        "vsip",
    }
)

#: CSRs that, when accessed from VS mode under the name ``s*``, transparently
#: redirect to the ``vs*`` bank (hypervisor-extension register aliasing).
_S_TO_VS_ALIAS = {
    "sstatus": "vsstatus",
    "sepc": "vsepc",
    "scause": "vscause",
    "stval": "vstval",
    "stvec": "vstvec",
    "sscratch": "vsscratch",
    "satp": "vsatp",
    "sie": "vsie",
    "sip": "vsip",
}

_MASK64 = (1 << 64) - 1


class CsrFile:
    """The CSR state of one hart.

    Raw access (:meth:`read`/:meth:`write`) enforces privilege; components
    that model hardware behaviour (the trap unit) use
    :meth:`read_raw`/:meth:`write_raw` which bypass the checks the same way
    hardware-internal updates do.
    """

    def __init__(self, hart_id: int = 0):
        self._values = {name: 0 for name in CSR_PRIVILEGE}
        self._values["mhartid"] = hart_id

    # -- raw (hardware-internal) access ----------------------------------

    def read_raw(self, name: str) -> int:
        """Hardware-internal CSR read (no privilege check)."""
        if name not in self._values:
            raise KeyError(f"unknown CSR {name!r}")
        return self._values[name]

    def write_raw(self, name: str, value: int) -> None:
        """Hardware-internal CSR write (no privilege check), masked to 64 bits."""
        if name not in self._values:
            raise KeyError(f"unknown CSR {name!r}")
        self._values[name] = value & _MASK64

    # -- privileged (software) access -------------------------------------

    def _resolve(self, name: str, mode: PrivilegeMode) -> str:
        if name not in self._values:
            raise KeyError(f"unknown CSR {name!r}")
        if mode.virtualized:
            if name in _HS_ONLY:
                raise TrapRaised(
                    ExceptionCause.VIRTUAL_INSTRUCTION,
                    message=f"{mode.name} accessed HS-level CSR {name}",
                )
            if name.startswith("m"):
                raise TrapRaised(
                    ExceptionCause.ILLEGAL_INSTRUCTION,
                    message=f"{mode.name} accessed M-level CSR {name}",
                )
            if mode is PrivilegeMode.VS and name in _S_TO_VS_ALIAS:
                return _S_TO_VS_ALIAS[name]
        if CSR_PRIVILEGE[name] > mode.level:
            raise TrapRaised(
                ExceptionCause.ILLEGAL_INSTRUCTION,
                message=f"{mode.name} accessed CSR {name}",
            )
        return name

    def read(self, name: str, mode: PrivilegeMode) -> int:
        """Software CSR read from ``mode``; traps on privilege violation."""
        return self._values[self._resolve(name, mode)]

    def write(self, name: str, value: int, mode: PrivilegeMode) -> None:
        """Software CSR write from ``mode``; traps on privilege violation."""
        self._values[self._resolve(name, mode)] = value & _MASK64

    # -- structured views ---------------------------------------------------

    def snapshot(self, names) -> dict:
        """Raw values of the listed CSRs (for vCPU state save)."""
        values = self._values
        try:
            return {name: values[name] for name in names}
        except KeyError as missing:
            raise KeyError(f"unknown CSR {missing.args[0]!r}") from None

    def install(self, values: dict) -> None:
        """Raw-restore CSRs (vCPU state restore, delegation swaps).

        One dict update, with no name check and no mask: ``values`` must
        hold known CSR names and 64-bit words, as a :meth:`snapshot` does.
        """
        self._values.update(values)
