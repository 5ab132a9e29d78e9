"""RISC-V privilege modes, including hypervisor-extension virtual modes."""

from __future__ import annotations

import enum


class PrivilegeMode(enum.Enum):
    """A RISC-V privilege mode.

    With the hypervisor extension, supervisor mode becomes HS
    (hypervisor-extended supervisor) and two virtual modes are added: VS
    (virtual supervisor, the guest kernel) and VU (virtual user, guest
    applications).  ``value`` encodes ``(privilege_level, virtualized)``
    where level follows the spec encoding (U=0, S=1, M=3); each member
    also carries the two halves as the attributes ``level`` and
    ``virtualized`` (``is_guest`` is an alias of the latter).
    """

    U = (0, False)
    HS = (1, False)
    M = (3, False)
    VU = (0, True)
    VS = (1, True)

    def __repr__(self):
        return f"PrivilegeMode.{self.name}"


# Plain attributes rather than properties over ``value``: trap routing
# and every CSR access read them.
for _mode in PrivilegeMode:
    _mode.level, _mode.virtualized = _mode.value
    _mode.is_guest = _mode.virtualized
del _mode
