"""Census: the per-access, per-switch and fleet paths name no enum member through its class.

On CPython before 3.12 every ``Category.TRAP``-style lookup runs the enum
metaclass's ``__getattr__`` hook, several times the cost of reading a
module global, so the hot paths bind the members they use once at module
level (``machine.py``'s ``_ACCESS``, ``pmp.py``'s ``_M``).  This test
disassembles each hot function, with the generators and functions nested
in it, and fails on a ``LOAD_ATTR`` that reads an enum member off a
global bound to an enum class.
"""

import builtins
import dis
import enum
import types

import pytest

from repro.cycles import CycleLedger
from repro.hyp.hypervisor import Hypervisor
from repro.isa import status
from repro.isa.iopmp import IopmpEntry
from repro.isa.pmp import PmpUnit
from repro.isa.traps import route_exception
from repro.machine import GuestContext, Machine
from repro.mem.physmem import MemoryBus
from repro.mem.translation import AddressTranslator
from repro.sm.abi import EcallInterface
from repro.sm.channel import ChannelManager
from repro.sm.migration import import_cvm
from repro.sm.monitor import SecureMonitor
from repro.sm.world_switch import WorldSwitch
from repro.verify import check_invariants

HOT = {
    "PmpUnit.check": PmpUnit.check,
    "CycleLedger.charge": CycleLedger.charge,
    **{
        f"GuestContext.{name}": getattr(GuestContext, name)
        for name in ("compute", "load", "store", "read_bytes", "write_bytes",
                     "deliver_pending_irqs", "sbi_ecall")
    },
    "Hypervisor.normal_vm_exit": Hypervisor.normal_vm_exit,
    "Hypervisor.normal_vm_enter": Hypervisor.normal_vm_enter,
    "WorldSwitch.exit_to_normal": WorldSwitch.exit_to_normal,
    "WorldSwitch.enter_cvm": WorldSwitch.enter_cvm,
    "EcallInterface._guest_call": EcallInterface._guest_call,
    "SecureMonitor._charge_ecall": SecureMonitor._charge_ecall,
    "ChannelManager.notify": ChannelManager.notify,
    "status.mret_target": status.mret_target,
    "route_exception": route_exception,
    "AddressTranslator.gpa_to_pa": AddressTranslator.gpa_to_pa,
    "IopmpEntry.permits": IopmpEntry.permits,
    **{
        f"MemoryBus.{name}": getattr(MemoryBus, name)
        for name in ("cpu_read", "cpu_write", "cpu_read_u64", "cpu_write_u64",
                     "cpu_zero_range")
    },
    # Once or more per fleet migration or containment sweep.
    "PmpUnit._rebuild": PmpUnit._rebuild,
    "check_invariants": check_invariants,
    "SecureMonitor.ecall_destroy": SecureMonitor.ecall_destroy,
    "import_cvm": import_cvm,
    "SecureMonitor._alloc_table_page": SecureMonitor._alloc_table_page,
    "WorldSwitch._rebuild_plans": WorldSwitch._rebuild_plans,
    "Machine._build_engine": Machine._build_engine,
}


def _code_objects(code):
    """``code`` and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def enum_member_loads(function) -> list:
    """``Class.MEMBER`` reads in ``function``'s bytecode, nested code included."""
    found = []
    for code in _code_objects(function.__code__):
        previous = None
        for instruction in dis.get_instructions(code):
            if (instruction.opname == "LOAD_ATTR" and previous is not None
                    and previous.opname == "LOAD_GLOBAL"):
                name = previous.argval
                bound = function.__globals__.get(name, getattr(builtins, name, None))
                if isinstance(bound, enum.EnumMeta) and instruction.argval in bound.__members__:
                    found.append(f"{name}.{instruction.argval}")
            if instruction.opname not in ("CACHE", "EXTENDED_ARG"):
                previous = instruction
    return found


class _Looked(enum.Enum):
    UP = 1


def test_the_census_sees_a_member_lookup():
    def looks_up():
        return enum.Enum, _Looked.UP

    assert enum_member_loads(looks_up) == ["_Looked.UP"]


def test_the_census_sees_a_lookup_in_a_nested_generator():
    def looks_up_lazily(values):
        return any(value is _Looked.UP for value in values)

    assert enum_member_loads(looks_up_lazily) == ["_Looked.UP"]


@pytest.mark.parametrize("name", sorted(HOT))
def test_hot_function_binds_its_enum_members(name):
    assert enum_member_loads(HOT[name]) == []


def test_the_access_engine_binds_its_enum_members(cvm_session):
    assert enum_member_loads(cvm_session._engine) == []
