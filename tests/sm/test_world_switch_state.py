"""World-switch state pin: every exit kind's exit and entry, step by step.

Each configuration -- the short path, ``long_path=True`` and
``use_shared_vcpu=False`` -- launches one CVM and drives every exit kind
(``timer``, ``wfi``, ``halt``, ``mmio_load``, ``mmio_store``,
``shared_fault``) through an exit, a hypervisor reply and an entry, with
one pool expansion in between so the switch plans are rebuilt for a
second pool region.  It ends with a Check-after-Load refusal and its
retry.  After every step the test compares, against
``tests/goldens/world_switch_state.json``:

- the hart's mode, every CSR and every GPR;
- the PMP verdicts at each pool region's base for M, HS and VS;
- the secure vCPU (run state, pc, register files, exit context,
  refusal count);
- the shared vCPU page's 72 bytes;
- ``ledger.by_category()``.

The golden was recorded before the exchange became one packed write and
the register files stopped being re-masked on entry, so it pins those
bytes and values to the per-field behaviour.  Re-record it (only for an
intended model change) with::

    PYTHONPATH=src python -m tests.sm.test_world_switch_state
"""

from __future__ import annotations

import json
import pathlib
import random

import pytest

from repro import Machine, MachineConfig, SecurityViolation
from repro.isa.csr import CSR_PRIVILEGE
from repro.isa.hart import GPR_NAMES
from repro.isa.privilege import PrivilegeMode
from repro.isa.traps import AccessType
from repro.sm.vcpu import SHARED_VCPU_SIZE

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "goldens" / "world_switch_state.json"

CONFIGS = {
    "short": {},
    "long_path": {"long_path": True},
    "no_shared_vcpu": {"use_shared_vcpu": False},
}

_CSR_NAMES = sorted(CSR_PRIVILEGE)
_MODES = (PrivilegeMode.M, PrivilegeMode.HS, PrivilegeMode.VS)
_ACCESSES = (AccessType.LOAD, AccessType.STORE, AccessType.FETCH)


def _exit_info(kind: str, layout) -> dict:
    if kind == "mmio_load":
        return {"kind": kind, "cause": 21, "htval": layout.mmio_base + 0x40,
                "htinst": 0x00053503, "gpr_index": 10, "gpr_value": 0}
    if kind == "mmio_store":
        return {"kind": kind, "cause": 23, "htval": layout.mmio_base + 0x48,
                "htinst": 0x00A53023, "gpr_index": 0,
                "gpr_value": 0xFEDC_BA98_7654_3210}
    if kind == "shared_fault":
        return {"kind": kind, "cause": 21, "htval": layout.shared_base + 0x5008}
    return {"kind": kind, "cause": 7 if kind == "timer" else 0}


#: The hypervisor's reply to each exit kind: shared-vCPU field writes.
_REPLIES = {
    "timer": {"pending_irq": 1 << 6},
    "wfi": {"pending_irq": 1 << 10},
    "halt": {},
    "mmio_load": {"gpr_index": 10, "gpr_value": 0x0123_4567_89AB_CDEF,
                  "sepc_advance": 4},
    "mmio_store": {"sepc_advance": 2},
    "shared_fault": {"pending_irq": 1 << 2},
}


def _scribble(hart, rng: random.Random) -> None:
    """Fill every GPR and the guest-visible CSRs with 64-bit values."""
    for name in GPR_NAMES:
        hart.write_gpr(name, rng.getrandbits(64))
    for name in ("vsepc", "vscause", "vstval", "vsscratch", "sepc", "stval"):
        hart.csrs.write_raw(name, rng.getrandbits(64))


def _snapshot(machine, cvm, vcpu) -> dict:
    hart = machine.hart
    verdicts = "".join(
        "1" if hart.pmp.check(base, 8, access, mode) else "0"
        for base, _size in machine.pmp_controller.pool_regions
        for mode in _MODES
        for access in _ACCESSES
    )
    shared = cvm.shared_vcpus[vcpu.vcpu_id]
    return {
        "mode": hart.mode.name,
        "csrs": [hart.csrs.read_raw(name) for name in _CSR_NAMES],
        "gprs": [hart.read_gpr(name) for name in GPR_NAMES],
        "pmp": verdicts,
        "vcpu": {
            "state": vcpu.state.name,
            "pc": vcpu.pc,
            "gprs": sorted(vcpu.gprs.items()),
            "csrs": sorted(vcpu.csrs.items()),
            "exit_context": vcpu.exit_context,
            "reply_refusals": getattr(vcpu, "reply_refusals", None),
        },
        "shared": machine.dram.read(shared.base_pa, SHARED_VCPU_SIZE).hex(),
        "ledger": {cat.name: cycles for cat, cycles in machine.ledger.by_category().items()},
    }


def _reply(hart, shared, fields: dict) -> None:
    for field, value in fields.items():
        shared.hyp_write(hart, field, value)


def drive(config: str) -> list:
    """Run the pinned sequence on a fresh machine; ``[(label, snapshot)]``."""
    machine = Machine(MachineConfig(**CONFIGS[config]))
    session = machine.launch_confidential_vm(image=b"pin" * 64)
    cvm, vcpu, hart = session.cvm, session.cvm.vcpu(0), machine.hart
    ws = machine.monitor.world_switch
    shared = cvm.shared_vcpus[vcpu.vcpu_id]
    rng = random.Random(f"world-switch-{config}")
    steps = []

    def record(label):
        # JSON round trip: the golden holds lists where Python has tuples.
        steps.append((label, json.loads(json.dumps(_snapshot(machine, cvm, vcpu)))))

    ws.enter_cvm(hart, cvm, vcpu)
    record("enter:first")
    for kind in ("timer", "wfi", "halt", "mmio_load", "mmio_store", "shared_fault"):
        _scribble(hart, rng)
        ws.exit_to_normal(hart, cvm, vcpu, _exit_info(kind, session.layout))
        record(f"exit:{kind}")
        _reply(hart, shared, _REPLIES[kind])
        _scribble(hart, rng)  # the hypervisor's own registers
        if kind == "halt":
            # A second pool region: the next switches rebuild their plans.
            machine.hypervisor.on_pool_expand_request(machine.monitor)
        ws.enter_cvm(hart, cvm, vcpu)
        record(f"enter:{kind}")

    _scribble(hart, rng)
    ws.exit_to_normal(hart, cvm, vcpu, _exit_info("mmio_load", session.layout))
    record("exit:refused")
    _reply(hart, shared, {"gpr_index": 11, "gpr_value": 5, "sepc_advance": 4})
    with pytest.raises(SecurityViolation):
        ws.enter_cvm(hart, cvm, vcpu)
    record("enter:refused")
    _reply(hart, shared, {"gpr_index": 10})
    ws.enter_cvm(hart, cvm, vcpu)
    record("enter:retry")
    return steps


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_world_switch_state_matches_golden(config):
    expected = _golden()[config]
    steps = drive(config)
    assert [label for label, _ in steps] == [label for label, _ in expected]
    for (label, got), (_, want) in zip(steps, expected):
        for field in want:
            assert got[field] == want[field], f"{config} {label}: {field} differs"


def test_golden_covers_every_exit_kind_in_every_configuration():
    golden = _golden()
    assert sorted(golden) == sorted(CONFIGS)
    for steps in golden.values():
        labels = {label for label, _ in steps}
        for kind in _REPLIES:
            assert {f"exit:{kind}", f"enter:{kind}"} <= labels
        # Two pool regions after the expansion: 2 x 3 modes x 3 accesses.
        assert len(dict(steps)["enter:mmio_load"]["pmp"]) == 18


if __name__ == "__main__":
    # One step per line, so a re-recording diffs step by step.
    blocks = []
    for config in sorted(CONFIGS):
        lines = ",\n".join(json.dumps(step) for step in drive(config))
        blocks.append(f"{json.dumps(config)}: [\n{lines}\n]")
    GOLDEN_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {GOLDEN_PATH}")
