"""A valid stage-2 walk onto PMP-protected memory, on the engine and the
reference path.

A normal VM's hypervisor controls its stage-2 table, so it can point a
leaf into the secure pool.  The walk is valid; the PMP check of the
access denies it.  The guest-access engines must then take exactly the
reference path's route (the access fault is dispatched, and the
hypervisor refuses it with a ``SecurityViolation``) with the same
charges, rather than raise the bare trap from inside the engine.
"""

from __future__ import annotations

import pytest

from repro import Machine, MachineConfig
from repro.machine import GuestContext
from repro.mem.physmem import PAGE_SIZE
from tests.properties.test_prop_seq_access import _leaf_slot

#: Four test pages from this offset of the guest's DRAM; page 1 is repointed.
OFFSET = 24 << 20
PAGES = 4


def _side(trace_cache: bool):
    """A normal VM whose page 1 maps onto the secure pool, TLB flushed."""
    machine = Machine(MachineConfig(trace_cache=trace_cache))
    session = machine.launch_normal_vm("pmp-denied")
    machine._enter_guest(session)
    ctx = GuestContext(machine, session)
    base = session.layout.dram_base + OFFSET
    for page in range(PAGES):
        ctx.store(base + page * PAGE_SIZE, page + 1)
    pool_base, _size = machine.monitor.pool.regions[0]
    slot = _leaf_slot(machine, session.hgatp_root, base + PAGE_SIZE)
    pte = machine.dram.read_u64(slot)
    machine.dram.write_u64(slot, (pool_base >> 12) << 10 | pte & 0x3FF)
    machine.translator.tlb.flush_all()
    return machine, ctx, base


def _outcome(trace_cache: bool, call):
    machine, ctx, base = _side(trace_cache)
    try:
        result = ("ok", call(ctx, base))
    except Exception as error:  # the type is what must agree
        result = ("raised", type(error).__name__)
    tlb = machine.translator.tlb
    return result, {
        "by_category": machine.ledger.by_category(),
        "tlb": (tlb.hits, tlb.misses, tlb.generation, tlb.flushes, len(tlb)),
    }


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda ctx, base: ctx.load(base + PAGE_SIZE), id="load"),
        pytest.param(lambda ctx, base: ctx.store(base + PAGE_SIZE, 0xBAD), id="store"),
        pytest.param(
            lambda ctx, base: ctx.load_seq(base, PAGES, stride=PAGE_SIZE), id="load_seq"
        ),
    ],
)
def test_pmp_denied_walk_matches_reference(call):
    engine = _outcome(True, call)
    reference = _outcome(False, call)
    assert reference[0] == ("raised", "SecurityViolation")
    assert engine == reference
