"""Hostile stage-2 tables of a normal VM, on the engine and the
reference path.

A normal VM's hypervisor controls its stage-2 table, so it can point a
leaf into the secure pool.  The walk is valid; the PMP check of the
access denies it.  The guest-access engine must then take exactly the
reference path's route (the access fault is dispatched, and the
hypervisor refuses it with a ``SecurityViolation``) with the same
charges, rather than raise the bare trap from inside the engine.

It can also point a table entry outside DRAM.  The walk's read there
raises ``MemoryError_``, and both paths charge the reads the walk made
before it.
"""

from __future__ import annotations

import pytest

from repro.machine import GuestContext
from repro.mem.pagetable import PTE_V
from repro.mem.physmem import PAGE_SIZE
from tests.conftest import make_machine
from tests.properties.test_prop_seq_access import _leaf_slot

#: Four test pages from this offset of the guest's DRAM; page 1 is repointed.
OFFSET = 24 << 20
PAGES = 4


def _side(reference: bool):
    """A normal VM whose page 1 maps onto the secure pool, TLB flushed."""
    machine = make_machine(reference)
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


def _outcome(reference: bool, call):
    machine, ctx, base = _side(reference)
    try:
        result = ("ok", call(ctx, base))
    except Exception as error:  # the type is what must agree
        result = ("raised", type(error).__name__)
    tlb = machine.translator.tlb
    return result, {
        "by_category": machine.ledger.by_category(),
        "tlb": (tlb.hits, tlb.misses, tlb.flushes, len(tlb)),
    }


def _load_through_a_root_entry_outside_dram(ctx, base):
    """Point the root entry over ``dram_base + 32 MB`` at 0x1000, then load there."""
    gpa = ctx.session.layout.dram_base + (32 << 20)
    sv = ctx.machine.translator.sv39x4
    slot = ctx.session.hgatp_root + 8 * (gpa >> sv._shifts[0] & sv._masks[0])
    ctx.machine.dram.write_u64(slot, 0x1000 >> 12 << 10 | PTE_V)
    return ctx.load(gpa)


@pytest.mark.parametrize(
    "call,error",
    [
        pytest.param(lambda ctx, base: ctx.load(base + PAGE_SIZE), "SecurityViolation",
                     id="load"),
        pytest.param(lambda ctx, base: ctx.store(base + PAGE_SIZE, 0xBAD), "SecurityViolation",
                     id="store"),
        pytest.param(
            lambda ctx, base: ctx.load_seq(base, PAGES, stride=PAGE_SIZE), "SecurityViolation",
            id="load_seq",
        ),
        pytest.param(_load_through_a_root_entry_outside_dram, "MemoryError_",
                     id="root_entry_outside_dram"),
    ],
)
def test_pmp_denied_walk_matches_reference(call, error):
    engine = _outcome(False, call)
    reference = _outcome(True, call)
    assert reference[0] == ("raised", error)
    assert engine == reference
