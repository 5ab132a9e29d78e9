"""A normal VM's stage-2 leaf past the end of DRAM, on the engine and the
reference path.

The hypervisor writes a normal VM's stage-2 table, so a leaf can point
past ``dram.end``; if a PMP entry also lets VS reach that range, the walk
and the PMP check both pass.  The data move is then what refuses the
access: the reference path's checked ``PhysicalMemory`` call raises
``MemoryError_`` after the translation is charged.  The engine moves
bytes in place in DRAM pages, so it must first compare the PA against
DRAM's bounds and take the checked call outside them: the same outcome,
the same ledger and TLB, and no page materialised past the end of DRAM.
"""

from __future__ import annotations

import pytest

from repro.isa.pmp import PmpAddressMode, PmpEntry
from repro.machine import GuestContext
from repro.mem.physmem import PAGE_SIZE
from tests.conftest import make_machine
from tests.properties.test_prop_seq_access import _leaf_slot

#: Four test pages from this offset of the guest's DRAM; page 1 is repointed.
OFFSET = 24 << 20
PAGES = 4
#: The PMP entry that opens a range past DRAM to VS (below the background entry).
PAST_DRAM_ENTRY = 14


def _side(reference: bool):
    """A normal VM whose page 1 maps 64 KB past the end of DRAM, TLB flushed."""
    machine = make_machine(reference)
    session = machine.launch_normal_vm("past-dram")
    machine._enter_guest(session)
    ctx = GuestContext(machine, session)
    base = session.layout.dram_base + OFFSET
    for page in range(PAGES):
        ctx.store(base + page * PAGE_SIZE, page + 1)
    end = machine.dram.end
    for hart in machine.harts:
        hart.pmp.set_entry(PAST_DRAM_ENTRY, PmpEntry(
            mode=PmpAddressMode.TOR, base=end, size=1 << 20,
            readable=True, writable=True, executable=True,
        ))
    slot = _leaf_slot(machine, session.hgatp_root, base + PAGE_SIZE)
    pte = machine.dram.read_u64(slot)
    machine.dram.write_u64(slot, (end + 0x10000) >> 12 << 10 | pte & 0x3FF)
    machine.translator.tlb.flush_all()
    return machine, ctx, base


def _outcome(reference: bool, call):
    machine, ctx, base = _side(reference)
    try:
        result = ("ok", call(ctx, base))
    except Exception as error:  # the type is what must agree
        result = ("raised", type(error).__name__)
    tlb = machine.translator.tlb
    past_end = [index for index in machine.dram._pages if index << 12 >= machine.dram.end]
    return result, {
        "by_category": machine.ledger.by_category(),
        "tlb": (tlb.hits, tlb.misses, tlb.generation, tlb.flushes, len(tlb)),
        "pages_past_dram": past_end,
    }


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda ctx, base: ctx.load(base + PAGE_SIZE), id="load"),
        pytest.param(lambda ctx, base: ctx.store(base + PAGE_SIZE, 0xBAD), id="store"),
        pytest.param(lambda ctx, base: ctx.read_bytes(base + PAGE_SIZE, 16), id="read_bytes"),
        pytest.param(lambda ctx, base: ctx.write_bytes(base + PAGE_SIZE, b"z" * 32),
                     id="write_bytes"),
        pytest.param(lambda ctx, base: ctx.load_seq(base, PAGES, stride=PAGE_SIZE),
                     id="load_seq"),
    ],
)
def test_access_past_dram_matches_reference(call):
    engine = _outcome(False, call)
    reference = _outcome(True, call)
    assert reference[0] == ("raised", "MemoryError_")
    assert reference[1]["pages_past_dram"] == []
    assert engine == reference
