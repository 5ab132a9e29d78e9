"""Scalar accesses that straddle a guest page boundary.

An 8-byte access at ``page_end - 4`` touches two guest pages, which the
stage-2 table may back with frames anywhere in DRAM.  Each part must be
translated and PMP-checked on its own, so the upper bytes land in (or
come from) the guest's *next page*, never the physically adjacent frame.
Each part is charged as the access it splits into: a timer check, a TLB
lookup or walk, and a compute cycle.

Every test runs on the default machine (the engine, from the scalar and
the batched calls) and on a reference machine (``make_machine(reference=
True)``: the reference path), for a CVM and a normal VM.
"""

from __future__ import annotations

import pytest

from repro.cycles import Category
from repro.mem.physmem import PAGE_SIZE
from tests.conftest import make_machine

VALUE = 0x1122_3344_5566_7788
#: Offset of the straddling word inside the first page (4 bytes each side).
OFFSET = PAGE_SIZE - 4

PARAMS = [
    pytest.param(reference, kind, id=f"{kind}-{'reference' if reference else 'engine'}")
    for reference in (False, True)
    for kind in ("cvm", "normal")
]


def _launch(reference: bool, kind: str):
    machine = make_machine(reference)
    if kind == "cvm":
        session = machine.launch_confidential_vm(image=b"straddle" * 16)
    else:
        session = machine.launch_normal_vm("straddle")
    return machine, session


def _pa(machine, session, gva: int) -> int:
    pa, _flags, _levels, _slot = machine.translator.probe_gpa(session.hgatp_root, gva)
    assert pa is not None, f"{gva:#x} is not mapped"
    return pa


def _map_two_pages(ctx):
    """First-touch two adjacent guest pages whose frames are not adjacent.

    A spacer page is touched between them, so the second page's frame
    cannot be the one physically after the first's.
    """
    machine, session = ctx.machine, ctx.session
    base = session.layout.dram_base + (24 << 20)
    ctx.store(base, 0)
    ctx.store(base + 64 * PAGE_SIZE, 0)  # spacer
    ctx.store(base + PAGE_SIZE, 0)
    pa1 = _pa(machine, session, base)
    pa2 = _pa(machine, session, base + PAGE_SIZE)
    assert pa2 != pa1 + PAGE_SIZE
    return base, pa1, pa2


@pytest.mark.parametrize("reference,kind", PARAMS)
def test_store_lands_in_the_next_guest_page(reference, kind):
    machine, session = _launch(reference, kind)

    def workload(ctx):
        base, pa1, pa2 = _map_two_pages(ctx)
        adjacent = machine.dram.read(pa1 + PAGE_SIZE, 4)
        ctx.store(base + OFFSET, VALUE)
        return pa1, pa2, adjacent, ctx.load(base + OFFSET)

    pa1, pa2, adjacent, loaded = machine.run(session, workload)["workload_result"]
    assert machine.dram.read(pa1 + OFFSET, 4) == (VALUE & 0xFFFF_FFFF).to_bytes(4, "little")
    assert machine.dram.read(pa2, 4) == (VALUE >> 32).to_bytes(4, "little")
    assert machine.dram.read(pa1 + PAGE_SIZE, 4) == adjacent
    assert loaded == VALUE


@pytest.mark.parametrize("reference,kind", PARAMS)
def test_load_reads_the_next_guest_page(reference, kind):
    machine, session = _launch(reference, kind)

    def workload(ctx):
        base, pa1, pa2 = _map_two_pages(ctx)
        machine.dram.write(pa1 + OFFSET, (VALUE & 0xFFFF_FFFF).to_bytes(4, "little"))
        machine.dram.write(pa2, (VALUE >> 32).to_bytes(4, "little"))
        return ctx.load(base + OFFSET), ctx.load(base + PAGE_SIZE - 2, 4)

    word, half = machine.run(session, workload)["workload_result"]
    assert word == VALUE
    assert half == VALUE >> 16 & 0xFFFF_FFFF


@pytest.mark.parametrize("reference,kind", PARAMS)
def test_load_seq_reads_the_next_guest_page(reference, kind):
    machine, session = _launch(reference, kind)

    def workload(ctx):
        base, pa1, pa2 = _map_two_pages(ctx)
        machine.dram.write(pa1 + OFFSET, (VALUE & 0xFFFF_FFFF).to_bytes(4, "little"))
        machine.dram.write(pa2, (VALUE >> 32).to_bytes(4, "little"))
        machine.dram.write(pa2 + 4, (0xABCD).to_bytes(8, "little"))
        # Twice: the second pass would replay a recorded trace.
        return [ctx.load_seq(base + OFFSET, 2) for _ in range(2)]

    first, second = machine.run(session, workload)["workload_result"]
    assert first == second == [VALUE, 0xABCD]


@pytest.mark.parametrize("reference,kind", PARAMS)
def test_store_seq_lands_in_the_next_guest_page(reference, kind):
    machine, session = _launch(reference, kind)

    def workload(ctx):
        base, pa1, pa2 = _map_two_pages(ctx)
        adjacent = machine.dram.read(pa1 + PAGE_SIZE, 12)
        for _ in range(2):
            ctx.store_seq(base + OFFSET, [VALUE, 0xABCD])
        return pa1, pa2, adjacent

    pa1, pa2, adjacent = machine.run(session, workload)["workload_result"]
    assert machine.dram.read(pa1 + OFFSET, 4) == (VALUE & 0xFFFF_FFFF).to_bytes(4, "little")
    assert machine.dram.read(pa2, 12) == (VALUE >> 32).to_bytes(4, "little") + (
        0xABCD
    ).to_bytes(8, "little")
    assert machine.dram.read(pa1 + PAGE_SIZE, 12) == adjacent


@pytest.mark.parametrize("reference,kind", PARAMS)
def test_each_part_is_charged_as_an_access(reference, kind):
    machine, session = _launch(reference, kind)
    tlb = machine.translator.tlb

    def workload(ctx):
        base, _pa1, _pa2 = _map_two_pages(ctx)
        before = (tlb.hits, tlb.misses, machine.ledger.by_category())
        ctx.load(base + OFFSET)
        after = (tlb.hits, tlb.misses, machine.ledger.by_category())
        return before, after

    before, after = machine.run(session, workload)["workload_result"]
    assert after[0] - before[0] == 2  # one TLB lookup per part, both hits
    assert after[1] == before[1]
    assert after[2][Category.COMPUTE] - before[2][Category.COMPUTE] == 2
    assert after[2][Category.TLB] - before[2][Category.TLB] == 2 * int(
        machine.costs.tlb_hit
    )


def test_engine_and_reference_agree_on_a_straddling_sequence():
    outcomes = []
    for reference in (False, True):
        machine, session = _launch(reference, "cvm")

        def workload(ctx):
            base, _pa1, _pa2 = _map_two_pages(ctx)
            values = [(i * 0x9E37_79B9_7F4A_7C15) & (1 << 64) - 1 for i in range(40)]
            # Stride 12 from page_end - 200 straddles the boundary once.
            ctx.store_seq(base + PAGE_SIZE - 200, values, stride=12)
            return ctx.load_seq(base + PAGE_SIZE - 200, 40, stride=12), values

        loaded, values = machine.run(session, workload)["workload_result"]
        assert loaded == values
        tlb = machine.translator.tlb
        outcomes.append((machine.ledger.by_category(), tlb.hits, tlb.misses))
    assert outcomes[0] == outcomes[1]
