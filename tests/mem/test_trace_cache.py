"""Sequence equivalence: engine runs must be bit-identical to reference runs.

``load_seq``/``store_seq``/``touch_seq`` loop over the session's
guest-access engine (``Machine.run_seq``), a wall-clock optimisation
with a hard contract: every ledger total, per-category count, TLB
statistic, and byte of guest memory must match a machine running every
access through the reference path.  These tests run the same workload
on an engine and a reference machine and diff the full architectural
fingerprint, across strides, sizes, page-crossing shapes, first-touch
fault storms, timer ticks landing mid-sequence, and TLB flushes and
remaps between repeats of one sequence.

The file keeps the name of the trace cache these tests were written
for; it recorded and replayed all-hit sequences and was deleted when it
stopped paying for itself.
"""

from __future__ import annotations

import pytest

from repro import Machine, MachineConfig
from repro.mem.physmem import PAGE_SIZE
from tests.conftest import make_machine

IMAGE = b"trace-cache-equivalence" * 8


def _fingerprint(machine):
    tlb = machine.translator.tlb
    return {
        "total": machine.ledger.total,
        "by_category": machine.ledger.by_category(),
        "tlb": (tlb.hits, tlb.misses, tlb.flushes, tlb.page_flushes, len(tlb)),
    }


def _page_bytes(machine, session, gva):
    """Current contents of the page backing ``gva`` (uncharged probe)."""
    pa, _flags, _levels, _slot = machine.translator.probe_gpa(
        session.hgatp_root, gva & ~(PAGE_SIZE - 1)
    )
    assert pa is not None, f"page at {gva:#x} not mapped"
    return bytes(machine.dram.read(pa & ~(PAGE_SIZE - 1), PAGE_SIZE))


def _run_pair(workload, repeats=1, kind="cvm", check_pages=(), **cfg):
    """Run ``workload`` on an engine and a reference machine; diff everything.

    Returns ``(engine_machine, engine_session, workload_results)``.
    """
    outcomes = []
    for reference in (False, True):
        machine = make_machine(reference, **cfg)
        if kind == "cvm":
            session = machine.launch_confidential_vm(image=IMAGE)
        else:
            session = machine.launch_normal_vm("equiv")
        results = [
            machine.run(session, workload)["workload_result"]
            for _ in range(repeats)
        ]
        outcomes.append((machine, session, results))
    (engine, engine_session, engine_results) = outcomes[0]
    (reference, reference_session, reference_results) = outcomes[1]
    assert engine_results == reference_results
    assert _fingerprint(engine) == _fingerprint(reference)
    for gva in check_pages:
        assert _page_bytes(engine, engine_session, gva) == _page_bytes(
            reference, reference_session, gva
        )
    return engine, engine_session, engine_results


class TestSeqEquivalence:
    @pytest.mark.parametrize(
        "size,stride,count",
        [
            (8, None, 200),            # dense aligned
            (8, 24, 300),              # unaligned crossings inside pages
            (8, PAGE_SIZE, 64),        # one access per page, first-touch faults
            (4, 4, 256),               # sub-word dense
            (1, 509, 400),             # byte accesses striding across pages
            (8, PAGE_SIZE + 8, 48),    # page-crossing stride, misaligned pages
        ],
    )
    def test_store_then_load_seq(self, size, stride, count):
        base_off = 24 << 20

        def workload(ctx):
            base = ctx.session.layout.dram_base + base_off
            values = [(i * 2654435761) & 0xFFFF_FFFF for i in range(count)]
            ctx.store_seq(base, values, size=size, stride=stride)
            # The same shape twice more, now over hot TLB entries.
            first = ctx.load_seq(base, count, size=size, stride=stride)
            second = ctx.load_seq(base, count, size=size, stride=stride)
            third = ctx.load_seq(base, count, size=size, stride=stride)
            assert first == second == third
            return first

        step = size if stride is None else stride
        pages = {base_off + i * step for i in range(count)}
        _engine, _session, results = _run_pair(
            workload,
            repeats=3,  # cross-run repeats walk again (the TLB is flushed between runs)
            check_pages=[
                0x8000_0000 + off for off in sorted(pages)[:8]
            ],
        )
        mask = (1 << (8 * min(size, 8))) - 1
        assert results[0][:4] == [(i * 2654435761) & 0xFFFF_FFFF & mask for i in range(4)]

    def test_touch_seq_rotating_working_set(self):
        """The redis shape: touch a fixed set, then rotating 10-page windows."""

        def workload(ctx):
            base = ctx.session.layout.dram_base + (64 << 20)
            pages = [base + i * PAGE_SIZE for i in range(64)]
            ctx.touch_seq(pages)
            for request in range(120):
                offset = (request * 10) % 64
                ctx.touch_seq(pages[(offset + k) % 64] for k in range(10))
                ctx.compute(5_000)
            return ctx.ledger.total

        _run_pair(workload, repeats=2)

    @pytest.mark.parametrize("padding", [1, 3, 17, 999, 65_521])
    def test_timer_tick_lands_mid_sequence(self, padding):
        """A tick firing inside a hot sequence lands at the same access."""

        def workload(ctx):
            base = ctx.session.layout.dram_base + (32 << 20)
            # Warm the pages.
            warm = ctx.load_seq(base, 256, size=8, stride=PAGE_SIZE // 4)
            tick = ctx.machine.config.timer_tick_cycles
            # Park just short of the next tick so it fires mid-sequence.
            until = ctx.machine.clint.read_mtimecmp(ctx.session.hart.hart_id) - ctx.ledger.total
            ctx.compute(max(1, until - padding))
            again = ctx.load_seq(base, 256, size=8, stride=PAGE_SIZE // 4)
            assert warm == again
            return ctx.ledger.total

        _run_pair(workload)

    def test_store_seq_replay_with_fresh_values(self):
        """A repeated store sequence writes the *new* values, not the first run's."""

        def workload(ctx):
            base = ctx.session.layout.dram_base + (40 << 20)
            ctx.store_seq(base, [0xAA] * 32, stride=PAGE_SIZE)
            ctx.store_seq(base, [0xBB] * 32, stride=PAGE_SIZE)  # all hits, new values
            return ctx.load_seq(base, 32, stride=PAGE_SIZE)

        _, _, results = _run_pair(
            workload, check_pages=[(40 << 20) + 0x8000_0000]
        )
        assert results[0] == [0xBB] * 32

    def test_normal_vm_sequences(self):
        """Normal VMs take KVM fault paths; the engine must match those too."""

        def workload(ctx):
            base = ctx.session.layout.dram_base + (8 << 20)
            ctx.store_seq(base, list(range(96)), stride=PAGE_SIZE // 2)
            out = ctx.load_seq(base, 96, stride=PAGE_SIZE // 2)
            out2 = ctx.load_seq(base, 96, stride=PAGE_SIZE // 2)
            assert out == out2
            return out

        _, _, results = _run_pair(workload, repeats=2, kind="normal")
        assert results[0] == list(range(96))

    def test_single_access_fast_path(self):
        """load/store/read_bytes/write_bytes ride the one-access engine."""

        def workload(ctx):
            base = ctx.session.layout.dram_base + (48 << 20)
            for i in range(64):
                ctx.store(base + i * 8, i * 3)
            total = sum(ctx.load(base + i * 8) for i in range(64))
            blob = bytes(range(256)) * 40  # crosses pages
            ctx.write_bytes(base + 0x3F00, blob)
            assert ctx.read_bytes(base + 0x3F00, len(blob)) == blob
            return total

        _, _, results = _run_pair(workload, repeats=2)
        assert results[0] == sum(i * 3 for i in range(64))


def test_one_engine_per_session():
    """Every guest context of a session calls the engine the session built."""
    machine = Machine(MachineConfig())
    session = machine.launch_confidential_vm(image=IMAGE)
    engines = [machine.run(session, lambda ctx: ctx._access)["workload_result"]
               for _ in range(2)]
    assert engines[0] is engines[1] is session._engine


class TestInvalidation:
    def test_remap_invalidates_traces(self):
        """A table mutation between repeats of a sequence is seen."""

        def workload(ctx):
            base = ctx.session.layout.dram_base + (56 << 20)
            ctx.store_seq(base, [7] * 16, stride=PAGE_SIZE)
            first = ctx.load_seq(base, 16, stride=PAGE_SIZE)
            # Balloon the pages back to the SM (unmaps + scrubs), then
            # re-touch: the faults must remap fresh zeroed frames, not
            # resurrect the old PAs.
            freed = ctx.reclaim_pages(base, 16)
            assert freed == 16
            second = ctx.load_seq(base, 16, stride=PAGE_SIZE)
            return first, second

        _, _, results = _run_pair(workload, check_pages=[(56 << 20) + 0x8000_0000])
        first, second = results[0]
        assert first == [7] * 16
        assert second == [0] * 16

    def test_map_generation_bump_forces_revalidation(self):
        machine = Machine(MachineConfig())
        session = machine.launch_confidential_vm(image=IMAGE)
        base = session.layout.dram_base + (12 << 20)

        def workload(ctx):
            return ctx.load_seq(base, 24, stride=PAGE_SIZE)

        first = machine.run(session, workload)["workload_result"]
        # Any SM-side table mutation bumps the token; it changes no value.
        machine.monitor.split.map_generation += 1
        second = machine.run(session, workload)["workload_result"]
        assert first == second

    def test_non_integral_costs_disable_the_engine(self):
        import dataclasses

        from repro.cycles import DEFAULT_COSTS

        costs = dataclasses.replace(DEFAULT_COSTS, tlb_hit=0.5)
        machine = Machine(MachineConfig(costs=costs))
        session = machine.launch_confidential_vm(image=IMAGE)
        taken = []
        reference = machine._reference_access

        def counted(*args):
            taken.append(args[1])
            return reference(*args)

        machine._reference_access = counted
        base = session.layout.dram_base + (12 << 20)
        machine.run(session, lambda ctx: (ctx.store(base, 1), ctx.load_seq(base, 2)))
        assert taken == [base, base, base + 8]


class TestHitProof:
    """A hot sequence, repeated around TLB changes, matches the reference path."""

    @staticmethod
    def _hot_then(between):
        """Warm 8 pages, run their all-hit ``load_seq``, run ``between``,
        then issue the same ``load_seq`` again; returns both results."""

        def workload(ctx):
            base = ctx.session.layout.dram_base + (44 << 20)
            ctx.store_seq(base, list(range(1, 9)), stride=PAGE_SIZE)
            first = ctx.load_seq(base, 8, stride=PAGE_SIZE)
            between(ctx, base)
            second = ctx.load_seq(base, 8, stride=PAGE_SIZE)
            return first, second

        return workload

    @staticmethod
    def _diffed(workload):
        """``workload`` on an engine and a reference machine, diffed."""
        outcomes = []
        for reference in (False, True):
            machine = make_machine(reference)
            session = machine.launch_confidential_vm(image=IMAGE)
            result = machine.run(session, workload)["workload_result"]
            outcomes.append((machine, result))
        (engine, result), (reference, reference_result) = outcomes
        assert result == reference_result
        assert _fingerprint(engine) == _fingerprint(reference)
        return result

    def test_reexecutes_when_an_entry_was_flushed(self):
        def flush_one_page(ctx, base):
            ctx.machine.translator.sfence_page(ctx.session.vmid, base + 3 * PAGE_SIZE)

        result = self._diffed(self._hot_then(flush_one_page))
        assert result[0] == result[1] == list(range(1, 9))

    def test_a_straddle_and_a_miss_record_nothing(self):
        """A straddling access's two hits and a missing access's none add up
        to one hit per access, and the repeat charges the same again."""

        def workload(ctx):
            base = ctx.session.layout.dram_base + (44 << 20)
            ctx.store_seq(base, [1, 2], stride=PAGE_SIZE)  # pages 0 and 1 hot
            tlb = ctx.machine.translator.tlb
            hits = tlb.hits
            # Access 0 straddles pages 0 and 1; access 1 first-touches page 2.
            shape = (base + PAGE_SIZE - 4, 2, 8, PAGE_SIZE + 4)
            first = ctx.load_seq(*shape)
            first_hits = tlb.hits - hits
            return first, first_hits, ctx.load_seq(*shape)

        result = self._diffed(workload)
        assert result == ([2 << 32, 0], 2, [2 << 32, 0])
