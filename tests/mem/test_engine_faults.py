"""Stage-2 faults taken by the guest-access engine.

- A store to a page whose stage-2 leaf is present but lacks ``W`` is a
  permission fault: KVM and the SM refuse it with ``MemoryError_`` before
  allocating anything, KVM's exit is paired with its entry, and the
  engine and reference machines agree on the cycles charged.
- A fault handler that maps nothing ends the access after eight
  faults, in the engine as on the reference path.
- A VM's first-touch faults are fixed inside the engine, from the
  batched calls and from the scalar and bulk calls alike, whether or not
  a ``Tracer`` is attached, and the tracer records what it records on the
  reference path.
- Every branch of the SM's one fault handler -- each allocation stage,
  a hypervisor that donates nothing, a missing leaf table, a present
  leaf -- ends the same from the engine and the reference path,
  and destroying the CVM gives each of its blocks back once.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, MemoryError_
from repro.isa.privilege import PrivilegeMode
from repro.machine import GuestContext
from repro.mem.pagetable import PTE_D, PTE_R, PTE_U, PTE_V, PTE_W, PTE_X
from repro.mem.physmem import PAGE_SIZE
from repro.sm.alloc import AllocStage, PoolExhausted
from repro.sm.secmem import OWNER_SM
from repro.trace import Tracer
from repro.verify import check_invariants
from tests.conftest import make_machine
from tests.properties.test_prop_seq_access import READ_ONLY_OFFSET, _leaf_slot, _Side

REFUSALS = 3


def _secure_pages_of(side) -> int | None:
    cvm = side.session.cvm
    if cvm is None:
        return None
    return len(side.machine.monitor.pool.pages_owned_by(cvm.cvm_id))


@pytest.mark.parametrize("method", ["store", "store_seq"])
@pytest.mark.parametrize("kind", ["cvm", "normal"])
def test_permission_fault_is_refused_without_allocating(kind, method):
    sides = (_Side(kind, reference=False), _Side(kind, reference=True))
    for side in sides:
        machine = side.machine
        gpa = side.session.layout.dram_base + READ_ONLY_OFFSET
        host_free = machine.hypervisor.allocator.free_bytes()
        secure_pages = _secure_pages_of(side)
        for attempt in range(REFUSALS):
            value = 0xBAD0 + attempt
            args = (gpa, value) if method == "store" else (gpa, [value])
            with pytest.raises(MemoryError_):
                getattr(side.ctx, method)(*args)
            assert side.session.hart.mode is PrivilegeMode.VS
        assert machine.hypervisor.allocator.free_bytes() == host_free
        assert _secure_pages_of(side) == secure_pages
        assert side.ctx.load(gpa) == 0x5EED  # the page kept its contents
    engine, reference = (side.machine.ledger.by_category() for side in sides)
    assert engine == reference


@pytest.mark.parametrize("method", ["load", "load_seq"])
@pytest.mark.parametrize("kind", ["cvm", "normal"])
def test_a_fix_that_maps_nothing_gives_up_after_eight_faults(kind, method):
    sides = (_Side(kind, reference=False), _Side(kind, reference=True))
    for side in sides:
        machine = side.machine
        fixes: list = []
        machine._sm_fault = machine._kvm_demand_map = (
            lambda session, gpa, walk=None: fixes.append(gpa)
        )
        gpa = side.session.layout.dram_base + (44 << 20)
        with pytest.raises(ConfigurationError, match="after 8 faults"):
            getattr(side.ctx, method)(gpa, 1)
        assert fixes == [gpa] * 8
    engine, reference = sides
    assert engine.machine.ledger.by_category() == reference.machine.ledger.by_category()
    assert _tlb_stats(engine.machine) == _tlb_stats(reference.machine)


def _batched_first_touches(ctx):
    base = ctx.session.layout.dram_base + (40 << 20)
    ctx.store_seq(base, [1, 2, 3, 4], stride=PAGE_SIZE)
    loaded = ctx.load_seq(base + 4 * PAGE_SIZE, 4, stride=PAGE_SIZE)
    ctx.touch_seq([base + 8 * PAGE_SIZE, base + 9 * PAGE_SIZE + 5, base])
    return loaded, ctx.load_seq(base, 4, stride=PAGE_SIZE)


def _scalar_first_touches(ctx):
    base = ctx.session.layout.dram_base + (40 << 20)
    for page in range(4):
        ctx.store(base + page * PAGE_SIZE, page + 1)
    loaded = [ctx.load(base + page * PAGE_SIZE) for page in range(4, 8)]
    ctx.touch(base + 8 * PAGE_SIZE)
    ctx.write_bytes(base + 9 * PAGE_SIZE + 5, b"chunk")  # one page chunk
    return loaded, [ctx.load(base + page * PAGE_SIZE) for page in range(4)]


#: Ten first touches each, through the batched calls or the scalar and
#: bulk ones.
FIRST_TOUCHES = {"batched": _batched_first_touches, "scalar": _scalar_first_touches}


def _first_touch_run(kind: str, reference: bool, observe: bool, calls: str = "batched"):
    """A VM of ``kind`` first-touching ten pages through ``calls``.

    Returns the machine, the observations and the addresses of the
    accesses that left the engine for the reference path.
    """
    machine = make_machine(reference)
    if kind == "cvm":
        session = machine.launch_confidential_vm(image=b"first-touch" * 32)
    else:
        session = machine.launch_normal_vm("observed" if observe else "unobserved")
    tracer = Tracer(machine) if observe else None
    detours = []
    reference = machine._reference_access

    def counted(*args):
        detours.append(args[1])
        return reference(*args)

    machine._reference_access = counted
    faults_before = _faults_taken(machine, session)
    result = machine.run(session, FIRST_TOUCHES[calls])["workload_result"]
    assert result == ([0, 0, 0, 0], [1, 2, 3, 4])
    assert _faults_taken(machine, session) - faults_before == 10
    observed = [] if tracer is None else [
        (event.detail["path"], event.detail["stage"], event.detail["cycles"])
        for event in tracer.of_kind("fault")
    ]
    return machine, observed, detours


def _faults_taken(machine, session) -> int:
    if session.normal_vm is not None:
        return session.normal_vm.fault_count
    return sum(machine.monitor.fault_stage_counts.values())


def _tlb_stats(machine) -> tuple:
    tlb = machine.translator.tlb
    return tlb.hits, tlb.misses, tlb.generation, tlb.flushes, tlb.page_flushes


def _check_observer_parity(kind: str, calls: str = "batched") -> None:
    unobserved, none_seen, plain_detours = _first_touch_run(kind, False, False, calls)
    observed, seen, observed_detours = _first_touch_run(kind, False, True, calls)
    assert none_seen == []
    # Every fault was fixed in the engine, observer or not.
    assert plain_detours == observed_detours == []
    assert observed.ledger.by_category() == unobserved.ledger.by_category()
    assert _tlb_stats(observed) == _tlb_stats(unobserved)
    assert observed.monitor.fault_stage_counts == unobserved.monitor.fault_stage_counts

    reference, reference_seen, _ = _first_touch_run(kind, True, True, calls)
    assert len(seen) == 10
    if kind == "cvm":
        assert all(k == "sm" and stage in AllocStage.__members__ for k, stage, _ in seen)
    else:
        assert all(k == "kvm" and stage is None for k, stage, _ in seen)
    assert seen == reference_seen
    assert observed.ledger.by_category() == reference.ledger.by_category()
    assert _tlb_stats(observed) == _tlb_stats(reference)
    assert observed.monitor.fault_stage_counts == reference.monitor.fault_stage_counts


def test_observer_does_not_change_the_normal_vm_fault_path():
    _check_observer_parity("normal")


def test_observer_does_not_change_the_cvm_fault_path():
    _check_observer_parity("cvm")


@pytest.mark.parametrize("kind", ["cvm", "normal"])
def test_scalar_first_touches_are_fixed_in_the_engine(kind):
    """``store``, ``load``, ``touch`` and a ``write_bytes`` chunk take their
    first-touch faults in the engine, as the batched calls do."""
    _check_observer_parity(kind, "scalar")


# ---------------------------------------------------------------------------
# The SM's one fault handler, reached from both callers
# ---------------------------------------------------------------------------

#: A four-page secure block and a pool of a few dozen blocks, so a short
#: run of first touches reaches every allocation stage.
BLOCK = 4 * PAGE_SIZE
#: First touches go to consecutive pages of this 2 MiB region.
REGION = 40 << 20


class _SmallPoolCvm:
    """A CVM on a small pool, entered, with its batched-call context."""

    def __init__(self, reference: bool):
        machine = make_machine(
            reference, secure_block_size=BLOCK, initial_pool_bytes=32 * BLOCK,
        )
        machine.hypervisor.expand_chunk = 8 * BLOCK
        self.machine = machine
        self.monitor = machine.monitor
        self.pool = machine.monitor.pool
        self.balance_before_launch = self.pool_balance()
        session = machine.launch_confidential_vm(image=b"sm-fault" * 64)
        self.session = session
        self.cvm = session.cvm
        machine._enter_guest(session)
        self.ctx = GuestContext(machine, session)
        self.next_gpa = session.layout.dram_base + REGION
        self.detours: list = []
        reference = machine._reference_access

        def counted(*args):
            self.detours.append(args[1])
            return reference(*args)

        machine._reference_access = counted

    def pool_balance(self) -> int:
        """Free pool bytes less donated bytes plus SM metadata bytes.

        Unchanged from before a CVM's launch to after its destruction
        exactly when each of its blocks went back to the pool once.
        """
        pool = self.pool
        donated = sum(size for _base, size in pool.regions)
        metadata = len(pool.pages_owned_by(OWNER_SM)) * PAGE_SIZE
        return pool.free_blocks * pool.block_size - donated + metadata

    def cached_pages(self) -> int:
        return len(self.monitor._allocators[self.cvm.cvm_id].cache_for(0))

    def owned_pages(self) -> int:
        return len(self.pool.pages_owned_by(self.cvm.cvm_id))

    def touch(self) -> int:
        """First-touch the next page of the region; returns its GPA."""
        gpa = self.next_gpa
        self.ctx.store_seq(gpa, [gpa])
        self.next_gpa += PAGE_SIZE
        return gpa

    def walk(self, gpa: int) -> tuple:
        return self.machine.translator.probe_gpa(self.cvm.hgatp_root, gpa)


def _cache_hit(cvm):
    cvm.touch()  # the region's leaf table exists
    while not cvm.cached_pages():
        cvm.touch()
    return cvm.next_gpa


def _missing_table(cvm):
    _cache_hit(cvm)
    return cvm.next_gpa + (2 << 20)  # a region with no leaf table yet


def _cache_refill(cvm):
    cvm.touch()
    while cvm.cached_pages():
        cvm.touch()
    return cvm.next_gpa


def _pool_expansion(cvm):
    cvm.touch()
    while cvm.cached_pages() or cvm.pool.free_blocks:
        cvm.touch()
    return cvm.next_gpa


def _no_donation(cvm):
    gpa = _pool_expansion(cvm)
    cvm.machine.hypervisor.on_pool_expand_request = lambda monitor: None
    return gpa


def _present_leaf(cvm):
    gpa = cvm.touch()
    machine = cvm.machine
    leaf = _leaf_slot(machine, cvm.cvm.hgatp_root, gpa)
    machine.dram.write_u64(leaf, machine.dram.read_u64(leaf) & ~PTE_W)
    machine.translator.tlb.flush_all()
    return gpa


#: ``case -> (prepare, expected stage or refusal, leaf slot known?)``.
#: ``prepare`` sets the state up and returns the GPA to fault on.
SM_FAULT_CASES = {
    "page_cache": (_cache_hit, AllocStage.PAGE_CACHE, True),
    "missing_leaf_table": (_missing_table, AllocStage.PAGE_CACHE, False),
    "new_block": (_cache_refill, AllocStage.NEW_BLOCK, True),
    "pool_expansion": (_pool_expansion, AllocStage.POOL_EXPANSION, True),
    "no_donation": (_no_donation, PoolExhausted, True),
    "present_leaf": (_present_leaf, MemoryError_, False),
}


def _take_sm_fault(cvm, case: str) -> dict:
    """Prepare ``case``, fault once through ``store_seq``, and summarise."""
    prepare, expected, slot_known = SM_FAULT_CASES[case]
    gpa = prepare(cvm)
    pa_before, _flags, _levels, slot = cvm.walk(gpa)
    assert bool(slot) is slot_known
    assert (pa_before is not None) is (expected is MemoryError_)
    monitor = cvm.monitor
    stages_before = dict(monitor.fault_stage_counts)
    owned, free_blocks = cvm.owned_pages(), cvm.pool.free_blocks
    detours_before = len(cvm.detours)
    if isinstance(expected, AllocStage):
        cvm.ctx.store_seq(gpa, [0xF00D])
        assert cvm.ctx.load(gpa) == 0xF00D
        stages_before[expected] += 1
    else:
        with pytest.raises(expected):
            cvm.ctx.store_seq(gpa, [0xF00D])
        # Nothing was allocated, mapped or leaked.
        assert cvm.owned_pages() == owned
        assert cvm.pool.free_blocks == free_blocks
    assert dict(monitor.fault_stage_counts) == stages_before
    assert cvm.session.hart.mode is PrivilegeMode.VS
    pa, flags, _levels, _slot = cvm.walk(gpa)
    return {
        "detoured": len(cvm.detours) > detours_before,
        "by_category": cvm.machine.ledger.by_category(),
        "leaf": (pa, flags),
        "owner": None if pa is None else monitor.pool.owner_of(pa & ~(PAGE_SIZE - 1)),
        "cvm_blocks": [(b.base, b.size) for b in monitor._cvm_blocks[cvm.cvm.cvm_id]],
        "violations": check_invariants(cvm.machine),
    }


@pytest.mark.parametrize("case", sorted(SM_FAULT_CASES))
def test_one_sm_fault_handler_for_both_callers(case):
    """Each branch of the SM handler, from the engine and the reference path."""
    engine_cvm, reference_cvm = _SmallPoolCvm(False), _SmallPoolCvm(True)
    engine, reference = (_take_sm_fault(cvm, case) for cvm in (engine_cvm, reference_cvm))
    # The engine fixes every missing page in place; only the permission
    # fault on a present leaf takes the reference path.
    assert engine.pop("detoured") is (case == "present_leaf")
    del reference["detoured"]
    assert engine == reference
    assert engine["violations"] == []
    assert len(set(engine["cvm_blocks"])) == len(engine["cvm_blocks"])
    if isinstance(SM_FAULT_CASES[case][1], AllocStage):
        # A private leaf: readable, writable, executable, user, dirty.
        assert engine["leaf"][1] == PTE_V | PTE_R | PTE_W | PTE_X | PTE_U | PTE_D
        assert engine["owner"] == engine_cvm.cvm.cvm_id
    for cvm in (engine_cvm, reference_cvm):
        cvm.machine._leave_guest(cvm.session)
        cvm.monitor.ecall_destroy(cvm.cvm.cvm_id)
        assert cvm.pool_balance() == cvm.balance_before_launch
        assert cvm.owned_pages() == 0
