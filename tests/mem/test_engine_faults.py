"""Stage-2 faults taken by the guest-access engines.

- A store to a page whose stage-2 leaf is present but lacks ``W`` is a
  permission fault: KVM and the SM refuse it with ``MemoryError_`` before
  allocating anything, KVM's exit is paired with its entry, and the
  engine and reference machines agree on the cycles charged.
- A normal VM's first-touch faults are fixed inside the batched engine
  whether or not a ``fault_observer`` is set, and the observer sees what
  it sees on the reference path.
"""

from __future__ import annotations

import pytest

from repro import Machine, MachineConfig
from repro.errors import MemoryError_
from repro.isa.privilege import PrivilegeMode
from repro.mem.physmem import PAGE_SIZE
from tests.properties.test_prop_single_access import READ_ONLY_OFFSET, _Side

REFUSALS = 3


def _secure_pages_of(side) -> int | None:
    cvm = side.session.cvm
    if cvm is None:
        return None
    return len(side.machine.monitor.pool.pages_owned_by(cvm.cvm_id))


@pytest.mark.parametrize("method", ["store", "store_seq"])
@pytest.mark.parametrize("kind", ["cvm", "normal"])
def test_permission_fault_is_refused_without_allocating(kind, method):
    sides = (_Side(kind, trace_cache=True), _Side(kind, trace_cache=False))
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


def _first_touch_run(trace_cache: bool, observe: bool):
    """A normal VM first-touching ten pages through the three batched calls.

    Returns the machine, the observations and the addresses of the
    accesses that left the batched engine for the reference path.
    """
    machine = Machine(MachineConfig(trace_cache=trace_cache))
    session = machine.launch_normal_vm("observed" if observe else "unobserved")
    observed: list = []
    if observe:
        machine.fault_observer = lambda kind, stage, cycles: observed.append(
            (kind, stage, cycles)
        )
    detours = []
    reference = machine._reference_access

    def counted(*args):
        detours.append(args[1])
        return reference(*args)

    machine._reference_access = counted

    def workload(ctx):
        base = ctx.session.layout.dram_base + (40 << 20)
        ctx.store_seq(base, [1, 2, 3, 4], stride=PAGE_SIZE)
        loaded = ctx.load_seq(base + 4 * PAGE_SIZE, 4, stride=PAGE_SIZE)
        ctx.touch_seq([base + 8 * PAGE_SIZE, base + 9 * PAGE_SIZE + 5, base])
        return loaded, ctx.load_seq(base, 4, stride=PAGE_SIZE)

    result = machine.run(session, workload)["workload_result"]
    assert result == ([0, 0, 0, 0], [1, 2, 3, 4])
    assert session.normal_vm.fault_count == 10
    return machine, observed, detours


def _tlb_stats(machine) -> tuple:
    tlb = machine.translator.tlb
    return tlb.hits, tlb.misses, tlb.generation, tlb.flushes, tlb.page_flushes


def test_observer_does_not_change_the_normal_vm_fault_path():
    unobserved, none_seen, plain_detours = _first_touch_run(True, observe=False)
    observed, seen, observed_detours = _first_touch_run(True, observe=True)
    assert none_seen == []
    # Every fault was fixed in the engine, observer or not.
    assert plain_detours == observed_detours == []
    assert observed.ledger.by_category() == unobserved.ledger.by_category()
    assert _tlb_stats(observed) == _tlb_stats(unobserved)

    reference, reference_seen, _ = _first_touch_run(False, observe=True)
    assert len(seen) == 10
    assert all(kind == "kvm" and stage is None for kind, stage, _ in seen)
    assert seen == reference_seen
    assert observed.ledger.by_category() == reference.ledger.by_category()
    assert _tlb_stats(observed) == _tlb_stats(reference)
