"""Post-condition checks the injector re-asserts after every fault.

Builds on :func:`repro.verify.check_invariants` (the DESIGN section 6
sweep: PMP coverage, stage-2 disjointness, pool ownership, scrub state,
metadata never guest-mapped) and adds the two properties the channel and
hypervisor layers introduced:

- **channel-frame ownership**: every page of a live channel's window is
  owned by that channel's token (``chan:<id>``), so no CVM- or SM-owned
  path can hand the frames out while endpoints may still touch them;
- **no secure PTE under hypervisor roots**: a walk of every normal VM's
  stage-2 tree must never resolve into the secure pool -- the
  hypervisor-visible address space stays disjoint from CVM memory no
  matter what was corrupted mid-run.
"""

from __future__ import annotations

from repro.mem.pagetable import Sv39x4
from repro.mem.physmem import PAGE_SIZE
from repro.sm.channel import ChannelState
from repro.verify import check_invariants


def _check_channel_ownership(machine) -> list:
    violations = []
    pool = machine.monitor.pool
    manager = machine.monitor.channels
    for channel in manager.channels.values():
        if channel.state is ChannelState.CLOSED:
            continue
        token = manager.owner_token(channel.channel_id)
        for offset in range(0, channel.window_size, PAGE_SIZE):
            page = channel.window_pa + offset
            owner = pool.owner_of(page)
            if owner != token:
                violations.append(
                    f"C1: channel {channel.channel_id} window page "
                    f"{page:#x} owned by {owner!r}, expected {token!r}"
                )
    return violations


def _check_hypervisor_roots(machine) -> list:
    # A leaf is checked across its whole span: a superpage whose first
    # byte lies below the pool can still reach into it.
    violations = []
    regions = machine.monitor.pool.regions
    walker = Sv39x4()
    dram = machine.dram  # raw M-mode view of the tables
    for vm in machine.hypervisor.normal_vms:
        if vm.hgatp_root is None:
            continue
        for gpa, pa, _flags, _level in walker.leaves_overlapping(
            dram, vm.hgatp_root, regions
        ):
            violations.append(
                f"H1: normal VM {vm.name!r} maps GPA {gpa:#x} to "
                f"secure pool PA {pa:#x}"
            )
    return violations


def check_postconditions(machine) -> list:
    """Full post-fault sweep; returns a list of violation strings."""
    violations = list(check_invariants(machine))
    violations.extend(_check_channel_ownership(machine))
    violations.extend(_check_hypervisor_roots(machine))
    return violations
