"""Ablation runners for ZION's design choices (DESIGN.md section 7).

Each ablation flips one design decision and measures what the paper's
corresponding mechanism buys:

- **secure-block size** (default 256 KB): larger blocks amortise stage-2
  refills over more stage-1 hits but waste memory per vCPU;
- **page cache** (stage 1): disabling it (1-page blocks) sends every
  fault through the block list;
- **shared-window premapping**: demand-faulting the shared region turns
  first-touch I/O setup into extra world switches;
- **TLB-flush policy**: the world-switch ``hfence`` is the dominant term
  of CPU-bound overhead; this quantifies its contribution.
"""

from __future__ import annotations

import dataclasses
import statistics

from repro import Machine, MachineConfig
from repro.bench.microbench import fault_events
from repro.cycles import DEFAULT_COSTS
from repro.sm.alloc import AllocStage
from repro.trace import Tracer
from repro.workloads.memstress import sequential_write_stress


def run_block_size_ablation(block_sizes=(64 << 10, 256 << 10, 1 << 20), pages: int = 512) -> dict:
    """Average CVM fault cost and stage mix per secure-block size."""
    rows = {}
    for block_size in block_sizes:
        machine = Machine(MachineConfig(secure_block_size=block_size))
        tracer = Tracer(machine)
        session = machine.launch_confidential_vm(image=b"abl" * 100)
        machine.run(session, sequential_write_stress(pages))
        faults = fault_events(tracer)
        all_faults = [event.detail["cycles"] for event in faults]
        stages = [event.detail["stage"] for event in faults]
        rows[block_size] = {
            "avg_fault_cycles": statistics.mean(all_faults),
            "stage1_share_pct": 100.0 * stages.count(AllocStage.PAGE_CACHE.name) / len(all_faults),
            "stage2_count": stages.count(AllocStage.NEW_BLOCK.name),
            "pool_bytes_held": sum(
                block.size
                for block in machine.monitor._allocators[session.cvm.cvm_id].blocks
            ),
        }
    return rows


def run_page_cache_ablation(pages: int = 256) -> dict:
    """With vs. without the per-vCPU page cache (allocator ablation).

    Without it, every fault takes the global pool list under its lock --
    the contention-and-walk cost stage 1 exists to avoid (paper IV-D).
    """
    rows = {}
    for label, use_cache in (("with_cache", True), ("no_cache", False)):
        machine = Machine(MachineConfig(use_page_cache=use_cache))
        tracer = Tracer(machine)
        session = machine.launch_confidential_vm(image=b"abl" * 100)
        machine.run(session, sequential_write_stress(pages))
        rows[label] = statistics.mean(event.detail["cycles"] for event in fault_events(tracer))
    rows["cache_benefit_pct"] = 100.0 * (rows["no_cache"] - rows["with_cache"]) / rows["no_cache"]
    return rows


def run_shared_premap_ablation(io_requests: int = 32) -> dict:
    """Premapped vs. demand-faulted shared window under virtio traffic."""
    rows = {}
    for label, window in (("premapped", 4 << 20), ("demand_faulted", None)):
        machine = Machine(MachineConfig())
        kwargs = {} if window is None else {"shared_window": window}
        if window is None:
            # Minimal window: just the virtqueue rings + first slots.
            kwargs = {"shared_window": 64 << 10}
        session = machine.launch_confidential_vm(image=b"abl" * 100, **kwargs)
        machine.attach_virtio_block(session)

        def workload(ctx):
            blk = ctx.blk_driver()
            for i in range(io_requests):
                blk.write(i * 64, 16 << 10)

        exits_before = session.cvm.exit_count
        result = machine.run(session, workload)
        rows[label] = {
            "cycles": result["cycles"],
            "cvm_exits": session.cvm.exit_count - exits_before,
        }
    return rows


def run_tlb_flush_ablation(compute_cycles: int = 20_000_000) -> dict:
    """World-switch hfence cost: default vs. a hypothetical free flush.

    Quantifies how much of the CPU-bound overhead the conservative
    PMP-toggle flush policy accounts for (both the flush instruction and
    the guest's TLB re-walks afterward are included by construction).
    """
    from repro.hyp.devices import ConsoleDevice
    from repro.workloads.cpu import CONSOLE_GPA, cpu_bound_workload
    from repro.workloads.profiles import RV8_PROFILES

    profile = RV8_PROFILES["aes"]
    rows = {}
    for label, costs in (
        ("default", DEFAULT_COSTS),
        ("free_hfence", dataclasses.replace(DEFAULT_COSTS, tlb_flush_gvma=0)),
    ):
        cycles = {}
        for kind in ("normal", "cvm"):
            machine = Machine(MachineConfig(costs=costs))
            machine.hypervisor.devices.add(ConsoleDevice(CONSOLE_GPA))
            if kind == "cvm":
                session = machine.launch_confidential_vm(image=b"abl" * 100)
            else:
                session = machine.launch_normal_vm()
            result = machine.run(session, cpu_bound_workload(profile, compute_cycles))
            cycles[kind] = result["workload_result"]["cycles"]
        rows[label] = 100.0 * (cycles["cvm"] - cycles["normal"]) / cycles["normal"]
    return rows
