"""Macrobenchmark runners: E4 (RV8), E5 (CoreMark), E6 (Redis), E7 (IOZone).

Every runner executes the identical guest workload on a normal VM and a
confidential VM of the same machine configuration and reports the
emergent overhead.  CPU-bound runs are scaled down from the paper's
multi-billion-cycle runtimes (``scale``): overhead percentages are
scale-invariant because the timer-tick period -- the per-switch cost
driver -- stays at its real value.
"""

from __future__ import annotations

from repro import Machine, MachineConfig
from repro.bench import paper_data
from repro.hyp.devices import ConsoleDevice
from repro.workloads.coremark import coremark_workload, score_from
from repro.workloads.cpu import CONSOLE_GPA, cpu_bound_workload
from repro.workloads.iozone import iozone_run
from repro.workloads.profiles import RV8_PROFILES
from repro.workloads.redis import redis_benchmark

#: Default scale-down of paper runtimes for the CPU-bound suites.
DEFAULT_SCALE = 0.02


def _machine_with_console() -> Machine:
    machine = Machine(MachineConfig())
    machine.hypervisor.devices.add(ConsoleDevice(CONSOLE_GPA))
    return machine


def _run_cpu_pair(workload_factory) -> dict:
    """Run one CPU-bound workload on a normal and a confidential VM.

    Compares the workloads' steady-state cycle counts (post-warm-up, as
    the workload reports them) -- the scale-invariant view of the paper's
    full-length runs.
    """
    machine = _machine_with_console()
    normal = machine.run(machine.launch_normal_vm(), workload_factory())

    machine = _machine_with_console()
    session = machine.launch_confidential_vm(image=b"rv8" * 400)
    confidential = machine.run(session, workload_factory())

    normal_cycles = normal["workload_result"]["cycles"]
    cvm_cycles = confidential["workload_result"]["cycles"]
    overhead = 100.0 * (cvm_cycles - normal_cycles) / normal_cycles
    return {
        "normal_cycles": normal_cycles,
        "cvm_cycles": cvm_cycles,
        "overhead_pct": overhead,
    }


def run_rv8_experiment(scale: float = DEFAULT_SCALE, benchmarks=None) -> dict:
    """E4 / Table I: the RV8 suite, normal vs confidential."""
    names = benchmarks if benchmarks is not None else list(RV8_PROFILES)
    rows = {}
    for name in names:
        profile = RV8_PROFILES[name]
        target = int(profile.total_cycles * scale)
        pair = _run_cpu_pair(lambda p=profile, t=target: cpu_bound_workload(p, t))
        paper = paper_data.RV8_TABLE_I[name]
        rows[name] = {
            **pair,
            # Extrapolate to the paper's scale for the Table I columns.
            "normal_1e9_extrapolated": paper["normal_1e9"],
            "cvm_1e9_extrapolated": paper["normal_1e9"] * (1 + pair["overhead_pct"] / 100),
            "paper_overhead_pct": paper["overhead_pct"],
        }
    overheads = [row["overhead_pct"] for row in rows.values()]
    return {
        "benchmarks": rows,
        "average_overhead_pct": sum(overheads) / len(overheads),
        "scale": scale,
    }


def run_coremark_experiment(iterations: int = 2_000) -> dict:
    """E5: CoreMark score on both VM kinds."""
    results = {}
    for kind in ("normal", "cvm"):
        machine = _machine_with_console()
        if kind == "cvm":
            session = machine.launch_confidential_vm(image=b"coremark" * 100)
        else:
            session = machine.launch_normal_vm()
        run = machine.run(session, coremark_workload(iterations))
        results[kind] = score_from(run["workload_result"], machine.config.clock_hz)
    drop = 100.0 * (results["normal"] - results["cvm"]) / results["normal"]
    return {
        "normal_score": results["normal"],
        "cvm_score": results["cvm"],
        "overhead_pct": drop,
        "iterations": iterations,
    }


def run_redis_experiment(ops=None, requests: int = 500) -> dict:
    """E6 / Fig. 3: redis-benchmark throughput and latency per op type.

    The paper runs 10 rounds of 10,000 requests.  The model is
    deterministic, so one round on one normal-VM and one CVM machine per
    op is the whole sample; ``requests`` defaults far below 10,000 (the
    per-op deltas converge within a few hundred requests).
    """
    op_names = ops if ops is not None else paper_data.REDIS["ops"]
    rows = {}
    for op in op_names:
        sample = {}
        for kind in ("normal", "cvm"):
            machine = Machine(MachineConfig())
            if kind == "cvm":
                session = machine.launch_confidential_vm(image=b"redis" * 200)
            else:
                session = machine.launch_normal_vm()
            machine.attach_virtio_net(session)
            sample[kind] = redis_benchmark(machine, session, op, requests)

        normal_rps = sample["normal"]["throughput_rps"]
        cvm_rps = sample["cvm"]["throughput_rps"]
        normal_lat = sample["normal"]["avg_latency_us"]
        cvm_lat = sample["cvm"]["avg_latency_us"]
        rows[op] = {
            "normal_throughput_rps": normal_rps,
            "cvm_throughput_rps": cvm_rps,
            "throughput_drop_pct": 100.0 * (normal_rps - cvm_rps) / normal_rps,
            "normal_latency_us": normal_lat,
            "cvm_latency_us": cvm_lat,
            "latency_increase_pct": 100.0 * (cvm_lat - normal_lat) / normal_lat,
        }
    drops = [row["throughput_drop_pct"] for row in rows.values()]
    lats = [row["latency_increase_pct"] for row in rows.values()]
    return {
        "ops": rows,
        "avg_throughput_drop_pct": sum(drops) / len(drops),
        "avg_latency_increase_pct": sum(lats) / len(lats),
        "requests": requests,
    }


def run_iozone_experiment(file_sizes=None, record_sizes=None, size_scale: int = 4) -> dict:
    """E7 / Fig. 4: sequential write/read throughput across the size grid.

    ``size_scale`` divides both the file sizes and the guest page cache
    before simulation: the streamed fraction (file - cache) / file -- the
    quantity the confidential VM's overhead tracks -- is invariant under
    joint scaling, and per-byte/per-record costs are unscaled, so the
    reported throughputs match an unscaled run at a quarter of the
    simulation cost.  Pass ``size_scale=1`` for the full-size grid.
    """
    from repro.workloads.iozone import DEFAULT_CACHE_BYTES

    files = file_sizes if file_sizes is not None else paper_data.IOZONE["file_sizes"]
    records = record_sizes if record_sizes is not None else paper_data.IOZONE["record_sizes"]
    cells = []
    for record_bytes in records:
        for file_bytes in files:
            if record_bytes > file_bytes // size_scale:
                continue
            cell = {"file_bytes": file_bytes, "record_bytes": record_bytes}
            results = {}
            for kind in ("normal", "cvm"):
                machine = Machine(MachineConfig())
                if kind == "cvm":
                    session = machine.launch_confidential_vm(image=b"iozone" * 100)
                else:
                    session = machine.launch_normal_vm()
                machine.attach_virtio_block(session)
                results[kind] = iozone_run(
                    machine, session, file_bytes // size_scale, record_bytes,
                    cache_bytes=DEFAULT_CACHE_BYTES // size_scale,
                )
                clock = machine.config.clock_hz
            for op in ("write", "read"):
                normal_tp = results["normal"].throughput_kb_s(op, clock)
                cvm_tp = results["cvm"].throughput_kb_s(op, clock)
                cell[f"{op}_normal_kb_s"] = normal_tp
                cell[f"{op}_cvm_kb_s"] = cvm_tp
                cell[f"{op}_overhead_pct"] = 100.0 * (normal_tp - cvm_tp) / normal_tp
            cells.append(cell)
    return {"cells": cells, "size_scale": size_scale}
