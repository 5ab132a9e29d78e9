"""Wall-clock performance harness (``python -m repro perf``).

Measures how fast the *simulator itself* runs -- wall seconds and
simulated cycles per wall second -- over a fixed scenario suite that
exercises the guest memory pipeline end to end.  :data:`SCENARIOS`
defines each scenario once: its runner (whose docstring says what it
exercises), its quick and full kwargs and its own check.

The harness enforces the repository's one hard performance invariant:
**optimizations may change how fast Python executes the model, never what
the model charges**.  Every scenario's simulated cycle total is compared
against ``perf_goldens.json`` (recorded from the pre-optimization tree);
any deviation is a model change, not an optimization, and fails the run,
as does a failed scenario check.

Results land in ``BENCH_PERF.json`` -- wall seconds, simulated cycles and
cycles-per-wall-second per scenario -- which CI uploads as an artifact so
the wall-clock trajectory of the simulator is tracked over time.  See
docs/INTERNALS.md section 11 for how to read it.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import pathlib
import sys
import time
from typing import Callable

from repro.machine import Machine, MachineConfig

#: Golden simulated-cycle totals per scenario (recorded from the
#: pre-optimization tree; see module docstring).
GOLDEN_PATH = pathlib.Path(__file__).with_name("perf_goldens.json")

#: Committed quick-mode wall-clock baseline for the CI perf gate
#: (re-recorded with ``--quick --update-baseline`` when the expected
#: performance envelope legitimately moves).
BASELINE_PATH = pathlib.Path(__file__).with_name("perf_baseline_quick.json")

#: The perf gate fails when a scenario's median wall time regresses by
#: more than this fraction over the committed baseline.
GATE_THRESHOLD = 0.10

#: Pinned bytecode totals of the quick scenarios, per CPython minor
#: version (``{"3.11": {scenario: total}}``); see :func:`pinned_bytecodes`.
BYTECODE_PIN_PATH = pathlib.Path(__file__).with_name("bytecode_pin.json")

#: The bytecode pin fails when a scenario's total rises by more than this
#: fraction; decreases are reported, not failed.
BYTECODE_BOUND = 0.01

@dataclasses.dataclass(frozen=True)
class ScenarioRun:
    """One measured scenario: the wall/simulated-cycle pair."""

    name: str
    params: dict
    #: Wall-clock seconds of the timed section (workload only; machine
    #: construction and VM launch are setup, not pipeline).
    wall_seconds: float
    #: Simulated cycles charged during the timed section.
    cycles: int
    #: Ledger total at the end of the run (setup included) -- the
    #: golden-checked quantity, so launch-path drift is caught too.
    total_cycles: int
    #: Per-category breakdown of the whole run (category name -> cycles).
    breakdown: dict
    #: Scenario-specific figures merged into the report verbatim (e.g.
    #: the fleet scenario's migration count and downtime statistics).
    extra: dict = dataclasses.field(default_factory=dict)

    @property
    def cycles_per_wall_second(self) -> float:
        """Simulator throughput: simulated cycles per wall second."""
        return self.cycles / self.wall_seconds if self.wall_seconds else 0.0


def _breakdown(machines) -> dict:
    """Per-category cycles summed over ``machines`` (category name -> cycles)."""
    breakdown: dict = {}
    for machine in machines:
        for cat, cycles in machine.ledger.by_category().items():
            breakdown[cat.name] = breakdown.get(cat.name, 0) + cycles
    return breakdown


def _measure(name: str, params: dict, machine: Machine, timed,
             summarise=None) -> ScenarioRun:
    """Run ``timed()`` under the wall clock and package the result; the
    optional ``summarise(timed())`` becomes ``extra`` after the clock stops."""
    cycles_before = machine.ledger.total
    t0 = time.perf_counter()
    result = timed()
    wall = time.perf_counter() - t0
    return ScenarioRun(
        name=name,
        params=dict(params),
        wall_seconds=wall,
        cycles=machine.ledger.total - cycles_before,
        total_cycles=machine.ledger.total,
        breakdown=_breakdown((machine,)),
        extra=summarise(result) if summarise else {},
    )


def _summed_run(name: str, params: dict, wall: float, machines, extra: dict) -> ScenarioRun:
    """A multi-machine run: cycles and breakdown summed over whole ledgers."""
    total = sum(machine.ledger.total for machine in machines)
    return ScenarioRun(name=name, params=params, wall_seconds=wall, cycles=total,
                       total_cycles=total, breakdown=_breakdown(machines), extra=extra)


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def run_memstress(pages: int = 2000) -> ScenarioRun:
    """Sequential first-touch write sweep: one stage-2 fault per page."""
    from repro.workloads.memstress import sequential_write_stress

    machine = Machine(MachineConfig())
    session = machine.launch_confidential_vm(image=b"perf" * 100)
    workload = sequential_write_stress(pages)
    return _measure(
        "memstress", {"pages": pages}, machine,
        lambda: machine.run(session, workload),
    )


def run_pingpong(rounds: int = 64, message_size: int = 256) -> ScenarioRun:
    """Inter-CVM channel ping-pong (doorbell arm) under run_concurrent."""
    from repro.workloads.pingpong import pingpong_client, pingpong_server

    machine = Machine(MachineConfig())
    image = b"perf-ipc-guest" * 64
    server = machine.launch_confidential_vm(image=image)
    client = machine.launch_confidential_vm(image=image)
    box: dict = {}
    measurement = server.cvm.measurement
    pairs = [
        (server, pingpong_server(rounds=rounds,
                                 expected_peer_measurement=measurement,
                                 channel_box=box)),
        (client, pingpong_client(box, message_size=message_size, rounds=rounds,
                                 expected_creator_measurement=measurement)),
    ]
    return _measure(
        "pingpong", {"rounds": rounds, "message_size": message_size}, machine,
        lambda: machine.run_concurrent(pairs),
    )


def run_redis(requests: int = 400, op: str = "GET") -> ScenarioRun:
    """In-guest RESP server over virtio-net: the full CVM I/O path."""
    from repro.workloads.redis import redis_benchmark

    machine = Machine(MachineConfig())
    session = machine.launch_confidential_vm(image=b"redis" * 200)
    machine.attach_virtio_net(session)
    return _measure(
        "redis", {"requests": requests, "op": op}, machine,
        lambda: redis_benchmark(machine, session, op, requests),
    )


def run_redis_cluster(shards: int = 4, clients: int = 4, requests: int = 64,
                      pipeline: int = 8) -> ScenarioRun:
    """Sharded redis over SM channels: router + N shards, pipelined.

    ``extra`` carries the cluster's summary (latency percentiles in
    cycles, client errors, shard balance, doorbells, MGET splits),
    worked out from the run's results after the clock stops.
    """
    from repro.bench.redis_cluster import build_cluster, summarise_cluster

    machine, pairs, sessions = build_cluster(
        shards, clients, requests, pipeline
    )
    params = {
        "shards": shards, "clients": clients,
        "requests": requests, "pipeline": pipeline,
    }
    setup_total = machine.ledger.total

    def summarise(results):
        summary = summarise_cluster(machine, sessions, results, setup_total)
        return {key: summary[key] for key in (
            "p50_latency_cycles", "p99_latency_cycles", "errors",
            "shard_balance", "doorbells", "mget_splits",
        )}

    return _measure(
        "redis_cluster", params, machine,
        lambda: machine.run_concurrent(pairs, wake_priority=True),
        summarise,
    )


def _virtio_ablation(name: str, params: dict, naive_arm, batched_arm) -> ScenarioRun:
    """Package a naive-vs-batched virtio pair as one scenario.

    Both arms run identical payload work; cycles and breakdowns are
    summed over the two machines (:func:`_summed_run`), and the per-arm
    exit/kick/interrupt statistics plus their reduction ratios ride in
    :attr:`ScenarioRun.extra` -- the acceptance figure for the batched
    data plane is ``mmio_exit_reduction >= 2``.
    """
    t0 = time.perf_counter()
    naive_machine, naive = naive_arm()
    batched_machine, batched = batched_arm()
    wall = time.perf_counter() - t0

    def reduction(key: str, digits: int = 2) -> float:
        return round(naive[key] / batched[key], digits) if batched[key] else 0.0

    return _summed_run(name, params, wall, (naive_machine, batched_machine), {
        "naive": naive,
        "batched": batched,
        "mmio_exit_reduction": reduction("mmio_exits"),
        "kick_reduction": reduction("kicks"),
        "irq_reduction": reduction("irqs_raised"),
        "cycle_reduction": reduction("cycles", 3),
    })


def _virtio_arm_stats(machine: Machine, device) -> dict:
    return {
        "kicks": device.kicks,
        "irqs_raised": device.irqs_raised,
        "completions": device.completions,
        "mmio_exits": machine.hypervisor.mmio_exits,
        "cycles": machine.ledger.total,
    }


def run_iozone(file_mb: int = 4, record_kb: int = 64, queue_depth: int = 8) -> ScenarioRun:
    """Batched-vs-naive virtio-blk ablation on the IOZone streaming path.

    A deliberately small (1 MB) page cache forces writeback/readahead to
    stream every byte through virtio-blk.  The naive arm submits one
    request per kick with per-descriptor interrupts (``event_idx=False``,
    depth 1 -- the pre-batching data plane); the batched arm stages
    ``queue_depth`` requests per doorbell with interrupt suppression.
    Identical file/record work on both arms, so every exit saved is the
    batching's doing.
    """
    from repro.workloads.iozone import iozone_workload

    cache_bytes = 1 << 20
    file_bytes = file_mb << 20
    record_bytes = record_kb << 10

    def arm(depth: int, event_idx: bool):
        machine = Machine(MachineConfig())
        session = machine.launch_confidential_vm(image=b"iozone" * 100)
        machine.attach_virtio_block(session, event_idx=event_idx)
        machine.run(
            session,
            iozone_workload(file_bytes, record_bytes, cache_bytes,
                            queue_depth=depth),
        )
        return machine, _virtio_arm_stats(machine, session.virtio_blk)

    return _virtio_ablation(
        "iozone",
        {"file_mb": file_mb, "record_kb": record_kb, "queue_depth": queue_depth},
        lambda: arm(1, False),
        lambda: arm(queue_depth, True),
    )


def run_redis_batch(requests: int = 200, pipeline: int = 8, op: str = "GET") -> ScenarioRun:
    """Batched-vs-naive virtio-net ablation on the redis request path.

    Same request count and operation on both arms.  The naive arm runs
    unpipelined with per-descriptor interrupts (one TX kick and one IRQ
    per reply); the batched arm pipelines ``pipeline`` requests per
    wake-up, so the server's reply batch rides one kick and one
    suppressed-interrupt drain.
    """
    from repro.workloads.redis import redis_benchmark

    def arm(pl: int, event_idx: bool):
        machine = Machine(MachineConfig())
        session = machine.launch_confidential_vm(image=b"redis" * 200)
        machine.attach_virtio_net(session, event_idx=event_idx)
        redis_benchmark(machine, session, op, requests, pipeline=pl)
        return machine, _virtio_arm_stats(machine, session.virtio_net)

    return _virtio_ablation(
        "redis_batch",
        {"requests": requests, "pipeline": pipeline, "op": op},
        lambda: arm(1, False),
        lambda: arm(pipeline, True),
    )


def run_switch_path(iterations: int = 400) -> ScenarioRun:
    """Tight short-path world-switch loop (timer exits, E2's shape)."""
    machine = Machine(MachineConfig())
    session = machine.launch_confidential_vm(image=b"bench" * 100)
    cvm, vcpu = session.cvm, session.cvm.vcpu(0)
    ws = machine.monitor.world_switch
    exit_info = {"kind": "timer", "cause": 7}

    def timed():
        ws.enter_cvm(machine.hart, cvm, vcpu)
        for _ in range(iterations):
            ws.exit_to_normal(machine.hart, cvm, vcpu, dict(exit_info))
            ws.enter_cvm(machine.hart, cvm, vcpu)
        ws.exit_to_normal(machine.hart, cvm, vcpu, {"kind": "halt", "cause": 0})

    return _measure("switch_path", {"iterations": iterations}, machine, timed)


def run_fleet(hosts: int = 3, cvms: int = 8, epochs: int = 5,
              migration_rate: int = 3) -> ScenarioRun:
    """Multi-host fleet rebalancing loop (clean run, no fault injection).

    Cycles are summed over every host's independent ledger, and the
    fleet's own figures (migration count, per-migration downtime,
    serving-throughput dip) ride along in :attr:`ScenarioRun.extra` so
    ``BENCH_PERF.json`` carries the paper's migration-cost story next to
    the wall-clock one.
    """
    from repro.fleet import FleetConfig, FleetOrchestrator

    config = FleetConfig(hosts=hosts, cvms=cvms, epochs=epochs,
                         migration_rate=migration_rate, seed=0, seams=None)
    orchestrator = FleetOrchestrator(config)
    t0 = time.perf_counter()
    result = orchestrator.run()
    wall = time.perf_counter() - t0
    params = {"hosts": hosts, "cvms": cvms, "epochs": epochs,
              "migration_rate": migration_rate}
    machines = [host.machine for host in orchestrator.hosts]
    return _summed_run("fleet", params, wall, machines, {
        "migrations": result.migrations,
        "downtime_mean_cycles": round(result.downtime_mean, 1),
        "downtime_max_cycles": result.downtime_max,
        "throughput_dip_pct": round(result.throughput_dip_pct, 2),
    })


def _cuts_mmio_exits_2x(run: ScenarioRun) -> list:
    reduction = run.extra["mmio_exit_reduction"]
    return [] if reduction >= 2 else [f"{run.name}: MMIO-exit reduction {reduction:.2f}x < 2x"]


def _no_check(run: ScenarioRun) -> list:
    """The check of a scenario without one: always passes."""
    return []


def _no_client_errors(run: ScenarioRun) -> list:
    errors = run.extra["errors"]
    return [f"{run.name}: {errors} client errors"] if errors else []


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One suite scenario: its runner at both scales, and its own check."""

    name: str
    #: Runner kwargs at quick scale (CI smoke: same code paths, less work).
    quick: dict
    #: Runner kwargs at full scale (the documented profiles).
    full: dict
    run: Callable[..., ScenarioRun]
    #: ScenarioRun -> problem strings (empty == pass), enforced by every
    #: ``perf`` run beside the golden check.
    check: Callable[[ScenarioRun], list] = _no_check


SCENARIOS = {scenario.name: scenario for scenario in (
    Scenario("memstress", {"pages": 400}, {"pages": 2000}, run_memstress),
    Scenario("pingpong", {"rounds": 16, "message_size": 256},
             {"rounds": 64, "message_size": 256}, run_pingpong),
    Scenario("redis", {"requests": 100, "op": "GET"},
             {"requests": 400, "op": "GET"}, run_redis),
    Scenario("redis_cluster",
             {"shards": 2, "clients": 2, "requests": 16, "pipeline": 4},
             {"shards": 4, "clients": 4, "requests": 64, "pipeline": 8},
             run_redis_cluster, _no_client_errors),
    Scenario("switch_path", {"iterations": 100}, {"iterations": 400},
             run_switch_path),
    Scenario("fleet", {"hosts": 2, "cvms": 4, "epochs": 3, "migration_rate": 2},
             {"hosts": 3, "cvms": 8, "epochs": 5, "migration_rate": 3}, run_fleet),
    Scenario("iozone", {"file_mb": 2, "record_kb": 64, "queue_depth": 8},
             {"file_mb": 4, "record_kb": 64, "queue_depth": 8},
             run_iozone, _cuts_mmio_exits_2x),
    Scenario("redis_batch", {"requests": 64, "pipeline": 8, "op": "GET"},
             {"requests": 200, "pipeline": 8, "op": "GET"},
             run_redis_batch, _cuts_mmio_exits_2x),
)}


# ---------------------------------------------------------------------------
# Suite driver / report / golden check
# ---------------------------------------------------------------------------


def run_suite(quick: bool = False, only=None) -> list:
    """Run the scenario suite; returns a list of :class:`ScenarioRun`."""
    return [
        scenario.run(**(scenario.quick if quick else scenario.full))
        for scenario in SCENARIOS.values()
        if only is None or scenario.name in only
    ]


def check_scenarios(runs) -> list:
    """Each run's own scenario check; problem strings (empty == pass)."""
    return [problem for run in runs for problem in SCENARIOS[run.name].check(run)]


#: ``src/repro/`` as this module's code objects name it, so a frame's
#: file maps to its top-level package (``mem``, ``sm``, ...) or module
#: (``machine.py``).
_REPRO_ROOT = os.path.dirname(os.path.dirname(__file__)) + os.sep


def _package_of(filename: str) -> str:
    """The top-level ``repro`` package or module of a code file, else ``other``."""
    if filename.startswith(_REPRO_ROOT):
        return filename[len(_REPRO_ROOT):].split(os.sep, 1)[0]
    return "other"


def _ask_for_opcodes(frame, event, arg) -> None:
    """A tracer that turns on a frame's opcode events and counts nothing."""
    frame.f_trace_opcodes = True


def _count_opcodes(fn) -> dict:
    """Run ``fn()`` and count the bytecodes it executed, per package.

    A ``sys.settrace`` tracer turns on opcode events (and off line events)
    in every frame and adds one per opcode to the counter of the frame's
    package (:func:`_package_of`).  The cycle collector does not run
    automatically during the count, so no finalizer runs at an
    allocation-dependent point.  Returns ``{package: opcodes}`` in name
    order.
    """
    counts: dict = {}
    tracers: dict = {}  # package -> its frames' local tracer
    by_code: dict = {}  # code object -> local tracer

    def tracer_for(package: str):
        cell = counts[package] = [0]

        def local(frame, event, arg):
            if event == "opcode":
                cell[0] += 1
            return local

        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        local = by_code.get(code)
        if local is None:
            package = _package_of(code.co_filename)
            local = tracers.get(package)
            if local is None:
                local = tracers[package] = tracer_for(package)
            by_code[code] = local
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    thresholds = gc.get_threshold()
    gc.collect()
    gc.set_threshold(0)  # no automatic collection
    # CPython 3.12 delivers no opcode events in a process's first tracing
    # session that asks for them; spend such a session on an empty call.
    sys.settrace(_ask_for_opcodes)
    (lambda: None)()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
        gc.set_threshold(*thresholds)
    return {package: counts[package][0] for package in sorted(counts)}


def count_bytecodes(only=None) -> dict:
    """Bytecodes each quick-scale scenario executes, in total and per package.

    A deterministic measure of host work: unlike wall time it does not
    move with the machine's load, and it repeats exactly from run to run
    and across hash seeds.  It does not weigh C calls (a ``hashlib``
    digest or a ``sorted`` counts as the one opcode that calls it), so
    wall-time pairs remain the evidence for a host-speed claim.  Each
    scenario first runs once untraced, so imports and first-use set-up
    are not counted.  Returns ``{scenario: {"total", "by_package"}}``.
    """
    counts = {}
    for scenario in SCENARIOS.values():
        if only is not None and scenario.name not in only:
            continue
        scenario.run(**scenario.quick)
        by_package = _count_opcodes(lambda: scenario.run(**scenario.quick))
        counts[scenario.name] = {"total": sum(by_package.values()), "by_package": by_package}
    return counts


def pinned_bytecodes(bytecodes: dict) -> dict:
    """Each scenario's pinned total: its bytecodes outside ``other``.

    The ``other`` bucket is the standard library's share, which a patch
    release of the interpreter may move; the ``repro`` packages' own
    bytecode is the same on every patch release of one minor version.
    """
    return {
        name: counted["total"] - counted["by_package"].get("other", 0)
        for name, counted in bytecodes.items()
    }


def python_minor() -> str:
    """The running interpreter's ``major.minor``, the bytecode pin's key."""
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def load_bytecode_pin(path=BYTECODE_PIN_PATH) -> dict:
    """This interpreter's pinned totals ({scenario: total}); empty if none."""
    return json.loads(pathlib.Path(path).read_text()).get(python_minor(), {})


def check_bytecodes(bytecodes: dict, pin: dict) -> tuple:
    """Compare counted bytecodes with ``pin``: ``(rises, decreases)``.

    ``rises`` lists each scenario whose pinned total exceeds its pin by
    more than :data:`BYTECODE_BOUND`, or has no pin; ``decreases`` lists
    each one that fell below its pin.  Both are human-readable strings.
    """
    rises, decreases = [], []
    for name, total in pinned_bytecodes(bytecodes).items():
        want = pin.get(name)
        if want is None:
            rises.append(f"{name}: no bytecode pin recorded for Python {python_minor()}")
        elif total > want * (1 + BYTECODE_BOUND):
            rises.append(
                f"{name}: {total:,} bytecodes, {total / want - 1:+.2%} over the pin "
                f"{want:,} (bound {BYTECODE_BOUND:.0%})"
            )
        elif total < want:
            decreases.append(f"{name}: {total:,} bytecodes, {total / want - 1:+.2%} "
                             f"under the pin {want:,}")
    return rises, decreases


def update_bytecode_pin(bytecodes: dict, path=BYTECODE_PIN_PATH) -> dict:
    """Record the counted totals as this interpreter's bytecode pin."""
    try:
        pins = json.loads(pathlib.Path(path).read_text())
    except FileNotFoundError:
        pins = {}
    pins.setdefault(python_minor(), {}).update(pinned_bytecodes(bytecodes))
    pathlib.Path(path).write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return pins


def build_report(runs, quick: bool, bytecodes: dict | None = None) -> dict:
    """The ``BENCH_PERF.json`` structure.

    ``bytecodes`` (from :func:`count_bytecodes`, always quick scale) is
    reported under its own key when given.
    """
    report = {
        "schema": 1,
        "mode": "quick" if quick else "full",
        "scenarios": {
            run.name: {
                "params": run.params,
                "wall_seconds": round(run.wall_seconds, 6),
                "cycles": run.cycles,
                "total_cycles": run.total_cycles,
                "cycles_per_wall_second": round(run.cycles_per_wall_second, 1),
                "breakdown": run.breakdown,
                **run.extra,
            }
            for run in runs
        },
    }
    if bytecodes is not None:
        report["bytecodes"] = {"scale": "quick", "scenarios": bytecodes}
    return report


def write_report(report: dict, path) -> None:
    """Write the report as pretty-printed JSON to ``path``."""
    pathlib.Path(path).write_text(json.dumps(report, indent=2) + "\n")


def load_goldens(path=GOLDEN_PATH) -> dict:
    """The committed golden cycle totals ({mode: {scenario: total}})."""
    return json.loads(pathlib.Path(path).read_text())


def check_goldens(runs, quick: bool, goldens: dict | None = None) -> list:
    """Compare each run's cycle total to the golden file.

    Returns a list of human-readable mismatch strings (empty == pass).
    A scenario absent from the golden file is a mismatch too: goldens are
    recorded deliberately (``--update-goldens``), never implied.
    """
    if goldens is None:
        goldens = load_goldens()
    mode = "quick" if quick else "full"
    expected = goldens.get(mode, {})
    problems = []
    for run in runs:
        want = expected.get(run.name)
        if want is None:
            problems.append(f"{run.name}: no {mode}-mode golden recorded")
        elif want != run.total_cycles:
            problems.append(
                f"{run.name}: simulated cycle total {run.total_cycles} != "
                f"golden {want} (drift {run.total_cycles - want:+d}); the "
                "model changed -- update perf_goldens.json only if that is "
                "intentional"
            )
    return problems


def median_runs(all_runs) -> list:
    """Collapse repeated suite executions to one run per scenario.

    Picks, independently per scenario, the run with the median wall time
    across the repeats -- the robust center the CI gate compares, immune
    to a single noisy neighbour on the runner.  Cycle totals are
    identical across repeats (the model is deterministic), so medianing
    only ever selects between equal-cycle measurements.
    """
    by_name: dict = {}
    order: list = []
    for runs in all_runs:
        for run in runs:
            if run.name not in by_name:
                order.append(run.name)
            by_name.setdefault(run.name, []).append(run)
    chosen = []
    for name in order:
        candidates = sorted(by_name[name], key=lambda run: run.wall_seconds)
        chosen.append(candidates[len(candidates) // 2])
    return chosen


def compare_reports(previous: dict, current: dict) -> list:
    """Per-scenario wall/cycle deltas between two ``BENCH_PERF`` reports.

    Returns rows of ``(name, prev_wall, cur_wall, prev_cycles,
    cur_cycles)`` in the current report's scenario order; a scenario
    missing from the previous report carries ``None`` for its prev
    fields.  Callers decide presentation (the CLI prints a delta table).
    """
    prev = previous.get("scenarios", {})
    rows = []
    for name, cur in current.get("scenarios", {}).items():
        old = prev.get(name)
        rows.append((
            name,
            old["wall_seconds"] if old else None,
            cur["wall_seconds"],
            old["total_cycles"] if old else None,
            cur["total_cycles"],
        ))
    return rows


def check_gate(runs, baseline: dict, threshold: float = GATE_THRESHOLD) -> list:
    """Wall-clock regression gate against a committed baseline report.

    Returns human-readable failure strings (empty == pass): a scenario
    regressing more than ``threshold`` over its baseline wall time, or
    one with no baseline at all (baselines are recorded deliberately,
    like goldens).  Faster-than-baseline runs pass silently -- the gate
    is one-sided; improvements land by re-recording the baseline.
    """
    scenarios = baseline.get("scenarios", {})
    problems = []
    for run in runs:
        base = scenarios.get(run.name)
        if base is None:
            problems.append(f"{run.name}: no baseline wall time recorded")
            continue
        limit = base["wall_seconds"] * (1.0 + threshold)
        if run.wall_seconds > limit:
            problems.append(
                f"{run.name}: wall {run.wall_seconds:.3f}s exceeds baseline "
                f"{base['wall_seconds']:.3f}s by more than {threshold:.0%} "
                f"(limit {limit:.3f}s)"
            )
    return problems


def update_goldens(runs, quick: bool, path=GOLDEN_PATH) -> dict:
    """Record the runs' cycle totals as the new goldens for this mode."""
    try:
        goldens = load_goldens(path)
    except FileNotFoundError:
        goldens = {}
    mode = "quick" if quick else "full"
    goldens.setdefault(mode, {})
    for run in runs:
        goldens[mode][run.name] = run.total_cycles
    pathlib.Path(path).write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    return goldens
