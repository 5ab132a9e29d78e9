"""The four zbench workloads, driven through the simulator's public API.

Each workload runs in *rounds*.  A round builds fresh machines (set-up),
runs an untimed warm-up slice of the same seeded traffic, then a timed
section, and returns a :class:`RoundResult`.  Simulated numbers describe
the confidential-VM arm; a normal-VM arm, where there is one, replays
the identical inputs so the two can be compared.  Every answer the
simulator gives is checked from outside it, and every check lands in
the caller's :class:`Checker`.

Why these four (see README.md for the paper reference values):

- ``kv_virtio``: Fig. 3's shape; nearly all host work is hypervisor,
  guest and world switches (no page faults, no channels).
- ``kv_cluster``: KV traffic over SM channels instead of a device;
  nearly all work is rings, doorbell ECALLs and scheduler park/wake.
- ``mem_churn``: E3's shape; stage-2 faults through all three allocation
  stages plus strided reads that both hit and miss the trace cache.
- ``fleet_migrate``: live migration, attestation and invariant sweeps;
  set-up heavy, so work moved into set-up shows.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import random
import time

from repro.bench import paper_data
from repro.fleet import FleetConfig, FleetOrchestrator
from repro.machine import Machine, MachineConfig
from repro.mem.physmem import PAGE_SIZE
from repro.sm.alloc import AllocStage
from repro.workloads.redis import (
    REDIS_OPS,
    OpSpec,
    RedisBenchmarkClient,
    RedisServer,
    redis_server_workload,
)
from repro.workloads.redis_cluster import (
    LoadGenerator,
    SlotMap,
    cluster_client,
    cluster_router,
    shard_server,
)

#: Simulated clock (the paper's 100 MHz Rocket cores).
CLOCK_HZ = MachineConfig().clock_hz


class Checker:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {attempted} failed")


class RoundClock:
    """Splits one round's host time into set-up and timed sections.

    ``setup()`` / ``begin()`` / ``end()`` switch between set-up, timed
    and idle (teardown, not counted); the tracer, when there is one,
    follows the same phases.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.setup_s = 0.0
        self.timed_s = 0.0
        self._mode = "setup"
        self._since = time.perf_counter()
        if tracer is not None:
            tracer.mark("setup")

    def _switch(self, mode: str) -> None:
        now = time.perf_counter()
        if self._mode == "setup":
            self.setup_s += now - self._since
        elif self._mode == "timed":
            self.timed_s += now - self._since
        self._mode = mode
        self._since = now
        if self.tracer is not None:
            self.tracer.mark(mode)

    def setup(self) -> None:
        self._switch("setup")

    def begin(self) -> None:
        self._switch("timed")

    def end(self) -> None:
        self._switch("idle")


def snapshot(machines) -> dict:
    """Exact simulator counters, summed over ``machines``."""
    counters: collections.Counter = collections.Counter()
    for machine in machines:
        for category, cycles in machine.ledger.by_category().items():
            counters[f"cycles.{category.name}"] += cycles
        counters["cycles"] += machine.ledger.total
        tlb = machine.translator.tlb
        counters["tlb.hits"] += tlb.hits
        counters["tlb.misses"] += tlb.misses
        faults = machine.monitor.fault_stage_counts
        counters["faults"] += sum(faults.values())
        counters["faults.page_cache"] += faults[AllocStage.PAGE_CACHE]
        counters["pool_expansions"] += machine.hypervisor.pool_expansions
        counters["exits"] += sum(
            cvm.exit_count for cvm in machine.monitor.cvms.values()
        )
        counters["mmio_exits"] += machine.hypervisor.mmio_exits
        for device in machine.hypervisor.devices.devices():
            counters["kicks"] += getattr(device, "kicks", 0)
            counters["irqs"] += getattr(device, "irqs_raised", 0)
        counters["doorbells"] += sum(
            channel.notify_count
            for channel in machine.monitor.channels.channels.values()
        )
    return dict(counters)


def delta(start: dict, end: dict) -> dict:
    return {key: end[key] - start.get(key, 0) for key in end}


@dataclasses.dataclass
class RoundResult:
    """What one round measured."""

    #: Ops in the timed section(s), every arm (host throughput numerator).
    ops: int
    timed_s: float
    setup_s: float
    #: Confidential-arm ops in its timed window and their simulated
    #: per-op cycles.
    sim_ops: int
    latencies: list
    #: Normal-VM arm per-op cycles for the same inputs (empty: no arm).
    normal_latencies: list
    #: Confidential-arm counter deltas over its timed window, plus the
    #: scheduler's park/wake counts over the whole concurrent run and the
    #: ops of that run (``sched.*``).
    counters: dict
    #: Digest of the round's generated inputs.
    digest: str


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def launch(machine: Machine, kind: str, image: bytes):
    if kind == "cvm":
        return machine.launch_confidential_vm(image=image)
    return machine.launch_normal_vm()


# ---------------------------------------------------------------------------
# kv_virtio: redis over virtio-net + SWIOTLB, CVM and normal-VM arms
# ---------------------------------------------------------------------------

KV_REQUESTS = 4000
KV_WARMUP = 200
KV_KEYSPACE = 1000
#: Untimed preload: lists and sets deep enough that pops and LRANGE_100
#: never run dry, and every GET key present.
KV_PRELOAD = (
    [["RPUSH", "mylist"] + ["xxx"] * 1000]
    + [["SADD", "myset"] + [f"el:{i:04d}" for i in range(KV_KEYSPACE)]]
    + [["SET", f"key:{i:04d}", "xxx"] for i in range(KV_KEYSPACE)]
)


def kv_commands(seed: str, count: int) -> list:
    """Seeded uniform mix over the paper's 12 redis-benchmark ops.

    Keys are fixed-width, so a reply's length never depends on which
    member a SPOP happened to return.
    """
    rng = random.Random(seed)
    ops = paper_data.REDIS["ops"]
    commands = []
    for _ in range(count):
        op = ops[rng.randrange(len(ops))]
        key = f"{rng.randrange(KV_KEYSPACE):04d}"
        commands.append([part.replace("{i}", key) for part in REDIS_OPS[op].command])
    return commands


def _encode(parts) -> list:
    return [part.encode() for part in parts]


def kv_reference_replies(commands) -> list:
    """What a host-side reference :class:`RedisServer` replies to ``commands``."""
    reference = RedisServer()
    for command in KV_PRELOAD:
        reference.execute(_encode(command))
    return [reference.execute(_encode(parts)) for parts in commands]


class _ReplayClient(RedisBenchmarkClient):
    """redis-benchmark connection replaying a command list, pipeline 1.

    Every reply is diffed against ``expected``, the reference replies.
    ``on_warm`` fires as request ``warmup`` is issued.
    """

    def __init__(self, machine, commands, expected, warmup: int, on_warm):
        super().__init__(machine, OpSpec("MIX", []), len(commands))
        self.commands = commands
        self.expected = collections.deque(expected)
        self.warmup = warmup
        self.on_warm = on_warm
        self.wrong = 0

    def pump(self, machine, session) -> bool:
        if self.sent == self.warmup:
            self.on_warm()
        if self.sent < self.requests:
            self.spec = OpSpec("MIX", self.commands[self.sent])
        return super().pump(machine, session)

    def on_reply(self, frame, header):
        frame = bytes(frame)
        # The server's virtio warm-up frames carry no request.
        if frame != b"+WARMUP\r\n":
            if frame != self.expected.popleft() or frame.startswith(b"-"):
                self.wrong += 1
        return super().on_reply(frame, header)


def kv_virtio_round(seed: str, scale: float, checker: Checker,
                    clock: RoundClock, corrupt: bool = False) -> RoundResult:
    requests = scaled(KV_REQUESTS, scale)
    warmup = scaled(KV_WARMUP, scale)
    commands = kv_commands(seed, warmup + requests)
    replies = kv_reference_replies(commands)
    arms = {}
    for kind in ("cvm", "normal"):
        clock.setup()
        expected = replies
        if corrupt and kind == "cvm":
            expected = [b"+CORRUPTED\r\n"] + replies[1:]
        machine = Machine(MachineConfig())
        session = launch(machine, kind, b"redis" * 200)
        machine.attach_virtio_net(session)
        marks = {}

        def on_warm(machine=machine, marks=marks):
            marks["start"] = snapshot([machine])
            clock.begin()

        client = _ReplayClient(machine, commands, expected, warmup, on_warm)
        session.virtio_net.host_handler = client.on_reply
        session.host_work = client.pump
        machine.run(session, redis_server_workload(
            client, OpSpec("MIX", [], setup=KV_PRELOAD)
        ))
        clock.end()
        counters = delta(marks["start"], snapshot([machine]))
        checker.record(
            len(commands),
            client.wrong + len(commands) - client.replies,
            f"kv_virtio {kind} replies",
        )
        arms[kind] = (client.latencies[warmup:], counters)
    latencies, counters = arms["cvm"]
    return RoundResult(
        ops=2 * requests, timed_s=clock.timed_s, setup_s=clock.setup_s,
        sim_ops=requests, latencies=latencies,
        normal_latencies=arms["normal"][0], counters=counters,
        digest=_digest(commands),
    )


# ---------------------------------------------------------------------------
# kv_cluster: sharded redis over SM channels
# ---------------------------------------------------------------------------

CLUSTER_SHARDS = 4
CLUSTER_CLIENTS = 2
CLUSTER_PIPELINE = 8
CLUSTER_REQUESTS = 2000
CLUSTER_WARMUP = 100
_CLUSTER_IMAGE = b"redis-cluster-guest" * 48


class _IssueMarks:
    """Opens the timed window at the first request past every client's
    warm-up and closes it as the last request is generated."""

    def __init__(self, begin_at: int, end_at: int, on_begin, on_end):
        self.calls = 0
        self.begin_at = begin_at
        self.end_at = end_at
        self.on_begin = on_begin
        self.on_end = on_end

    def tick(self) -> None:
        self.calls += 1
        if self.calls == self.begin_at:
            self.on_begin()
        if self.calls == self.end_at:
            self.on_end()


class _MarkedGenerator(LoadGenerator):
    """The cluster's seeded 60/30/10 GET/SET/MGET stream, tick-counted."""

    def __init__(self, seed: int, marks: _IssueMarks):
        super().__init__(seed)
        self.marks = marks
        self.issued: list = []

    def next(self) -> tuple:
        self.marks.tick()
        request = super().next()
        self.issued.append(request[0])
        return request


def kv_cluster_round(seed: str, scale: float, checker: Checker,
                     clock: RoundClock, corrupt: bool = False) -> RoundResult:
    requests = scaled(CLUSTER_REQUESTS, scale)
    warmup = scaled(CLUSTER_WARMUP, scale)
    per_client = warmup + requests
    machine = Machine(MachineConfig())
    slot_map = SlotMap(CLUSTER_SHARDS)
    shards = [machine.launch_confidential_vm(image=_CLUSTER_IMAGE)
              for _ in range(CLUSTER_SHARDS)]
    clients = [machine.launch_confidential_vm(image=_CLUSTER_IMAGE)
               for _ in range(CLUSTER_CLIENTS)]
    router = machine.launch_confidential_vm(image=_CLUSTER_IMAGE)
    measurement = router.cvm.measurement
    marks_at: dict = {}

    def on_begin():
        marks_at["start"] = snapshot([machine])
        marks_at["start_calls"] = marks.calls
        clock.begin()

    def on_end():
        clock.end()
        marks_at["end"] = snapshot([machine])
        marks_at["end_calls"] = marks.calls

    marks = _IssueMarks(CLUSTER_CLIENTS * warmup + 1,
                        CLUSTER_CLIENTS * per_client, on_begin, on_end)
    rng = random.Random(seed)
    generators = [_MarkedGenerator(rng.getrandbits(62), marks)
                  for _ in range(CLUSTER_CLIENTS)]
    boxes: dict = {}
    pairs = [
        (session, shard_server(index, boxes, slot_map,
                               expected_peer_measurement=measurement))
        for index, session in enumerate(shards)
    ]
    pairs += [
        (session, cluster_client(index, boxes, router_measurement=measurement,
                                 requests=per_client,
                                 pipeline=CLUSTER_PIPELINE,
                                 generator=generators[index]))
        for index, session in enumerate(clients)
    ]
    pairs.append((router, cluster_router(
        boxes, CLUSTER_SHARDS, CLUSTER_CLIENTS,
        shard_measurement=measurement, client_measurement=measurement,
    )))
    results = machine.run_concurrent(pairs, wake_priority=True)
    latencies = []
    for session in clients:
        stats = results[session]
        checker.record(
            per_client,
            len(stats["errors"]) + per_client - stats["completed"],
            "kv_cluster replies",
        )
        latencies += stats["latencies"][warmup:]
    ops = marks_at["end_calls"] - marks_at["start_calls"]
    counters = delta(marks_at["start"], marks_at["end"])
    counters["sched.parks"] = results["sched"]["parks"]
    counters["sched.wakes"] = results["sched"]["wakes"]
    counters["sched.ops"] = CLUSTER_CLIENTS * per_client
    return RoundResult(
        ops=ops, timed_s=clock.timed_s, setup_s=clock.setup_s,
        sim_ops=ops, latencies=latencies, normal_latencies=[],
        counters=counters,
        digest=_digest([g.issued for g in generators]),
    )


# ---------------------------------------------------------------------------
# mem_churn: first-touch faults plus cold and hot strided reads
# ---------------------------------------------------------------------------

MEM_PAGES = 10_000
MEM_WARMUP = 500
#: Reads start once this many pages are touched.
MEM_READ_START = 64
MEM_HOT_SHAPES = 16
#: First-touch region: above the boot image, inside private DRAM.
MEM_OFFSET = 16 << 20


def mem_inputs(seed: str, total: int) -> tuple:
    """Stored values, cold read starts (one per even page) and hot shapes."""
    rng = random.Random(seed)
    values = [rng.getrandbits(64) for _ in range(total)]
    cold = {i: rng.randrange(i - 7) for i in range(MEM_READ_START, total, 2)}
    hot = rng.sample(range(MEM_READ_START - 8), MEM_HOT_SHAPES)
    return values, cold, hot


def _mem_program(values, cold, hot, warmup: int, on_begin, result: dict):
    """The guest program: one-page ``store_seq`` per fresh page, and on
    every even page one cold and one hot 8-page strided ``load_seq``."""

    def workload(ctx):
        base = ctx.session.layout.dram_base + MEM_OFFSET
        ledger = ctx.ledger
        latencies = result["latencies"]
        expected = result["expected"]
        wrong = reads = 0
        for page, value in enumerate(values):
            if page == warmup:
                on_begin()
            start = ledger.total
            ctx.store_seq(base + page * PAGE_SIZE, [value])
            latencies.append(ledger.total - start)
            cold_first = cold.get(page)
            if cold_first is None:
                continue
            for first in (cold_first, hot[(page >> 1) % MEM_HOT_SHAPES]):
                got = ctx.load_seq(base + first * PAGE_SIZE, 8, stride=PAGE_SIZE)
                reads += 1
                if got != expected[first:first + 8]:
                    wrong += 1
        result["reads"] = reads
        result["wrong"] = wrong

    return workload


def mem_churn_round(seed: str, scale: float, checker: Checker,
                    clock: RoundClock, corrupt: bool = False) -> RoundResult:
    pages = scaled(MEM_PAGES, scale)
    warmup = scaled(MEM_WARMUP, scale)
    values, cold, hot = mem_inputs(seed, warmup + pages)
    arms = {}
    for kind in ("cvm", "normal"):
        clock.setup()
        machine = Machine(MachineConfig())
        session = launch(machine, kind, b"mem" * 100)
        marks = {}

        def on_begin(machine=machine, marks=marks):
            marks["start"] = snapshot([machine])
            clock.begin()

        expected = list(values)
        if corrupt and kind == "cvm":
            expected[hot[0]] ^= 1
        result = {"latencies": [], "expected": expected}
        program = _mem_program(values, cold, hot, warmup, on_begin, result)
        if clock.tracer is not None:
            program = clock.tracer.root(program)
        machine.run(session, program)
        clock.end()
        counters = delta(marks["start"], snapshot([machine]))
        checker.record(len(values) + result["reads"], result["wrong"],
                       f"mem_churn {kind} reads")
        arms[kind] = (result["latencies"][warmup:], counters)
    latencies, counters = arms["cvm"]
    return RoundResult(
        ops=2 * pages, timed_s=clock.timed_s, setup_s=clock.setup_s,
        sim_ops=pages, latencies=latencies,
        normal_latencies=arms["normal"][0], counters=counters,
        digest=_digest(values, cold, hot),
    )


# ---------------------------------------------------------------------------
# fleet_migrate: live migration under the rebalancing control loop
# ---------------------------------------------------------------------------

FLEET_HOSTS = 3
FLEET_CVMS = 8
FLEET_RATE = 8
#: About 150 migrations per round.  One fleet that keeps migrating
#: eventually fails an import with ``PoolExhausted`` (no pool space for
#: SM metadata; seen after about 140 imports into one host), so rounds
#: stay far below that and more rounds supply the samples.
FLEET_EPOCHS = 13
#: Epoch 0 is the cold start and epoch 1 the warm baseline (no migration).
FLEET_WARMUP_EPOCHS = 2


class _TimedFleet(FleetOrchestrator):
    """The orchestrator, with its first rebalance opening the timed window."""

    def __init__(self, config, on_begin):
        super().__init__(config)
        self._on_begin = on_begin

    def rebalance(self) -> None:
        if self._on_begin is not None:
            self._on_begin()
            self._on_begin = None
        super().rebalance()


def fleet_migrate_round(seed: str, scale: float, checker: Checker,
                        clock: RoundClock, corrupt: bool = False) -> RoundResult:
    epochs = scaled(FLEET_EPOCHS, scale)
    fleet_seed = random.Random(seed).getrandbits(62)
    config = FleetConfig(
        hosts=FLEET_HOSTS, cvms=FLEET_CVMS,
        epochs=FLEET_WARMUP_EPOCHS + epochs, migration_rate=FLEET_RATE,
        seed=fleet_seed, seams=None,
    )
    marks = {}

    def on_begin():
        marks["start"] = snapshot([host.machine for host in fleet.hosts])
        clock.begin()

    fleet = _TimedFleet(config, on_begin)
    result = fleet.run()
    clock.end()
    counters = delta(marks["start"],
                     snapshot([host.machine for host in fleet.hosts]))
    checker.record(result.migrations + len(result.failed), len(result.failed),
                   "fleet_migrate migrations")
    checker.record(1, 0 if result.ok else 1, "fleet_migrate containment")
    counters["sched.parks"] = result.sched["parks"]
    counters["sched.wakes"] = result.sched["wakes"]
    counters["sched.ops"] = result.migrations
    return RoundResult(
        ops=result.migrations, timed_s=clock.timed_s, setup_s=clock.setup_s,
        sim_ops=result.migrations, latencies=list(result.downtimes),
        normal_latencies=[], counters=counters,
        digest=_digest(fleet_seed),
    )


#: name -> round function.
WORKLOADS = {
    "kv_virtio": kv_virtio_round,
    "kv_cluster": kv_cluster_round,
    "mem_churn": mem_churn_round,
    "fleet_migrate": fleet_migrate_round,
}

#: Rounds whose inputs define the simulated metrics: enough for at least
#: 1,000 latency samples, so p99 has ten samples beyond it.
CANONICAL_ROUNDS = {
    "kv_virtio": 4,
    "kv_cluster": 4,
    "mem_churn": 4,
    "fleet_migrate": 8,
}


def canonical_rounds(workload: str, scale: float) -> int:
    """Canonical rounds of a run; a scale below 1 shrinks them too."""
    return max(1, round(CANONICAL_ROUNDS[workload] * min(scale, 1.0)))

#: Paper reference for ``model.cvm_overhead_pct`` (percent), by workload.
PAPER_OVERHEAD_PCT = {
    "kv_virtio": paper_data.REDIS["avg_latency_increase_pct"],
    "mem_churn": 100.0 * (
        paper_data.PAGE_FAULT["cvm_average"] / paper_data.PAGE_FAULT["normal_vm"] - 1
    ),
}
