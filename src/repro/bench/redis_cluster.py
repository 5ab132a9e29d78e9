"""Sharded redis-over-channels cluster benchmark and its virtio baseline.

The tentpole experiment of the data-plane story (docs/DATA_PLANE.md):
the same mixed GET/SET/MGET traffic is served

- by the **cluster** -- N shard CVMs behind a router CVM, every hop an
  SM-brokered channel (zero-copy rings, batched doorbells, no host in
  the data path), pipelined ``pipeline`` deep per client, and
- by the **baseline** -- one monolithic redis CVM behind virtio-net +
  SWIOTLB, the paper's host-mediated device path.

Both run on the same simulated machine model, so the comparison isolates
the data plane: the TRAP/DEVICE/COPY cycles of the virtio path against
the SM_LOGIC/HYP_LOGIC doorbell slow path plus in-guest ring COMPUTE of
the channel path.  ``run_cluster_experiment`` also sweeps a
shards x pipeline-depth ablation so the two effects -- horizontal
sharding and batching -- are separable in BENCH_PERF.json.
"""

from __future__ import annotations

from repro.machine import Machine, MachineConfig
from repro.workloads.redis import redis_benchmark
from repro.workloads.redis_cluster import (
    SlotMap,
    cluster_client,
    cluster_router,
    shard_server,
)

_IMAGE = b"redis-cluster-guest" * 48

#: Ablation grids swept by :func:`run_cluster_experiment`.
DEFAULT_SHARD_SWEEP = (1, 2, 4)
DEFAULT_PIPELINE_SWEEP = (1, 4, 8)


def _percentile(sorted_values, fraction: float):
    if not sorted_values:
        return 0
    index = round(fraction * (len(sorted_values) - 1))
    return sorted_values[min(index, len(sorted_values) - 1)]


def build_cluster(shards: int = 4, clients: int = 2, requests: int = 32,
                  pipeline: int = 8, *, keyspace: int = 128,
                  value_size: int = 16, fail_shard: int | None = None,
                  fail_after: int | None = None, idle_limit: int = 48):
    """Launch the cluster's CVMs and build its ``run_concurrent`` pairs.

    Returns ``(machine, pairs, (shard_sessions, client_sessions,
    router_session))`` so the perf suite can time the concurrent run
    itself and then :func:`summarise_cluster` it.
    """
    machine = Machine(MachineConfig())
    slot_map = SlotMap(shards)
    shard_sessions = [
        machine.launch_confidential_vm(image=_IMAGE) for _ in range(shards)
    ]
    client_sessions = [
        machine.launch_confidential_vm(image=_IMAGE) for _ in range(clients)
    ]
    router_session = machine.launch_confidential_vm(image=_IMAGE)
    measurement = router_session.cvm.measurement

    boxes: dict = {}
    pairs = []
    for shard_id, session in enumerate(shard_sessions):
        pairs.append((session, shard_server(
            shard_id, boxes, slot_map,
            expected_peer_measurement=measurement,
            keyspace=keyspace, value_size=value_size,
            fail_after=fail_after if shard_id == fail_shard else None,
        )))
    for client_id, session in enumerate(client_sessions):
        pairs.append((session, cluster_client(
            client_id, boxes,
            router_measurement=measurement, requests=requests,
            pipeline=pipeline, keyspace=keyspace, value_size=value_size,
        )))
    pairs.append((router_session, cluster_router(
        boxes, shards, clients,
        shard_measurement=measurement, client_measurement=measurement,
        idle_limit=idle_limit,
    )))
    return machine, pairs, (shard_sessions, client_sessions, router_session)


def run_cluster(shards: int = 4, clients: int = 2, requests: int = 32,
                pipeline: int = 8, *, keyspace: int = 128,
                value_size: int = 16, fail_shard: int | None = None,
                fail_after: int | None = None, wake_priority: bool = True,
                idle_limit: int = 48) -> dict:
    """Run the sharded cluster; returns throughput/latency/balance stats.

    ``requests`` is per client connection.  ``fail_shard``/``fail_after``
    crash that shard after serving that many requests -- used by the
    failure-path tests to show the router fail-stops the shard (typed
    ``-ERR SHARDDOWN`` replies) instead of wedging the run.
    """
    machine, pairs, sessions = build_cluster(
        shards, clients, requests, pipeline, keyspace=keyspace,
        value_size=value_size, fail_shard=fail_shard, fail_after=fail_after,
        idle_limit=idle_limit,
    )
    before = dict(machine.ledger.by_category())
    setup_total = machine.ledger.total
    results = machine.run_concurrent(pairs, wake_priority=wake_priority)
    after = machine.ledger.by_category()
    return {
        "shards": shards,
        "clients": clients,
        "pipeline": pipeline,
        **summarise_cluster(machine, sessions, results, setup_total),
        "breakdown": {
            category.name: after[category] - before.get(category, 0)
            for category in after
            if after[category] - before.get(category, 0) > 0
        },
    }


def summarise_cluster(machine, sessions, results, setup_total: int) -> dict:
    """Throughput/latency/balance stats of one finished cluster run.

    ``sessions`` is :func:`build_cluster`'s third value, ``results`` the
    ``run_concurrent`` return value and ``setup_total`` the ledger total
    just before that run.  Reads the results only; charges nothing.
    """
    shard_sessions, client_sessions, router_session = sessions
    client_stats = [results[session] for session in client_sessions]
    shard_stats = [results[session] for session in shard_sessions]
    router_stats = results[router_session]
    cycles = results["cycles"]
    # Split bring-up (channel create/attest/connect, shard preloads and
    # working-set faults) from steady-state serving, mirroring
    # redis_benchmark's serving_cycles: the baseline times its serving
    # loop only, so the comparison must too.  Bring-up is still visible
    # as "setup_cycles" and inside the whole-run "cycles".
    setup_cycles = router_stats["setup_done_total"] - setup_total
    serving_cycles = cycles - setup_cycles
    completed = sum(stat["completed"] for stat in client_stats)
    latencies = sorted(
        latency for stat in client_stats for latency in stat["latencies"]
    )
    errors = [error for stat in client_stats for error in stat["errors"]]
    clock_hz = machine.config.clock_hz
    busy = [stat["busy_cycles"] for stat in shard_stats]
    max_busy = max(busy) if busy else 0
    return {
        "requests": completed,
        "cycles": cycles,
        "setup_cycles": setup_cycles,
        "serving_cycles": serving_cycles,
        "cycles_per_request": (
            serving_cycles / completed if completed else float("inf")
        ),
        "throughput_rps": (
            completed * clock_hz / serving_cycles if serving_cycles else 0.0
        ),
        "p50_latency_us": _percentile(latencies, 0.50) / (clock_hz / 1e6),
        "p99_latency_us": _percentile(latencies, 0.99) / (clock_hz / 1e6),
        "p50_latency_cycles": _percentile(latencies, 0.50),
        "p99_latency_cycles": _percentile(latencies, 0.99),
        "errors": len(errors),
        "error_samples": errors[:4],
        "ops": {
            op: sum(stat["ops"].get(op, 0) for stat in client_stats)
            for op in ("GET", "SET", "MGET")
        },
        "doorbells": (
            router_stats["doorbells"]
            + sum(stat["doorbells"] for stat in client_stats)
            + sum(stat["doorbells"] for stat in shard_stats)
        ),
        "mget_splits": router_stats["mget_splits"],
        "per_shard_requests": router_stats["per_shard_requests"],
        "shards_down": router_stats["shards_down"],
        # Typed ShardDown objects (not serialized into BENCH_PERF.json;
        # the failure-path tests assert on them).
        "shard_errors": router_stats["shard_errors"],
        "shard_busy_cycles": busy,
        # How evenly the shard tier shared the serving work: 1.0 means
        # every shard was busy exactly as long as the busiest one (the
        # single-hart analogue of linear multi-shard scaling).
        "shard_balance": (
            sum(busy) / (len(busy) * max_busy) if max_busy else 0.0
        ),
    }


def run_virtio_baseline(requests: int, pipeline: int = 1) -> dict:
    """The single-CVM virtio-net redis baseline for the same request count."""
    machine = Machine(MachineConfig())
    session = machine.launch_confidential_vm(image=_IMAGE)
    machine.attach_virtio_net(session)
    result = redis_benchmark(machine, session, "GET", requests, pipeline=pipeline)
    result["cycles_per_request"] = result["cycles"] / requests
    # Normalize to category *names* so baseline and cluster breakdowns
    # use the same keys as BENCH_PERF.json (see docs/DATA_PLANE.md).
    result["breakdown"] = {
        category.name: cycles
        for category, cycles in result["breakdown"].items()
    }
    return result


def run_cluster_experiment(clients: int = 2, requests: int = 32,
                           shard_sweep=DEFAULT_SHARD_SWEEP,
                           pipeline_sweep=DEFAULT_PIPELINE_SWEEP,
                           headline_shards: int = 4,
                           headline_pipeline: int = 8) -> dict:
    """Headline cluster-vs-virtio comparison plus the ablation grid.

    Returns the headline cluster run, the virtio baseline at the same
    pipeline depth (and unpipelined), the speedup, and one ablation row
    per (shards, pipeline) combination -- the data behind the scaling
    claims in docs/DATA_PLANE.md.
    """
    cluster = run_cluster(
        shards=headline_shards, clients=clients, requests=requests,
        pipeline=headline_pipeline,
    )
    total = cluster["requests"]
    baseline = run_virtio_baseline(total, pipeline=headline_pipeline)
    baseline_unpipelined = run_virtio_baseline(total, pipeline=1)
    ablation = []
    for shards in shard_sweep:
        for pipeline in pipeline_sweep:
            row = run_cluster(
                shards=shards, clients=clients, requests=requests,
                pipeline=pipeline,
            )
            ablation.append({
                "shards": shards,
                "pipeline": pipeline,
                "cycles_per_request": row["cycles_per_request"],
                "throughput_rps": row["throughput_rps"],
                "p99_latency_us": row["p99_latency_us"],
                "shard_balance": row["shard_balance"],
                "doorbells": row["doorbells"],
                # The shard-tier critical path: what an N-hart machine
                # would wait on for the serving tier (the single-hart sum
                # of switch overheads above is a serialization artifact).
                "max_shard_busy_per_request": (
                    max(row["shard_busy_cycles"]) / row["requests"]
                ),
            })
    wake_policy = {}
    for label, priority in (("front_wake", True), ("tail_wake", False)):
        row = run_cluster(
            shards=headline_shards, clients=clients, requests=requests,
            pipeline=headline_pipeline, wake_priority=priority,
        )
        wake_policy[label] = {
            "cycles_per_request": row["cycles_per_request"],
            "p99_latency_us": row["p99_latency_us"],
            "p50_latency_us": row["p50_latency_us"],
            "doorbells": row["doorbells"],
        }
    return {
        "cluster": cluster,
        "virtio_baseline": {
            "pipelined": {
                "pipeline": baseline["pipeline"],
                "cycles_per_request": baseline["cycles_per_request"],
                "throughput_rps": baseline["throughput_rps"],
            },
            "unpipelined": {
                "pipeline": 1,
                "cycles_per_request": baseline_unpipelined["cycles_per_request"],
                "throughput_rps": baseline_unpipelined["throughput_rps"],
            },
            "breakdown": baseline["breakdown"],
        },
        "speedup_vs_virtio": (
            baseline["cycles_per_request"] / cluster["cycles_per_request"]
        ),
        "speedup_vs_virtio_unpipelined": (
            baseline_unpipelined["cycles_per_request"]
            / cluster["cycles_per_request"]
        ),
        "ablation": ablation,
        # Doorbell wake policy (hyp scheduler): front-wake runs the
        # doorbell target on the next dispatch (lower tail latency, more
        # switches); tail-wake batches naturally (higher throughput).
        "wake_policy": wake_policy,
    }
