"""Run one zbench workload in this process and print its metrics as JSON.

``run.py`` starts one worker per workload and run, so every run begins
from a fresh interpreter::

    python3 zbench/worker.py --workload kv_virtio --seed 1 --seconds 15 --trace 0

A run executes the workload's canonical rounds of seeded inputs, then more
rounds until ``--seconds`` of timed host time have passed.  Simulated
metrics come from the canonical rounds only, so they depend on the seed
and nothing else; host throughput is that of the fastest round.  Set-up
time is the median time to import the simulator, over this process and
a few fresh interpreters, plus the median set-up time of the rounds.

With ``--trace 1`` the worker runs the canonical rounds twice with the
same inputs: untraced, then with :class:`zbench.trace.LayerTracer`
installed.  The per-layer host metrics come from the traced pass, and the
run fails unless both passes produced identical simulated metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
if not __package__:
    # Run as a script, sys.path[0] is zbench/ itself; import the benchmark
    # as a package and the simulator from its sources instead.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from zbench.stats import percentile  # noqa: E402

#: Largest accepted |CVM-vs-normal overhead - paper value|, in points.
FIDELITY_PP = 2.0

#: Probes reported as ``host_us_per.<name>``.
PROBE_METRICS = ("world_switch", "fault", "mmio_exit", "doorbell", "migration")

#: Imports of the simulator timed per run: this process's own, and the
#: rest in fresh interpreters.  One import takes about 0.1 s, half of
#: ``setup_s``; a single sample of it would carry every passing hiccup.
IMPORT_SAMPLES = 5
#: Run by each fresh interpreter; prints its import time in seconds.
IMPORT_PROBE = (
    "import sys, time; sys.path[0:0] = sys.argv[1:]; "
    "start = time.perf_counter(); import zbench.workloads; "
    "print(time.perf_counter() - start)"
)


def fresh_import_s() -> float:
    """Host seconds a fresh interpreter takes to import the simulator."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT), str(ROOT / "src")],
        stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT,
    )
    return float(done.stdout)


def run_rounds(workload: str, seed: int, scale: float, checker, canonical: int, *,
               seconds: float = 0.0, tracer=None, corrupt: bool = False) -> list:
    """``canonical`` rounds, then more until ``seconds`` of timed host time."""
    from zbench.workloads import WORKLOADS, RoundClock

    round_fn = WORKLOADS[workload]
    rounds: list = []
    timed = 0.0
    while len(rounds) < canonical or timed < seconds:
        gc.collect()
        result = round_fn(f"{workload}:{seed}:{len(rounds)}", scale, checker,
                          RoundClock(tracer), corrupt and not rounds)
        rounds.append(result)
        timed += result.timed_s
    return rounds


def exact_metrics(canonical: list) -> dict:
    """Simulated metrics and counter ratios of the canonical rounds."""
    from repro.cycles import Category
    from zbench.workloads import CLOCK_HZ

    latencies = sorted(x for r in canonical for x in r.latencies)
    normal = [x for r in canonical for x in r.normal_latencies]
    ops = sum(r.sim_ops for r in canonical)
    counters: dict = {}
    for r in canonical:
        for key, value in r.counters.items():
            counters[key] = counters.get(key, 0) + value

    def per_op(key: str) -> float:
        return counters.get(key, 0) / ops

    def ratio(part: str, whole: int) -> float:
        return counters.get(part, 0) / whole if whole else 0.0

    lookups = counters["tlb.hits"] + counters["tlb.misses"]
    metrics = {
        "sim_lat_p50_cycles": percentile(latencies, 50),
        "sim_lat_p99_cycles": percentile(latencies, 99),
        "sim_ops_per_s": ops * CLOCK_HZ / counters["cycles"],
        "model.cvm_overhead_pct": (
            100.0 * (statistics.fmean(latencies) / statistics.fmean(normal) - 1)
            if normal else 0.0
        ),
        "tlb.hit_ratio": ratio("tlb.hits", lookups),
        "tlb.lookups_per_op": lookups / ops,
        "fault.per_op": per_op("faults"),
        "alloc.page_cache_ratio": ratio("faults.page_cache", counters["faults"]),
        "alloc.pool_expansions": counters["pool_expansions"],
        "ws.exits_per_op": per_op("exits"),
        "hyp.mmio_exits_per_op": per_op("mmio_exits"),
        "virtio.kicks_per_op": per_op("kicks"),
        "virtio.irqs_per_op": per_op("irqs"),
        "ipc.doorbells_per_op": per_op("doorbells"),
        "sched.parks_per_op": ratio("sched.parks", counters.get("sched.ops", 0)),
        "sched.wakes_per_op": ratio("sched.wakes", counters.get("sched.ops", 0)),
    }
    for category in Category:
        metrics[f"sim_cycles_per_op.{category.name}"] = per_op(f"cycles.{category.name}")
    return metrics


def host_rate(rounds: list) -> float:
    return sum(r.ops for r in rounds) / sum(r.timed_s for r in rounds)


def traced_metrics(tracer, untraced: list, traced: list) -> dict:
    """Per-layer host metrics of the traced pass."""
    from zbench.trace import LAYERS

    self_s = tracer.self_seconds("timed")
    calls = tracer.span_counts("timed")
    metrics = {}
    for layer in LAYERS:
        metrics[f"host_self_s.{layer}"] = self_s.get(layer, 0.0)
        metrics[f"host_calls.{layer}"] = calls.get(layer, 0)
    for name in PROBE_METRICS:
        probe = tracer.probes[name]
        metrics[f"host_us_per.{name}"] = (
            probe.ns / 1e3 / probe.events if probe.events else 0.0
        )
    cache = tracer.probes["tracecache"]
    metrics["tracecache.hit_ratio"] = (
        (cache.calls - cache.empty) / cache.calls if cache.calls else 0.0
    )
    metrics["tracecache.lookups_per_op"] = cache.calls / sum(r.ops for r in traced)
    metrics["trace_overhead_pct"] = 100.0 * (host_rate(untraced) / host_rate(traced) - 1)
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
        spans=None, corrupt: bool = False, import_s: float = 0.0) -> dict:
    """One benchmark run; returns the JSON-ready result.

    ``corrupt`` flips one expected answer of the first round (``kv_virtio``
    and ``mem_churn`` check answers against a reference), so the run must
    fail.  ``import_s`` is the host time it takes to import the simulator;
    it is part of ``setup_s``.
    """
    from zbench import workloads

    checker = workloads.Checker()
    canonical = workloads.canonical_rounds(workload, scale)
    rounds = run_rounds(workload, seed, scale, checker, canonical,
                        seconds=0.0 if trace else seconds, corrupt=corrupt)
    exact = exact_metrics(rounds[:canonical])
    metrics = {
        "setup_s": import_s + statistics.median(r.setup_s for r in rounds),
        # Interference from other processes only slows a round down, so the
        # fastest round is the run's least disturbed measurement.
        "host_ops_per_s": max(r.ops / r.timed_s for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **exact,
    }
    result = {
        "workload": workload, "seed": seed, "scale": scale, "trace": trace,
        "rounds": len(rounds),
        "round_ops_per_s": [r.ops / r.timed_s for r in rounds],
        "round_setup_s": [r.setup_s for r in rounds],
        "samples": sum(len(r.latencies) for r in rounds[:canonical]),
        "digest": [r.digest for r in rounds[:canonical]],
    }
    problems = []
    reference = workloads.PAPER_OVERHEAD_PCT.get(workload)
    if reference is not None:
        error = abs(exact["model.cvm_overhead_pct"] - reference)
        metrics["paper_err_pp"] = error
        result["paper_overhead_pct"] = reference
        if error > FIDELITY_PP:
            problems.append(
                f"paper fidelity: overhead {exact['model.cvm_overhead_pct']:+.2f}% "
                f"is {error:.2f} pp from the paper's {reference:+.2f}%"
            )
    if trace:
        from zbench.trace import LayerTracer

        tracer = LayerTracer().install()
        traced = run_rounds(workload, seed, scale, checker, canonical, tracer=tracer)
        if exact_metrics(traced) != exact or \
                [r.digest for r in traced] != result["digest"]:
            problems.append("tracing changed the simulated metrics")
        metrics.update(traced_metrics(tracer, rounds[:canonical], traced))
        result["spans"] = len(tracer.spans)
        result["spans_dropped"] = tracer.dropped
        if spans is not None:
            tracer.write_spans(spans)
    metrics["failed_frac"] = checker.failed / checker.attempted
    problems = checker.problems + problems
    result.update(
        correct=not problems, attempted=checker.attempted,
        failed=checker.failed, problems=problems, metrics=metrics,
    )
    return result


def main(argv=None) -> int:
    start = time.perf_counter()
    from zbench.workloads import WORKLOADS

    imports = [time.perf_counter() - start]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the work of a run (tests use a tiny scale)")
    parser.add_argument("--spans", help="with --trace 1, write spans here (JSON Lines)")
    args = parser.parse_args(argv)
    if args.scale <= 0:
        parser.error("--scale must be positive")
    imports += [fresh_import_s() for _ in range(IMPORT_SAMPLES - 1)]
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.scale, args.spans, import_s=statistics.median(imports))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
