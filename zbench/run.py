"""zbench: end-to-end and per-layer benchmark of the ZION simulator.

    python3 zbench/run.py [--workload W] [--seed S] [--seconds T]
                          [--trace [0|1]] [--repeat N] [--out F.json]

Runs each selected workload (default: all four) in its own fresh worker
process, one at a time, ``--repeat`` times.  Prints every metric by name
with its unit, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics
(``--trace 1``), as medians over the repeats.  With one workload the
metric names are bare; with several they are ``<workload>.<metric>``.

The benchmark's calling convention is
``run.py --workload W --seed S --seconds T --trace 0|1``: a recorded run
passes all four, with ``T`` the ``run_seconds`` of ``BENCHMARK.json``
(also the default).  ``--seconds 0`` runs the canonical rounds only.

Exit status: 0 when every check passed, 1 when an output was wrong, 2
when a worker produced no result (then no JSON line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
if not __package__:
    sys.path[0:1] = [str(ROOT)]  # run as a script: import zbench as a package

from zbench.stats import quartiles  # noqa: E402

WORKER = HERE / "worker.py"
SPANS_DIR = HERE / "out"
#: The benchmark's own description: workloads, metrics, units, bounds.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
#: Printed beside the benchmark's metrics; not part of BENCHMARK.json
#: (``paper_err_pp`` exists for two workloads only, ``failed_frac`` is 0
#: on every correct run).
EXTRA_METRICS = {"paper_err_pp": "pp", "failed_frac": "1"}
#: A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 900


def metric_specs(trace: bool) -> list:
    return BENCHMARK["per_layer" if trace else "end_to_end"]


def run_worker(workload: str, seed: int, seconds: float, trace: bool,
               scale: float, spans) -> dict | None:
    """One fresh worker process; its result, or ``None`` if it failed."""
    command = [sys.executable, str(WORKER), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace)), "--scale", str(scale)]
    if spans is not None:
        command += ["--spans", str(spans)]
    # A fixed hash seed keeps set and dict order, and so every simulated
    # statistic, identical from one worker process to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"zbench: {workload} worker timed out", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"zbench: {workload} worker exited {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def summarize(runs: list, trace: bool) -> dict:
    """workload -> metric -> {median, q1, q3, n, unit} over the repeats."""
    summary: dict = {}
    specs = metric_specs(trace) + [
        {"name": name, "unit": unit} for name, unit in EXTRA_METRICS.items()
    ]
    for workload in dict.fromkeys(run["workload"] for run in runs):
        results = [run["result"] for run in runs if run["workload"] == workload]
        rows = {}
        for spec in specs:
            values = [r["metrics"][spec["name"]] for r in results
                      if spec["name"] in r["metrics"]]
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            rows[spec["name"]] = {"median": median, "q1": q1, "q3": q3,
                                  "n": len(values), "unit": spec["unit"]}
        summary[workload] = rows
    return summary


def print_summary(summary: dict, runs: list, seed: int) -> None:
    for workload, rows in summary.items():
        results = [run["result"] for run in runs if run["workload"] == workload]
        first = results[0]
        print(f"== {workload}  seed {seed}  runs {len(results)}  "
              f"rounds {first['rounds']}  samples {first['samples']}")
        for name, row in rows.items():
            spread = ""
            if row["n"] > 1:
                spread = f"  [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}]"
            note = ""
            if name.startswith("sim_lat_"):
                note = f"  (n={first['samples']})"
            elif name == "paper_err_pp":
                note = (f"  (CVM {first['metrics']['model.cvm_overhead_pct']:+.2f}%"
                        f" vs paper {first['paper_overhead_pct']:+.2f}%)")
            print(f"  {name:<34} {row['median']:>16.6g} {row['unit']:<6}{spread}{note}")
        for result in results:
            for problem in result["problems"]:
                print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run only this workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"],
                        help="timed host seconds per run, at least")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer traced run")
    parser.add_argument("--repeat", type=int, default=1, metavar="N")
    parser.add_argument("--out", type=pathlib.Path, help="write every run as JSON")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the work of a run (tests use a tiny scale)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"zbench: simulator sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    workloads = [args.workload] if args.workload else WORKLOADS
    runs = []
    for repeat in range(args.repeat):
        for workload in workloads:
            spans = None
            if trace:
                SPANS_DIR.mkdir(exist_ok=True)
                spans = SPANS_DIR / f"spans-{workload}-seed{args.seed}.jsonl"
            started = time.time()
            result = run_worker(workload, args.seed, args.seconds, trace,
                                args.scale, spans)
            if result is None:
                return 2
            runs.append({"workload": workload, "repeat": repeat,
                         "started_at": started, "ended_at": time.time(),
                         "result": result})
    summary = summarize(runs, trace)
    print_summary(summary, runs, args.seed)
    if trace:
        print(f"spans: {SPANS_DIR}/spans-<workload>-seed{args.seed}.jsonl")
    if args.out is not None:
        args.out.write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds, "trace": trace,
            "scale": args.scale, "runs": runs, "summary": summary,
        }, indent=1) + "\n")
    correct = all(run["result"]["correct"] for run in runs)
    metrics = {}
    for workload, rows in summary.items():
        prefix = "" if len(workloads) == 1 else f"{workload}."
        for spec in metric_specs(trace):
            row = rows[spec["name"]]
            metrics[prefix + spec["name"]] = {"value": row["median"],
                                              "unit": spec["unit"]}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run["result"]["attempted"] for run in runs),
        "failed": sum(run["result"]["failed"] for run in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
