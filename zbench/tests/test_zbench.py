"""zbench's own checks, at a tiny scale.

    PYTHONPATH=src python -m pytest zbench/tests -q

Each check runs every workload at ``SCALE`` of its full size, so the
whole file takes seconds; the metrics are too small to mean anything,
but every code path the full benchmark takes runs.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from zbench import run as runner
from zbench import worker

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SCALE = 0.02
SEED = 3

#: Per-layer metrics the simulator computes exactly (not host times).
EXACT_PER_LAYER = [
    m["name"] for m in BENCHMARK["per_layer"]
    if not m["name"].startswith(("host_", "trace", "tracecache."))
]
SIMULATED_E2E = [m["name"] for m in BENCHMARK["end_to_end"]
                 if m["name"].startswith("sim_")]


def run_bench(tmp_path, *args):
    out = tmp_path / "out.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "zbench" / "run.py"), "--seed", str(SEED),
         "--seconds", "0", "--scale", str(SCALE), "--out", str(out), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    report = json.loads(out.read_text())
    return done.stdout, last, {run["workload"]: run["result"] for run in report["runs"]}


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return run_bench(tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return run_bench(tmp_path_factory.mktemp("traced"), "--trace")


@pytest.mark.parametrize("section, which", [("end_to_end", "untraced"),
                                            ("per_layer", "traced")])
def test_printed_metric_names_match_benchmark_json(section, which, request):
    stdout, last, _results = request.getfixturevalue(which)
    expected = {f"{w}.{m['name']}" for w in WORKLOADS for m in BENCHMARK[section]}
    assert set(last["metrics"]) == expected
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    printed = {line.split()[0] for line in stdout.splitlines()[:-1]
               if line.startswith("  ")}
    assert {m["name"] for m in BENCHMARK[section]} <= printed


def test_tracing_leaves_simulated_metrics_and_counters_unchanged(untraced, traced):
    for workload in WORKLOADS:
        plain = untraced[2][workload]
        under_trace = traced[2][workload]
        assert under_trace["digest"] == plain["digest"]
        for name in SIMULATED_E2E + EXACT_PER_LAYER:
            assert under_trace["metrics"][name] == plain["metrics"][name], (workload, name)


def test_traced_run_attributes_time_to_layers(traced):
    for workload, result in traced[2].items():
        metrics = result["metrics"]
        assert result["spans"] > 0
        assert metrics["host_calls.machine"] > 0, workload
        assert sum(metrics[f"host_self_s.{layer}"] for layer in
                   ("machine", "mem", "sm", "isa", "cycles")) > 0
    assert traced[2]["kv_cluster"]["metrics"]["host_calls.ipc"] > 0
    assert traced[2]["fleet_migrate"]["metrics"]["host_us_per.migration"] > 0
    assert 0 < traced[2]["mem_churn"]["metrics"]["tracecache.hit_ratio"] < 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_simulated_metrics_other_seed_other_inputs(workload, untraced):
    reference = untraced[2][workload]
    again = worker.run(workload, SEED, 0.0, False, SCALE)
    assert again["digest"] == reference["digest"]
    for name in SIMULATED_E2E + EXACT_PER_LAYER:
        assert again["metrics"][name] == reference["metrics"][name], name
    other = worker.run(workload, SEED + 1, 0.0, False, SCALE)
    assert set(other["digest"]).isdisjoint(reference["digest"])


@pytest.mark.parametrize("workload", ["kv_virtio", "mem_churn"])
def test_forced_wrong_answer_fails_the_run(workload):
    result = worker.run(workload, SEED, 0.0, False, SCALE, corrupt=True)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any(workload in problem for problem in result["problems"])


def test_wrong_answer_makes_the_command_exit_nonzero(monkeypatch, capsys):
    def wrong(workload, *args):
        result = worker.run(workload, SEED, 0.0, False, SCALE, corrupt=True)
        return json.loads(json.dumps(result))

    monkeypatch.setattr(runner, "run_worker", wrong)
    assert runner.main(["--workload", "kv_virtio", "--scale", str(SCALE)]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "zbench", tmp_path / "zbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, "zbench/run.py", "--workload", "kv_virtio", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def _report(values_by_metric: dict, starts, first_seed: int = 1) -> dict:
    runs = []
    for index, started in enumerate(starts):
        metrics = {name: values[index] for name, values in values_by_metric.items()}
        runs.append({"workload": "kv_virtio", "started_at": started,
                     "result": {"failed": 0, "seed": first_seed + index,
                                "metrics": metrics}})
    return {"runs": runs}


def test_compare_applies_the_pairing_rule():
    from zbench import compare

    base = {m["name"]: [100.0 + i for i in range(10)] for m in BENCHMARK["end_to_end"]}
    change = {name: list(values) for name, values in base.items()}
    change["host_ops_per_s"] = [v * 1.5 for v in base["host_ops_per_s"]]
    change["setup_s"] = [v * 1.5 for v in base["setup_s"]]
    change["peak_rss_mb"] = [v * 1.01 for v in base["peak_rss_mb"]]
    # Simulated metrics are exact per seed: a worse pair is a regression
    # however far inside the bound, a better one with no worse pair a gain.
    change["sim_lat_p99_cycles"] = [v * 1.049 for v in base["sim_lat_p99_cycles"]]
    change["sim_ops_per_s"] = [v + (i == 3) for i, v in enumerate(base["sim_ops_per_s"])]
    # Pair i runs parent first when i is even: P C, C P, P C, ...
    parent_starts = [2 * i + (i % 2) for i in range(10)]
    change_starts = [2 * i + 1 - (i % 2) for i in range(10)]
    rows, passed = compare.compare(_report(base, parent_starts),
                                   _report(change, change_starts))
    (workload, note, cells), = rows
    assert cells["host_ops_per_s"][0] == "GAIN"
    assert cells["setup_s"][0] == "REGRESSION"
    assert cells["peak_rss_mb"][0] == "ok"
    assert cells["sim_lat_p50_cycles"][0] == "same"
    assert cells["sim_lat_p99_cycles"][0] == "REGRESSION"
    assert cells["sim_ops_per_s"][0] == "GAIN"
    assert not passed

    # Simulated metrics of runs on different seeds cannot be compared.
    rows, _passed = compare.compare(_report(base, parent_starts),
                                    _report(change, change_starts, first_seed=11))
    assert rows[0][2]["sim_lat_p99_cycles"][0] == "unresolved"

    # Same values, but every parent run first: the order is not alternating.
    rows, passed = compare.compare(_report(base, range(10)),
                                   _report(base, range(10, 20)))
    assert "not alternating" in rows[0][1] and not passed
