"""The perf harness's own checks: goldens, the wall gate, the median pick,
the bytecode counts."""

import json
import os
import pathlib
import subprocess
import sys

from repro.__main__ import main
from repro.bench import perf
from repro.bench.perf import ScenarioRun


def _run(name, wall=1.0, total=100):
    return ScenarioRun(name=name, params={}, wall_seconds=wall, cycles=total,
                       total_cycles=total, breakdown={})


def test_quick_subset_matches_its_goldens(tmp_path, capsys):
    out = tmp_path / "perf.json"
    assert main(["perf", "--quick", "--only", "switch_path,pingpong",
                 "--out", str(out)]) == 0
    assert "golden check: all simulated cycle totals match" in capsys.readouterr().out
    scenarios = json.loads(out.read_text())["scenarios"]
    goldens = perf.load_goldens()["quick"]
    assert list(scenarios) == ["pingpong", "switch_path"]
    for name, scenario in scenarios.items():
        assert scenario["total_cycles"] == goldens[name]


def test_check_gate_flags_slow_and_unbaselined_runs():
    baseline = {"scenarios": {"a": {"wall_seconds": 1.0}}}
    assert perf.check_gate([_run("a", wall=0.9)], baseline) == []
    assert perf.check_gate([_run("a", wall=1.09)], baseline) == []
    slow, missing = perf.check_gate([_run("a", wall=1.2), _run("b")], baseline)
    assert slow.startswith("a: wall 1.200s exceeds baseline 1.000s")
    assert missing == "b: no baseline wall time recorded"


def test_median_runs_picks_each_scenarios_median():
    repeats = [
        [_run("a", wall=3.0), _run("b", wall=5.0)],
        [_run("a", wall=1.0), _run("b", wall=6.0)],
        [_run("a", wall=2.0), _run("b", wall=4.0)],
    ]
    chosen = perf.median_runs(repeats)
    assert [(run.name, run.wall_seconds) for run in chosen] == [("a", 2.0), ("b", 5.0)]


def test_check_goldens_flags_drift_and_missing_goldens():
    goldens = {"quick": {"a": 100}}
    assert perf.check_goldens([_run("a", total=100)], quick=True, goldens=goldens) == []
    drift, missing = perf.check_goldens(
        [_run("a", total=101), _run("b")], quick=True, goldens=goldens)
    assert drift.startswith("a: simulated cycle total 101 != golden 100 (drift +1)")
    assert missing == "b: no quick-mode golden recorded"
    assert perf.check_goldens([_run("a", total=100)], quick=False, goldens=goldens) == [
        "a: no full-mode golden recorded"]


def test_bytecodes_are_reported_per_scenario_and_package(tmp_path):
    out = tmp_path / "perf.json"
    assert main(["perf", "--quick", "--only", "switch_path", "--bytecodes",
                 "--out", str(out)]) == 0
    bytecodes = json.loads(out.read_text())["bytecodes"]
    assert bytecodes["scale"] == "quick"
    counted = bytecodes["scenarios"]["switch_path"]
    assert counted["total"] == sum(counted["by_package"].values())
    # The world-switch loop runs in the SM, over memory and the ISA model.
    assert {"sm", "mem", "isa"} <= set(counted["by_package"])


_COUNT = "from repro.bench import perf; print(perf.count_bytecodes(['switch_path']))"


def test_bytecode_counts_do_not_depend_on_the_hash_seed():
    src = pathlib.Path(perf.__file__).resolve().parent.parent.parent
    counts = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        counts.append(subprocess.run([sys.executable, "-c", _COUNT], env=env,
                                     capture_output=True, text=True, check=True).stdout)
    assert counts[0] == counts[1]
    assert str(perf.count_bytecodes(["switch_path"])) + "\n" == counts[0]
