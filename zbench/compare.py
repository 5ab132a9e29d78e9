"""Compare a parent commit's zbench runs with a change's, pair by pair.

    python3 zbench/compare.py PARENT.json CHANGE.json
    python3 zbench/compare.py --collect PARENT_ROOT CHANGE_ROOT \\
        --workload W --out-dir DIR

The first form reads two ``run.py --out`` files.  The second produces
them: for pair ``i`` (10 pairs) it runs both checkouts' ``zbench/run.py``
on seed ``1 + i``, alternating which side runs first, then compares.

The rule, per workload and end-to-end metric, with runs paired in the
order they started:

- at least 10 pairs, run alternately, else the row is ``unresolved``;
- ``GAIN`` only when the change wins at least 9 of every 10 pairs (ties
  count for neither side) and the medians differ by more than the
  parent's interquartile range;
- ``REGRESSION`` when the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
- ``unresolved`` when the parent's own spread (IQR / median) is wider
  than the bound, unless every change run beats every parent run;
- ``same`` when every value is identical on both sides, ``ok`` otherwise.

The simulated metrics (``sim_*``) are a function of the seed alone, so
they are compared exactly, pair by pair, and their bound plays no part:
``same`` when every pair matches, ``REGRESSION`` when any pair is worse,
``GAIN`` when no pair is worse and one is better, and ``unresolved``
when the pairs do not share their seeds.

Exit status 1 when any metric regressed or the runs could not be paired.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
if not __package__:
    sys.path[0:1] = [str(HERE.parent)]  # run as a script: import zbench as a package

from zbench.stats import quartiles  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
MIN_PAIRS = 10
WIN_SHARE = 0.9


def runs_by_workload(report: dict) -> dict:
    """workload -> runs in the order they started."""
    out: dict = {}
    for run in sorted(report["runs"], key=lambda run: run["started_at"]):
        out.setdefault(run["workload"], []).append(run)
    return out


def alternating(parent: list, change: list) -> bool:
    """True when the pairs interleave: each pair's two runs are adjacent
    in time and the side that ran first alternates from pair to pair."""
    timeline = sorted(
        [(run["started_at"], "P") for run in parent]
        + [(run["started_at"], "C") for run in change]
    )
    sides = [side for _, side in timeline]
    pairs = [sides[i:i + 2] for i in range(0, len(sides), 2)]
    if any(sorted(pair) != ["C", "P"] for pair in pairs):
        return False
    return all(a[0] != b[0] for a, b in zip(pairs, pairs[1:]))


def verdict(spec: dict, parent: list, change: list) -> tuple:
    """``(verdict, relative change of the median)`` for one metric."""
    sign = -1.0 if spec["better"] == "lower" else 1.0
    q1, parent_median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    relative = (change_median - parent_median) / parent_median
    if parent == change:
        return "same", relative
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if (wins >= WIN_SHARE * len(parent)
            and sign * (change_median - parent_median) > q3 - q1):
        return "GAIN", relative
    if -sign * relative > spec["bound"]:
        return "REGRESSION", relative
    if (q3 - q1) / parent_median > spec["bound"] and \
            not all(sign * (c - p) > 0 for c in change for p in parent):
        return "unresolved", relative
    return "ok", relative


def exact_verdict(spec: dict, parent: list, change: list) -> tuple:
    """``(verdict, relative change of the median)`` for a simulated
    metric over same-seed pairs: any difference is a real one."""
    sign = -1.0 if spec["better"] == "lower" else 1.0
    parent_median = quartiles(parent)[1]
    relative = (quartiles(change)[1] - parent_median) / parent_median
    if parent == change:
        return "same", relative
    if any(sign * (c - p) < 0 for p, c in zip(parent, change)):
        return "REGRESSION", relative
    return "GAIN", relative


def compare(parent_report: dict, change_report: dict) -> tuple:
    """Rows of ``(workload, note, {metric: (verdict, relative)})`` and
    whether the comparison passed."""
    parent_runs = runs_by_workload(parent_report)
    change_runs = runs_by_workload(change_report)
    rows = []
    passed = True
    for workload, parent in parent_runs.items():
        change = change_runs.get(workload, [])
        pairs = min(len(parent), len(change))
        note = f"{pairs} pairs"
        paired = pairs >= MIN_PAIRS and alternating(parent[:pairs], change[:pairs])
        if not paired:
            note += ", not alternating" if pairs >= MIN_PAIRS else ", too few"
            passed = False
        # A gain does not count when the change fails more operations.
        more_failures = (sum(run["result"]["failed"] for run in change[:pairs])
                         > sum(run["result"]["failed"] for run in parent[:pairs]))
        if more_failures:
            note += ", change failed more ops"
            passed = False
        same_seeds = ([run["result"]["seed"] for run in parent[:pairs]]
                      == [run["result"]["seed"] for run in change[:pairs]])
        cells = {}
        for spec in BENCHMARK["end_to_end"]:
            name = spec["name"]
            p = [run["result"]["metrics"][name] for run in parent[:pairs]]
            c = [run["result"]["metrics"][name] for run in change[:pairs]]
            if not pairs:
                cells[name] = ("missing", 0.0)
                continue
            if name.startswith("sim_"):
                result = exact_verdict(spec, p, c)
                if not same_seeds:
                    result = ("unresolved", result[1])
            else:
                result = verdict(spec, p, c)
                if not paired and result[0] != "same":
                    result = ("unresolved", result[1])
            if more_failures and result[0] == "GAIN":
                result = ("unresolved", result[1])
            passed = passed and result[0] != "REGRESSION"
            cells[name] = result
        rows.append((workload, note, cells))
    return rows, passed


def print_rows(rows: list) -> None:
    names = [spec["name"] for spec in BENCHMARK["end_to_end"]]
    print("workload       " + "".join(f"{name:>22}" for name in names))
    for workload, note, cells in rows:
        line = f"{workload:<15}"
        for name in names:
            label, relative = cells[name]
            line += f"{label + f' {relative:+.2%}':>22}"
        print(f"{line}  ({note})")


def collect(parent_root: pathlib.Path, change_root: pathlib.Path, workload: str,
            out_dir: pathlib.Path) -> tuple:
    """Run both checkouts alternately; returns the two reports."""
    reports = {"parent": {"runs": []}, "change": {"runs": []}}
    roots = {"parent": parent_root, "change": change_root}
    with tempfile.TemporaryDirectory() as tmp:
        for index in range(MIN_PAIRS):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for side in order:
                out = pathlib.Path(tmp) / f"{side}-{index}.json"
                done = subprocess.run(
                    [sys.executable, "zbench/run.py", "--workload", workload,
                     "--seed", str(1 + index), "--out", str(out)],
                    cwd=roots[side], stdout=subprocess.DEVNULL,
                )
                if done.returncode != 0:
                    raise SystemExit(f"{side} run {index} exited {done.returncode}")
                reports[side]["runs"] += json.loads(out.read_text())["runs"]
    out_dir.mkdir(parents=True, exist_ok=True)
    for side, report in reports.items():
        (out_dir / f"{side}.json").write_text(json.dumps(report, indent=1) + "\n")
    return reports["parent"], reports["change"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--collect", action="store_true",
                        help="PARENT and CHANGE are checkouts to run alternately")
    parser.add_argument("--workload", choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--out-dir", type=pathlib.Path)
    args = parser.parse_args(argv)
    if args.collect:
        if args.workload is None or args.out_dir is None:
            parser.error("--collect needs --workload and --out-dir")
        parent, change = collect(args.parent, args.change, args.workload,
                                 args.out_dir)
    else:
        parent = json.loads(args.parent.read_text())
        change = json.loads(args.change.read_text())
    rows, passed = compare(parent, change)
    print_rows(rows)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
