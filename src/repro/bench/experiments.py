"""The paper's evaluation, E1-E7, each experiment defined once.

:data:`EXPERIMENTS` maps each tag to its runner, its quick and full
keyword arguments and one formatter that renders the runner's result as
measured-vs-paper lines.  ``python -m repro experiments``,
``examples/reproduce_paper.py`` and ``benchmarks/`` all read this table.
``repro.bench`` does not import this module, so importing
``repro.bench.paper_data`` alone stays as cheap as it was.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable

from repro.bench import paper_data
from repro.bench.macro import (
    run_coremark_experiment,
    run_iozone_experiment,
    run_redis_experiment,
    run_rv8_experiment,
)
from repro.bench.microbench import (
    run_page_fault_experiment,
    run_switch_path_experiment,
    run_vcpu_switch_experiment,
)
from repro.bench.tables import human_bytes


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One paper experiment: what runs it, at which scale, how it reads."""

    title: str
    run: Callable[..., dict]
    #: Keyword arguments of the documented scaled-down load (the default).
    quick: dict
    #: Keyword arguments of the paper-scale load (``--full``, ``REPRO_FULL=1``).
    full: dict
    #: Result -> measured-vs-paper lines.
    format: Callable[[dict], Iterable[str]]

    def kwargs(self, full: bool) -> dict:
        """A copy of the runner kwargs at the chosen scale."""
        return dict(self.full if full else self.quick)


def _switch_formatter(paper: dict, before: str, after: str):
    """E1/E2: per direction, the ``before`` -> ``after`` cycles and the gain."""
    def format_switch(r):
        for d in ("entry", "exit"):
            yield (f"CVM {d}: {before.replace('_', ' ')} {r[f'{d}_{before}']:.0f} -> "
                   f"{after.replace('_', ' ')} "
                   f"{r[f'{d}_{after}']:.0f} cycles ({r[f'{d}_improvement_pct']:.1f}% "
                   f"better; paper {paper[f'{d}_{before}']} -> {paper[f'{d}_{after}']}, "
                   f"{paper[f'{d}_improvement_pct']}%)")
    return format_switch


def _format_page_fault(r):
    p = paper_data.PAGE_FAULT
    for key in ("normal_vm", "cvm_stage1", "cvm_stage2", "cvm_stage3", "cvm_average"):
        yield f"{key:<12} {r[key]:>9.0f} cycles (paper {p[key]:>7})"


def _format_rv8(r):
    for name, row in r["benchmarks"].items():
        yield (f"{name:<10} {row['normal_1e9_extrapolated']:>8.3f} -> "
               f"{row['cvm_1e9_extrapolated']:>8.3f} x1e9 cycles  "
               f"({row['overhead_pct']:+.2f}%; paper {row['paper_overhead_pct']:+.2f}%)")
    yield (f"{'Average':<10} {'':>23} ({r['average_overhead_pct']:+.2f}%; "
           f"paper {paper_data.RV8_AVERAGE_OVERHEAD_PCT:+.2f}%)")


def _format_coremark(r):
    p = paper_data.COREMARK
    yield (f"normal {r['normal_score']:.1f} (paper {p['normal_score']}), "
           f"CVM {r['cvm_score']:.1f} (paper {p['cvm_score']}), "
           f"drop {r['overhead_pct']:.2f}% (paper {p['overhead_pct']}%)")


def _format_redis(r):
    p = paper_data.REDIS
    for op, row in r["ops"].items():
        yield (f"{op:<11} {row['normal_throughput_rps']:>6.0f} -> "
               f"{row['cvm_throughput_rps']:>6.0f} rps ({row['throughput_drop_pct']:+.2f}%)"
               f"   latency {row['latency_increase_pct']:+.2f}%")
    yield (f"average: throughput drop {r['avg_throughput_drop_pct']:+.2f}% "
           f"(paper {p['avg_throughput_drop_pct']:+.2f}%), latency "
           f"{r['avg_latency_increase_pct']:+.2f}% (paper {p['avg_latency_increase_pct']:+.2f}%)")


def _format_iozone(r):
    for cell in r["cells"]:
        yield (f"{human_bytes(cell['file_bytes']):>6}/{human_bytes(cell['record_bytes']):<6}"
               f" write {cell['write_normal_kb_s']:>7,.0f} KB/s "
               f"({cell['write_overhead_pct']:+6.2f}%)   "
               f"read {cell['read_normal_kb_s']:>7,.0f} KB/s "
               f"({cell['read_overhead_pct']:+6.2f}%)")
    worst = max(r["cells"], key=lambda c: c["read_overhead_pct"])
    yield (f"worst read overhead {worst['read_overhead_pct']:+.2f}% at "
           f"{human_bytes(worst['file_bytes'])}/{human_bytes(worst['record_bytes'])} "
           f"(paper: up to +{paper_data.IOZONE['large_file_overhead_pct_max']:.0f}%)")


#: Tag -> experiment, in the paper's order (DESIGN.md's per-experiment index).
EXPERIMENTS = {
    "E1": Experiment("shared vCPU world switch (section V-B.1)",
                     run_vcpu_switch_experiment,
                     {"iterations": 50}, {"iterations": 200},
                     _switch_formatter(paper_data.VCPU_SWITCH, "without_shared", "with_shared")),
    "E2": Experiment("short-path vs long-path CVM mode (section V-B.2)",
                     run_switch_path_experiment,
                     {"iterations": 50}, {"iterations": 200},
                     _switch_formatter(paper_data.SWITCH_PATH, "long_path", "short_path")),
    "E3": Experiment("stage-2 page-fault handling (section V-C)",
                     run_page_fault_experiment,
                     {"pages": 512}, {"pages": 2048}, _format_page_fault),
    "E4": Experiment("RV8 benchmarks (Table I)", run_rv8_experiment,
                     {"scale": 0.01}, {"scale": 0.1}, _format_rv8),
    "E5": Experiment("CoreMark (section V-D)", run_coremark_experiment,
                     {"iterations": 1_500}, {"iterations": 10_000}, _format_coremark),
    "E6": Experiment("Redis benchmark (Fig. 3)", run_redis_experiment,
                     {"requests": 300}, {"requests": 2_000}, _format_redis),
    # size_scale=4: joint file/cache scaling keeps the streamed fraction
    # that drives the overhead (run_iozone_experiment's docstring).
    "E7": Experiment("IOZone (Fig. 4)", run_iozone_experiment,
                     {"size_scale": 4}, {"size_scale": 1}, _format_iozone),
}


def run_experiments(full: bool = False, only=None) -> int:
    """Run ``only`` (a set of tags; every tag when ``None``) and print each."""
    for tag, experiment in EXPERIMENTS.items():
        if only is not None and tag not in only:
            continue
        title = f"{tag} {experiment.title}"
        print(f"\n===== {title} " + "=" * max(0, 60 - len(title)))
        for line in experiment.format(experiment.run(**experiment.kwargs(full))):
            print(f"  {line}")
    return 0
