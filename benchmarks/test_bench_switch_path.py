"""E2 (paper section V-B.2): short-path vs long-path CVM mode switching.

Regenerates the timer-triggered entry/exit cycle counts for ZION's
single-privilege-switch design against the secure-hypervisor (long-path)
baseline built for the comparison.
"""

from repro.bench import paper_data
from repro.bench.tables import format_comparison_table


def test_bench_switch_path(run_experiment, print_table):
    result = run_experiment("E2")
    paper = paper_data.SWITCH_PATH
    rows = [
        (
            "CVM entry",
            {
                "long": result["entry_long_path"],
                "short": result["entry_short_path"],
                "impr": result["entry_improvement_pct"],
                "paper_long": paper["entry_long_path"],
                "paper_short": paper["entry_short_path"],
                "paper_impr": paper["entry_improvement_pct"],
            },
        ),
        (
            "CVM exit",
            {
                "long": result["exit_long_path"],
                "short": result["exit_short_path"],
                "impr": result["exit_improvement_pct"],
                "paper_long": paper["exit_long_path"],
                "paper_short": paper["exit_short_path"],
                "paper_impr": paper["exit_improvement_pct"],
            },
        ),
    ]
    print_table(
        format_comparison_table(
            "E2 switch path",
            rows,
            [
                ("long", "long (cyc)", ".0f"),
                ("short", "short (cyc)", ".0f"),
                ("impr", "impr %", ".1f"),
                ("paper_long", "paper long", ".0f"),
                ("paper_short", "paper short", ".0f"),
                ("paper_impr", "paper impr %", ".1f"),
            ],
        )
    )
    assert result["entry_short_path"] < result["entry_long_path"]
    assert result["exit_short_path"] < result["exit_long_path"]
    # The paper's headline factors: ~45% entry, ~55% exit improvement.
    assert abs(result["entry_improvement_pct"] - paper["entry_improvement_pct"]) < 7
    assert abs(result["exit_improvement_pct"] - paper["exit_improvement_pct"]) < 7
    for key in ("entry_long_path", "entry_short_path",
                "exit_long_path", "exit_short_path"):
        assert abs(result[key] - paper[key]) / paper[key] < 0.15, key
