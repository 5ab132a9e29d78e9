"""E4 (paper Table I): RV8 benchmark suite, normal vs confidential VM.

Regenerates Table I's rows: baseline cycles, confidential-VM cycles, and
the per-benchmark overhead percentage, plus the suite average.
"""

from repro.bench import paper_data
from repro.bench.tables import format_comparison_table


def test_bench_rv8_table_i(run_experiment, print_table):
    result = run_experiment("E4")
    rows = []
    for name, row in result["benchmarks"].items():
        rows.append(
            (
                name,
                {
                    "normal_1e9": row["normal_1e9_extrapolated"],
                    "cvm_1e9": row["cvm_1e9_extrapolated"],
                    "overhead": row["overhead_pct"],
                    "paper": row["paper_overhead_pct"],
                },
            )
        )
    rows.append(
        (
            "Average",
            {
                "overhead": result["average_overhead_pct"],
                "paper": paper_data.RV8_AVERAGE_OVERHEAD_PCT,
            },
        )
    )
    print_table(
        format_comparison_table(
            "E4 RV8 (Table I)",
            rows,
            [
                ("normal_1e9", "normal (1e9 cyc)", ".3f"),
                ("cvm_1e9", "CVM (1e9 cyc)", ".3f"),
                ("overhead", "overhead %", "+.2f"),
                ("paper", "paper %", "+.2f"),
            ],
        )
    )
    for name, row in result["benchmarks"].items():
        # The paper's claim: every RV8 overhead stays within 3%.
        assert 0 < row["overhead_pct"] < 3.2, name
        # And each lands near the reported per-benchmark number.
        assert abs(row["overhead_pct"] - row["paper_overhead_pct"]) < 0.8, name
    assert abs(result["average_overhead_pct"] - paper_data.RV8_AVERAGE_OVERHEAD_PCT) < 0.5
