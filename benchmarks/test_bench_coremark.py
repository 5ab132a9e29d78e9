"""E5 (paper section V-D): CoreMark score, normal vs confidential VM."""

from repro.bench import paper_data
from repro.bench.tables import format_comparison_table


def test_bench_coremark(run_experiment, print_table):
    result = run_experiment("E5")
    paper = paper_data.COREMARK
    rows = [
        ("normal VM", {"measured": result["normal_score"], "paper": paper["normal_score"]}),
        ("confidential VM", {"measured": result["cvm_score"], "paper": paper["cvm_score"]}),
        ("drop %", {"measured": result["overhead_pct"], "paper": paper["overhead_pct"]}),
    ]
    print_table(
        format_comparison_table(
            "E5 CoreMark",
            rows,
            [("measured", "measured", ".2f"), ("paper", "paper", ".2f")],
        )
    )
    # Scores within 5% of the paper's; drop within half a point of 2.77%.
    assert abs(result["normal_score"] - paper["normal_score"]) / paper["normal_score"] < 0.05
    assert abs(result["cvm_score"] - paper["cvm_score"]) / paper["cvm_score"] < 0.05
    assert abs(result["overhead_pct"] - paper["overhead_pct"]) < 0.5
