"""E6 (paper Fig. 3): Redis throughput and latency per operation type.

Regenerates the figure's series: per-op throughput (requests/s) and
average latency for the normal and the confidential VM, with the paper's
headline deltas (throughput -5.3%, latency +4%).
"""

from repro.bench import paper_data
from repro.bench.tables import format_comparison_table


def test_bench_redis_fig3(run_experiment, print_table):
    result = run_experiment("E6")
    rows = [
        (
            op,
            {
                "normal_tp": row["normal_throughput_rps"],
                "cvm_tp": row["cvm_throughput_rps"],
                "tp_drop": row["throughput_drop_pct"],
                "normal_lat": row["normal_latency_us"],
                "cvm_lat": row["cvm_latency_us"],
                "lat_inc": row["latency_increase_pct"],
            },
        )
        for op, row in result["ops"].items()
    ]
    print_table(
        format_comparison_table(
            "E6 Redis (Fig. 3)",
            rows,
            [
                ("normal_tp", "normal rps", ".0f"),
                ("cvm_tp", "CVM rps", ".0f"),
                ("tp_drop", "drop %", "+.2f"),
                ("normal_lat", "normal us", ".0f"),
                ("cvm_lat", "CVM us", ".0f"),
                ("lat_inc", "lat %", "+.2f"),
            ],
        )
    )
    print_table(
        "avg throughput drop: {:+.2f}% (paper {:+.2f}%)   "
        "avg latency increase: {:+.2f}% (paper {:+.2f}%)".format(
            result["avg_throughput_drop_pct"],
            paper_data.REDIS["avg_throughput_drop_pct"],
            result["avg_latency_increase_pct"],
            paper_data.REDIS["avg_latency_increase_pct"],
        )
    )
    # Shape: every op loses throughput and gains latency, within a
    # "reasonable range" (the paper's words) of the averages.
    for op, row in result["ops"].items():
        assert 0 < row["throughput_drop_pct"] < 10, op
        assert 0 < row["latency_increase_pct"] < 10, op
    assert abs(
        result["avg_throughput_drop_pct"] - paper_data.REDIS["avg_throughput_drop_pct"]
    ) < 1.5
    assert abs(
        result["avg_latency_increase_pct"] - paper_data.REDIS["avg_latency_increase_pct"]
    ) < 1.5
