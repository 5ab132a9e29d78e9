"""E7 (paper Fig. 4): IOZone sequential read/write throughput.

Regenerates the figure's grid: write and read throughput for file sizes
64 KB - 512 MB at record sizes 8/128/512 KB, for the normal and the
confidential VM.  The paper's shape: minimal difference (<5%) for
cache-resident files, overhead growing toward ~20% for the largest files
as device exits dominate; lower absolute throughput at small records.
"""

from repro.bench import paper_data
from repro.bench.tables import format_comparison_table, human_bytes


def test_bench_iozone_fig4(run_experiment, print_table):
    result = run_experiment("E7")
    rows = [
        (
            f"{human_bytes(cell['file_bytes'])}/{human_bytes(cell['record_bytes'])}",
            {
                "w_normal": cell["write_normal_kb_s"],
                "w_cvm": cell["write_cvm_kb_s"],
                "w_over": cell["write_overhead_pct"],
                "r_normal": cell["read_normal_kb_s"],
                "r_cvm": cell["read_cvm_kb_s"],
                "r_over": cell["read_overhead_pct"],
            },
        )
        for cell in result["cells"]
    ]
    print_table(
        format_comparison_table(
            "E7 IOZone (Fig. 4)",
            rows,
            [
                ("w_normal", "wr normal KB/s", ".0f"),
                ("w_cvm", "wr CVM KB/s", ".0f"),
                ("w_over", "wr over %", "+.2f"),
                ("r_normal", "rd normal KB/s", ".0f"),
                ("r_cvm", "rd CVM KB/s", ".0f"),
                ("r_over", "rd over %", "+.2f"),
            ],
        )
    )
    cache = 128 << 20
    by_record: dict = {}
    for cell in result["cells"]:
        by_record.setdefault(cell["record_bytes"], []).append(cell)
        for op in ("write", "read"):
            over = cell[f"{op}_overhead_pct"]
            if cell["file_bytes"] <= cache // 2:
                # Paper: "for smaller files, the performance difference is
                # minimal (under 5%)".
                assert over < 5.0, (cell["file_bytes"], op)
            assert over < paper_data.IOZONE["large_file_overhead_pct_max"] + 2.0
    # Paper: overhead grows with file size ("as file sizes grow, the
    # confidential VM's overhead increases, reaching up to 20%").
    for record_bytes, cells in by_record.items():
        cells.sort(key=lambda c: c["file_bytes"])
        small = cells[0]["write_overhead_pct"]
        large = cells[-1]["write_overhead_pct"]
        assert large > small + 5, record_bytes
        assert large > 8.0, record_bytes
    # Paper: "throughput [is] lower when the record size is small".
    records = sorted(by_record)
    biggest_file = max(c["file_bytes"] for c in result["cells"])
    tp = {
        r: next(
            c["write_normal_kb_s"] for c in by_record[r]
            if c["file_bytes"] == biggest_file
        )
        for r in records
    }
    assert tp[records[0]] < tp[records[-1]]
