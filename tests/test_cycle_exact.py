"""Cycle-exactness goldens: the guard-rail for all wall-clock perf work.

The repository's one hard performance invariant is that optimizations may
change how fast *Python* executes the simulation, but never what the
model charges: simulated cycle totals and per-category breakdowns must be
bit-identical before and after any fast-path change.

These tests pin that invariant.  Each golden workload runs with fixed
inputs (everything in the pipeline is deterministic) and its final
``ledger.total`` plus full ``by_category()`` breakdown are compared
against ``goldens/cycle_exact.json``, which was recorded from the
pre-optimization tree.  If a test here fails, the change under review
altered the *performance model* -- that is a model change requiring its
own justification (and a deliberate re-record), never a side effect an
optimization is allowed to have.

Re-record (deliberately!) with::

    PYTHONPATH=src python tests/test_cycle_exact.py --record
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

GOLDEN_PATH = pathlib.Path(__file__).parent / "goldens" / "cycle_exact.json"


def _run_memstress_cvm():
    from repro.bench.perf import run_memstress

    run = run_memstress(pages=512)
    return run.total_cycles, run.breakdown


def _run_memstress_normal():
    from repro.machine import Machine, MachineConfig
    from repro.workloads.memstress import sequential_write_stress

    machine = Machine(MachineConfig())
    session = machine.launch_normal_vm()
    machine.run(session, sequential_write_stress(256))
    return (
        machine.ledger.total,
        {cat.name: v for cat, v in machine.ledger.by_category().items()},
    )


def _run_pingpong():
    from repro.bench.perf import run_pingpong

    run = run_pingpong(rounds=8, message_size=256)
    return run.total_cycles, run.breakdown


def _run_switch_path():
    from repro.bench.perf import run_switch_path

    run = run_switch_path(iterations=50)
    return run.total_cycles, run.breakdown


#: The golden workloads: small enough for tier-1, wide enough to cover
#: the whole guest memory pipeline (SM fault path, KVM fault path,
#: channel IPC + scheduler, world-switch loop).
GOLDEN_WORKLOADS = {
    "memstress_cvm_512": _run_memstress_cvm,
    "memstress_normal_256": _run_memstress_normal,
    "pingpong_8x256": _run_pingpong,
    "switch_path_short_50": _run_switch_path,
}


@pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
def test_cycle_exact(name):
    goldens = json.loads(GOLDEN_PATH.read_text())
    assert name in goldens, (
        f"no golden recorded for {name}; run "
        "`PYTHONPATH=src python tests/test_cycle_exact.py --record`"
    )
    total, breakdown = GOLDEN_WORKLOADS[name]()
    golden = goldens[name]
    assert total == golden["total"], (
        f"{name}: simulated cycle total drifted "
        f"{total - golden['total']:+d} from the recorded model"
    )
    assert breakdown == golden["breakdown"], (
        f"{name}: per-category breakdown drifted from the recorded model"
    )


def _record() -> None:
    goldens = {}
    for name, runner in sorted(GOLDEN_WORKLOADS.items()):
        total, breakdown = runner()
        goldens[name] = {"total": total, "breakdown": breakdown}
        print(f"recorded {name}: total={total}")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--record" in sys.argv:
        _record()
    else:
        print(__doc__)
        sys.exit(2)
