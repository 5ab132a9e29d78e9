"""Campaign runner + CLI: seeds run clean and replay exactly."""

from repro.__main__ import main
from repro.faults.campaign import run_campaign, run_seed


def test_seed_zero_is_contained():
    result = run_seed(0, rounds=4)
    assert result.ok
    assert result.injected >= 1
    assert result.crashes == []
    assert result.violations == []


def test_replay_is_deterministic():
    """The documented repro workflow: --seed K reproduces a run exactly."""
    first = run_seed(3, rounds=4)
    second = run_seed(3, rounds=4)
    assert first.plan == second.plan
    assert first.injected == second.injected
    assert first.outcomes == second.outcomes
    assert first.contained == second.contained
    assert first.crashes == second.crashes
    assert first.violations == second.violations


def test_campaign_runs_each_seed_once():
    results = run_campaign([0, 1], rounds=3)
    assert [r.seed for r in results] == [0, 1]
    assert all(r.summary().startswith(f"seed {r.seed:>4}") for r in results)


def test_cli_faults_campaign(capsys):
    assert main(["faults", "--seeds", "2", "--rounds", "3"]) == 0
    out = capsys.readouterr().out
    assert "campaign: 2 seeds" in out
    assert "0 failing" in out


def test_cli_single_seed_replay(capsys):
    assert main(["faults", "--seed", "1", "--rounds", "3", "-v"]) == 0
    out = capsys.readouterr().out
    assert "campaign: 1 seeds" in out
    assert "plan: seed=1:" in out


def test_eight_seed_campaign_injects_its_pinned_fault_counts():
    """The CI smoke campaign, pinned: which faults land where depends on
    which access path serves each access (the injector's timer seam
    counts ``check_timer`` calls), so moving work between paths shows
    here as a changed count, not only as a changed total."""
    results = run_campaign(range(8))
    assert [r.injected for r in results] == [4, 3, 3, 2, 2, 2, 1, 3]
    assert sum(r.injected for r in results) == 20
    for result in results:
        assert (result.contained, result.crashes, result.violations) == ([], [], [])
