"""Campaign runner + CLI: seeds run clean and replay exactly."""

import pytest

from repro.__main__ import main
from repro.faults import campaign
from repro.faults.campaign import run_campaign, run_seed
from repro.faults.injector import FaultInjector
from repro.machine import Machine


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
    """The CI smoke campaign, pinned: each seam counts events the machine
    records (entries carrying a reply, doorbell and pool-expand upcalls,
    SM stage-2 faults), so a change to what the machine does at a seam
    shows here as a changed count, not only as a changed total."""
    results = run_campaign(range(8))
    assert [r.injected for r in results] == [4, 3, 3, 2, 2, 2, 1, 3]
    assert sum(r.injected for r in results) == 20
    for result in results:
        assert (result.contained, result.crashes, result.violations) == ([], [], [])


def _injection_on_path(monkeypatch, seed: int, reference: bool):
    """Seed ``seed``'s campaign on an engine or a reference-only machine:
    what it injected, each seam's occurrence count, the final ledger."""
    injectors = []

    class Recorded(FaultInjector):
        def __init__(self, machine, plan):
            super().__init__(machine, plan)
            injectors.append(self)

    def build(config):
        machine = Machine(config)
        machine._reference_only = reference
        return machine

    monkeypatch.setattr(campaign, "Machine", build)
    monkeypatch.setattr(campaign, "FaultInjector", Recorded)
    run_seed(seed)
    (injector,) = injectors
    return injector.applied, dict(injector._counters), injector.machine.ledger.total


@pytest.mark.parametrize("seed", range(8))
def test_a_seed_injects_alike_on_both_access_paths(monkeypatch, seed):
    """Every seam counts events both access paths produce identically,
    so a seed fires the same faults at the same cycles on each."""
    engine = _injection_on_path(monkeypatch, seed, reference=False)
    reference = _injection_on_path(monkeypatch, seed, reference=True)
    assert engine == reference
