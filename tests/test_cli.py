"""CLI smoke tests (python -m repro)."""

import pytest

from repro.__main__ import main


def test_stats_command(capsys):
    assert main(["stats"]) == 0
    out = capsys.readouterr().out
    assert "total cycles" in out
    assert "CVM 1" in out


def test_attack_command_all_blocked(capsys):
    assert main(["attack"]) == 0
    out = capsys.readouterr().out
    assert "SUCCEEDED" not in out
    assert out.count("blocked") == 5


def test_demo_command(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "report verified: True" in out


def test_experiments_subset(capsys):
    assert main(["experiments", "--only", "E1"]) == 0
    out = capsys.readouterr().out
    assert "E1 shared vCPU" in out
    assert "E3" not in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_faults_seams_subset(capsys):
    assert main(["faults", "--seeds", "1", "--seams", "channel"]) == 0
    assert "campaign:" in capsys.readouterr().out


def test_faults_unknown_seam_rejected(capsys):
    assert main(["faults", "--seeds", "1", "--seams", "bogus"]) == 2
    assert "unknown fault seam" in capsys.readouterr().out


def test_fleet_smoke(capsys):
    assert main(["fleet", "--hosts", "2", "--cvms", "4", "--seeds", "1",
                 "--epochs", "4", "--rate", "2", "--min-migrations", "2"]) == 0
    out = capsys.readouterr().out
    assert "fleet campaign: 1 seeds, 0 failing" in out
    assert "violations=0" in out


def test_fleet_seed_replay_clean(capsys):
    assert main(["fleet", "--hosts", "2", "--cvms", "4", "--seed", "0",
                 "--epochs", "3", "--rate", "1", "--seams", "none",
                 "--min-migrations", "1", "-v"]) == 0
    out = capsys.readouterr().out
    assert "plan:" in out
    assert "all attestation-checked: True" in out


def test_fleet_min_migrations_gate(capsys):
    # Epochs 0-1 never migrate, so a 2-epoch run cannot reach the floor.
    assert main(["fleet", "--hosts", "2", "--cvms", "4", "--seeds", "1",
                 "--epochs", "2", "--rate", "2", "--seams", "none",
                 "--min-migrations", "1"]) == 1
    assert "TOO FEW MIGRATIONS" in capsys.readouterr().out


def test_fleet_ablation_table(capsys, monkeypatch):
    # The default grid is acceptance-sized; patch in a tiny one.
    import repro.fleet

    real_ablation = repro.fleet.run_fleet_ablation

    def tiny_grid():
        return real_ablation(rates=(1,), sizes=((2, 4),), epochs=3)

    monkeypatch.setattr(repro.fleet, "run_fleet_ablation", tiny_grid)
    assert main(["fleet", "--ablate"]) == 0
    out = capsys.readouterr().out
    assert "downtime mean" in out
    assert "    2     4     1" in out


def test_perf_virtio_batching_cuts_mmio_exits(tmp_path):
    import json

    out = tmp_path / "perf.json"
    assert main(["perf", "--quick", "--only", "iozone,redis_batch",
                 "--out", str(out)]) == 0
    scenarios = json.loads(out.read_text())["scenarios"]
    for name in ("iozone", "redis_batch"):
        assert scenarios[name]["mmio_exit_reduction"] >= 2, name


def test_perf_fails_an_arm_that_does_not_cut_mmio_exits(tmp_path, capsys, monkeypatch):
    from repro.bench import perf

    real_stats = perf._virtio_arm_stats

    def same_exits_on_both_arms(machine, device):
        return {**real_stats(machine, device), "mmio_exits": 10}

    monkeypatch.setattr(perf, "_virtio_arm_stats", same_exits_on_both_arms)
    assert main(["perf", "--quick", "--only", "iozone",
                 "--out", str(tmp_path / "perf.json")]) == 1
    out = capsys.readouterr().out
    assert "SCENARIO CHECK: iozone: MMIO-exit reduction 1.00x < 2x" in out
    assert "golden check: all simulated cycle totals match" in out


def test_perf_fails_a_cluster_run_with_client_errors(tmp_path, capsys, monkeypatch):
    from repro.bench import redis_cluster

    real_summary = redis_cluster.summarise_cluster

    def one_error(*args):
        return {**real_summary(*args), "errors": 1}

    monkeypatch.setattr(redis_cluster, "summarise_cluster", one_error)
    assert main(["perf", "--quick", "--only", "redis_cluster",
                 "--out", str(tmp_path / "perf.json")]) == 1
    assert "SCENARIO CHECK: redis_cluster: 1 client errors" in capsys.readouterr().out
