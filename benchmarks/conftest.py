"""Benchmark-suite configuration.

Each benchmark regenerates one table or figure of the paper (DESIGN.md's
per-experiment index) and prints measured-vs-paper rows.  The simulation
is deterministic, so a single round per benchmark is meaningful;
pytest-benchmark's role here is orchestration + timing of the harness
itself.

Environment knobs:

- ``REPRO_FULL=1`` runs the paper-scale workloads (10x slower); the
  default uses the documented scaled-down loads whose reported
  percentages are scale-invariant.  E1-E7 take both scales from
  ``repro.bench.experiments.EXPERIMENTS`` through ``run_experiment``.
"""

from __future__ import annotations

import os

import pytest


@pytest.fixture(scope="session")
def full_scale() -> bool:
    return os.environ.get("REPRO_FULL") == "1"


@pytest.fixture
def run_experiment(benchmark, full_scale):
    """Run one E1-E7 experiment at this session's scale, timed once.

    The runner and both scales come from
    ``repro.bench.experiments.EXPERIMENTS``, the table the CLI and
    ``examples/reproduce_paper.py`` read too.
    """
    from repro.bench.experiments import EXPERIMENTS

    def _run(tag: str) -> dict:
        experiment = EXPERIMENTS[tag]
        return benchmark.pedantic(
            experiment.run, kwargs=experiment.kwargs(full_scale),
            rounds=1, iterations=1,
        )

    return _run


@pytest.fixture(scope="session")
def print_table(request):
    """Print a formatted table to the *real* stdout.

    The regenerated paper tables are the benchmark suite's primary
    output; suspending pytest's fd-level capture keeps them visible in
    plain ``pytest benchmarks/ --benchmark-only`` runs and in logs.
    """
    capture_manager = request.config.pluginmanager.getplugin("capturemanager")

    def _print(text: str) -> None:
        with capture_manager.global_and_fixture_disabled():
            print("\n" + text, flush=True)

    return _print
