#!/usr/bin/env python3
"""Regenerate every number of the paper's evaluation section in one run.

Runs experiments E1-E7 (DESIGN.md's per-experiment index) at their
documented scaled loads and prints measured-vs-paper for each table and
figure; the loads and the formatting are ``repro.bench.experiments``,
the table ``python -m repro experiments`` reads too.  Pass ``--full``
for the paper-scale loads (slower).
"""

import sys

from repro.bench.experiments import run_experiments

if __name__ == "__main__":
    sys.exit(run_experiments(full="--full" in sys.argv))
