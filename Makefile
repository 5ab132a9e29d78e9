PYTHON ?= python

.PHONY: install verify test test-fast bench bench-full experiments faults perf perf-compare lint lint-changed lint-strict linkcheck fleet zbench zbench-compare zbench-trace examples clean

install:
	pip install -e .

# The exact tier-1 gate CI runs: works from a clean checkout, no install.
verify:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -x -q

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -x -q --ignore=tests/properties

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

experiments:
	$(PYTHON) -m repro experiments

# Wall-clock perf suite: cycle goldens plus each scenario's check (INTERNALS §11).
perf:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro perf

# Re-run the perf suite and print per-scenario wall/cycle deltas against
# the committed BENCH_PERF.json (read before the report is overwritten).
perf-compare:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro perf --compare BENCH_PERF.json

# zionlint: static trust-boundary/taint/charging analysis (INTERNALS §12).
# Fails on findings that are neither pragma-suppressed nor baselined.
lint:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro lint

# Diff-aware pre-commit lint: full-package analysis, findings reported
# only for files that differ from HEAD.
lint-changed:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro lint --changed

# Strict lint: the baseline earns no credit (pragmas still count), plus
# the ratchet check that the committed baseline has not grown.
lint-strict:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro lint --strict
	$(PYTHON) tools/check_baseline_ratchet.py

# Fleet orchestrator: multi-host CVM lifecycle + live migration under
# adversarial load, acceptance-sized campaign (docs/FLEET.md).
fleet:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro fleet --hosts 4 --cvms 12 --seeds 3

# zbench, every workload once at its canonical rounds only (no extra timed
# seconds): prints every metric and fails on any wrong output (zbench/README.md).
zbench:
	$(PYTHON) zbench/run.py --seconds 0

# Perf evidence, step 1: 10 alternating parent/change pairs on seeds 1-10
# of every workload, one after another, with the GAIN/REGRESSION verdict
# per metric; each lands in zbench/out/cmp/<workload>.  A change can
# regress a workload it did not target, so all four run unless W= picks one.
# Usage: make zbench-compare PARENT=<checkout of the parent> [W=<workload>]
ZBENCH_WORKLOADS = $(shell $(PYTHON) -c "import json; print(*(w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']))")
zbench-compare:
	@test -n "$(PARENT)" || { echo "usage: make zbench-compare PARENT=<dir> [W=<workload>]"; exit 2; }
	@set -e; for w in $(or $(W),$(ZBENCH_WORKLOADS)); do \
		echo "== $$w"; \
		$(PYTHON) zbench/compare.py --collect $(PARENT) . --workload $$w --out-dir zbench/out/cmp/$$w; \
	done

# Perf evidence, step 2: one workload's per-layer traced run (canonical
# rounds only); fails unless the simulated metrics match the untraced run.
# Usage: make zbench-trace W=<workload>
zbench-trace:
	@test -n "$(W)" || { echo "usage: make zbench-trace W=<workload>"; exit 2; }
	$(PYTHON) zbench/run.py --workload $(W) --seconds 0 --trace 1

# Verify every relative link in README/docs resolves to a real file.
linkcheck:
	$(PYTHON) tools/check_links.py

# Seeded adversarial fault-injection campaign (see docs/INTERNALS.md §10).
faults:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro faults --seeds 25

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
