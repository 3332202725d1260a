# Convenience targets for the repro library.

PYTHON ?= python

.PHONY: install test bench bench-check bench-update experiments reports \
	stability sweep goldens check serve-smoke clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# CI throughput gate: perfbench sim-bench pairs of HEAD vs the newest
# committed entry's baseline commit; fails on a >20% ratio regression or
# any run whose outputs fail perfbench's checks.
bench-check:
	$(PYTHON) scripts/bench_gate.py --check

# Write a PR's trajectory entry, e.g.:
#   make bench-update PR=<n> BASELINE=<commit> BASELINE_PR=<m>
bench-update:
	$(PYTHON) scripts/bench_gate.py --write --pr $(PR) \
		--baseline-commit $(BASELINE) --baseline-pr $(BASELINE_PR)

experiments:
	$(PYTHON) scripts/generate_experiments_md.py

stability:
	$(PYTHON) scripts/scale_stability.py

sweep:
	$(PYTHON) -m repro sweep --preset tiny --runs 4 --jobs 4

goldens:
	$(PYTHON) scripts/update_goldens.py

# Every declarative check under checks/ (the CI gate): fault weather,
# the audited ledger, crash recovery, the scenario pack, the
# FP/FN frontier and the paper bands at bench seeds 3/7/11
# (paper-3/7/11, paper-7-only). `python -m repro check NAME...` runs a
# subset.
check:
	$(PYTHON) -m repro check

# Live-service chaos gate: boot the real server subprocess, drive open-loop
# SMTP load, SIGKILL it mid-burst 20 times, and assert zero accepted-message
# loss via WAL replay + ledger reconciliation on every restart.
serve-smoke:
	$(PYTHON) scripts/serve_smoke.py --kills 20 \
		--artifact serve_smoke_report.json

reports: experiments

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .hypothesis .cache
	find . -name __pycache__ -type d -exec rm -rf {} +
