# Convenience targets for the m-LIGHT reproduction.

PYTHON ?= python

.PHONY: install lint loc reach test bench bench-smoke bench-full perf perf-test perf-pairs experiments experiments-full clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

lint:
	$(PYTHON) -m ruff check src tests benchmarks examples tools

# Code lines (no comments, docstrings, blanks) per package and in total:
# the measure the simplicity PRs quote.
loc:
	$(PYTHON) tools/loc.py src

# Public names under src/ that nothing outside tests/ refers to
# (tools/reach.py); tests/test_layering.py holds the allowlist.
reach:
	$(PYTHON) tools/reach.py

test:
	$(PYTHON) -m pytest tests/

# benchmarks/ asserts paper claims and plane gates over counts and
# writes the count tables to results/*.txt; wall-clock is `make perf`.
bench:
	$(PYTHON) -m pytest benchmarks/

bench-smoke:
	REPRO_BENCH_SIZE=2000 $(PYTHON) -m pytest benchmarks/ -m smoke

bench-full:
	REPRO_BENCH_FULL=1 $(PYTHON) -m pytest benchmarks/

# The floor-timed benchmark BENCHMARK.json declares (perf/README.md):
# every workload, each in its own process, results to perf/out/.
perf:
	python3 perf/run.py --all --seed 0

perf-test:
	PYTHONPATH=src $(PYTHON) -m pytest perf/ -q

# Alternating parent/change pairs of every workload, judged against the
# bounds in BENCHMARK.json (tools/perf_pairs.py): make perf-pairs PARENT=<rev>
perf-pairs:
	$(PYTHON) tools/perf_pairs.py --parent $(PARENT)

# Every catalogue table at the benchmarks' default scale, stamped, into
# results/ (the files `make bench` publishes); -full is the paper scale.
experiments:
	$(PYTHON) -m repro.experiments.run_all --size 12000 --charts --out results

experiments-full:
	$(PYTHON) -m repro.experiments.run_all --full

clean:
	rm -rf .pytest_cache .hypothesis build dist *.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
