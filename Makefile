# Convenience targets for the m-LIGHT reproduction.

PYTHON ?= python

.PHONY: install lint loc reach test test-faults trace-smoke bench bench-smoke bench-hotpath bench-dataplane bench-adaptive bench-durable bench-mcast bench-full bench-service perf perf-test perf-pairs experiments experiments-full clean

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

test-faults:
	$(PYTHON) -m pytest tests/test_faults.py tests/test_churn.py tests/test_retry.py
	REPRO_BENCH_SIZE=1500 $(PYTHON) -m pytest benchmarks/test_faults.py -m smoke

trace-smoke:
	$(PYTHON) -m repro.experiments.trace_report --smoke
	$(PYTHON) -m pytest tests/test_obs.py benchmarks/test_trace_overhead.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-smoke:
	REPRO_BENCH_SIZE=2000 $(PYTHON) -m pytest benchmarks/ -m smoke

bench-hotpath:
	REPRO_BENCH_SIZE=12000 $(PYTHON) -m pytest benchmarks/test_hotpath.py

bench-dataplane:
	REPRO_BENCH_SIZE=12000 REPRO_BENCH_MILLION=1 $(PYTHON) -m pytest benchmarks/test_dataplane.py

bench-adaptive:
	REPRO_BENCH_SIZE=12000 $(PYTHON) -m pytest benchmarks/test_adaptive.py
	$(PYTHON) -m pytest tests/test_adaptive.py

bench-durable:
	REPRO_BENCH_SIZE=12000 $(PYTHON) -m pytest benchmarks/test_durable.py
	$(PYTHON) -m pytest tests/test_durable.py

bench-mcast:
	REPRO_BENCH_SIZE=12000 $(PYTHON) -m pytest benchmarks/test_mcast.py
	$(PYTHON) -m pytest tests/test_mcast.py

bench-full:
	REPRO_BENCH_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-service:
	$(PYTHON) -m pytest benchmarks/test_service_load.py -m smoke
	$(PYTHON) -m pytest tests/test_service.py tests/test_service_equivalence.py

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

experiments:
	$(PYTHON) -m repro.experiments.run_all --charts

experiments-full:
	$(PYTHON) -m repro.experiments.run_all --full --csv-dir results/csv

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks build dist *.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
