"""``python -m repro`` — entry point hub.

Prints the library's version and where to go next; the real entry
points are the experiment CLIs.
"""

import sys

from repro import __version__

USAGE = f"""repro {__version__} — m-LIGHT (ICDCS 2009) reproduction

Entry points:
  python -m repro.experiments.run_all [--full] [--charts]
      regenerate every evaluation table (Figs. 5-7 + ablations)
  python -m repro.experiments.report --size N -o report.md
      self-checking markdown report (every claim machine-verified)
  pytest tests/
      the test suite
  pytest benchmarks/
      the paper's claims asserted over count tables (results/*.txt)
  python3 perf/run.py --all
      the wall-clock benchmark (BENCHMARK.json, perf/README.md)

Examples live in examples/; start with examples/quickstart.py.
Documentation: README.md, DESIGN.md, EXPERIMENTS.md, docs/.
"""


def main() -> int:
    try:
        print(USAGE)
    except BrokenPipeError:
        pass  # piped into head etc.; nothing to clean up
    return 0


if __name__ == "__main__":
    sys.exit(main())
