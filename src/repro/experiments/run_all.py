"""Regenerate every evaluation table.

Usage::

    python -m repro.experiments.run_all            # reduced scale, ~1-2 min
    python -m repro.experiments.run_all --full     # paper scale (123,593 pts)
    python -m repro.experiments.run_all --size 50000 --out results

Prints the stamp line (scale, seed, commit) and every table of the
catalogue (Figs. 5/6/7, ablations A1-A5, extensions E9-E15) to stdout;
``--out DIR`` also writes each table to ``DIR/<file>`` under the same
stamp, the files ``pytest benchmarks/`` publishes at the same
``REPRO_BENCH_SIZE``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.datasets.northeast import NE_CARDINALITY, northeast_surrogate
from repro.experiments.catalogue import (
    CATALOGUE,
    PAPER_CONFIG,
    run,
    stamp,
    table,
    write_table,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--size", type=int, default=20_000,
        help="dataset cardinality (default 20000)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help=f"use the paper's full cardinality ({NE_CARDINALITY})",
    )
    parser.add_argument(
        "--queries", type=int, default=10,
        help="range queries per span (default 10)",
    )
    parser.add_argument(
        "--out", default=None,
        help="also write every table, stamped, under this directory",
    )
    parser.add_argument(
        "--charts", action="store_true",
        help="also render ASCII charts of each figure",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    size = NE_CARDINALITY if args.full else args.size
    print(stamp(size, args.seed))
    print(f"dataset: NE surrogate, {size} points; D={PAPER_CONFIG.max_depth}")
    points = northeast_surrogate(size)

    started = time.time()
    for entry in CATALOGUE:
        print(f"\n=== {entry.heading or entry.title} ===")
        result = run(
            entry, points, args.seed, queries_per_span=args.queries
        )
        text = table(entry, result)
        print(text)
        if args.out:
            write_table(args.out, entry.file, text, size, args.seed)
        if args.charts:
            for chart in entry.charts:
                print()
                print(chart(result))
    print(f"\ndone in {time.time() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
