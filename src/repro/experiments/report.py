"""Self-checking markdown report generator.

Runs the full evaluation at a chosen scale and emits a markdown report
in the style of ``EXPERIMENTS.md``, with each paper claim *verified
programmatically* and stamped ``reproduced`` / ``NOT reproduced``.
Useful for checking that code changes keep every qualitative result
intact at a scale larger than the test suite's.

Usage::

    python -m repro.experiments.report --size 20000 -o report.md
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from dataclasses import replace

from repro.common.config import IndexConfig
from repro.common.geometry import Point
from repro.datasets.northeast import northeast_surrogate
from repro.experiments import fig5, fig6, fig7
from repro.experiments.catalogue import BY_KEY, PAPER_CONFIG, run, table


def _verdict(ok: bool) -> str:
    return "**reproduced**" if ok else "**NOT reproduced**"


def check_fig5(series: list[fig5.MaintenanceSeries]) -> list[tuple[str, bool]]:
    """The Fig. 5 claims as (description, holds?) pairs."""
    by_name = {entry.scheme: entry for entry in series}
    mlight = by_name["mlight"]
    pht = by_name["pht"]
    dst = by_name["dst"]
    checks = [
        (
            "cumulative costs grow monotonically (linear curves)",
            all(
                list(entry.lookups) == sorted(entry.lookups)
                for entry in series
            ),
        ),
        (
            "m-LIGHT spends fewer DHT-lookups than PHT",
            mlight.lookups[-1] < pht.lookups[-1],
        ),
        (
            "m-LIGHT saves >=20% of PHT's maintenance lookups "
            "(paper: ~40%)",
            mlight.lookups[-1] < 0.8 * pht.lookups[-1],
        ),
        (
            "DST is >=5x PHT in lookups (order of magnitude)",
            dst.lookups[-1] > 5 * pht.lookups[-1],
        ),
        (
            "DST is >=5x PHT in data movement",
            dst.records_moved[-1] > 5 * pht.records_moved[-1],
        ),
    ]
    return checks


def check_fig6(series: list[fig6.LoadBalanceSeries]) -> list[tuple[str, bool]]:
    by_name = {entry.strategy: entry for entry in series}
    threshold = by_name["threshold"].samples[-1]
    data_aware = by_name["data-aware"].samples[-1]
    return [
        (
            "trees of comparable size under epsilon=0.7*theta pairing",
            abs(threshold.tree_size - data_aware.tree_size)
            <= 0.15 * threshold.tree_size,
        ),
        (
            "data-aware splitting yields fewer empty buckets",
            data_aware.empty_fraction <= threshold.empty_fraction,
        ),
        (
            "data-aware bucket-load variance not worse",
            data_aware.bucket_variance
            <= 1.1 * threshold.bucket_variance,
        ),
    ]


def check_fig7(series: list[fig7.RangeQuerySeries]) -> list[tuple[str, bool]]:
    by_name = {entry.variant: entry for entry in series}
    basic = by_name["mlight-basic"]
    par2 = by_name["mlight-parallel-2"]
    par4 = by_name["mlight-parallel-4"]
    pht = by_name["pht"]
    dst = by_name["dst"]
    positions = range(len(basic.spans))
    return [
        (
            "m-LIGHT basic is the most bandwidth-efficient",
            all(
                basic.bandwidth[i] <= min(par2.bandwidth[i],
                                          pht.bandwidth[i])
                for i in positions
            ),
        ),
        (
            "DST bandwidth >=5x m-LIGHT basic at every span",
            all(
                dst.bandwidth[i] > 5 * basic.bandwidth[i]
                for i in positions
            ),
        ),
        (
            "latency ordering parallel-4 <= parallel-2 <= basic <= PHT",
            all(
                par4.latency[i] <= par2.latency[i]
                <= basic.latency[i] <= pht.latency[i]
                for i in positions
            ),
        ),
        (
            "DST latency best at the smallest span",
            dst.latency[0] <= basic.latency[0],
        ),
        (
            "DST latency degrades as the span grows",
            dst.latency[-1] > dst.latency[0],
        ),
    ]


def generate_report(
    points: Sequence[Point],
    config: IndexConfig,
    queries_per_span: int = 10,
    seed: int = 0,
) -> str:
    """Run Figs. 5-7 over *points* and return the markdown report."""
    sections: list[str] = [
        "# m-LIGHT reproduction report",
        "",
        f"dataset: {len(points)} points; D={config.max_depth}, "
        f"theta={config.split_threshold}, eps={config.expected_load}",
        "",
    ]
    all_checks: list[tuple[str, bool]] = []
    for key, heading, check in (
        ("fig5ab", "Fig. 5a/5b — maintenance vs data size", check_fig5),
        ("fig6ab", "Fig. 6a/6b — load balance", check_fig6),
        ("fig7ab", "Fig. 7a/7b — range queries", check_fig7),
    ):
        entry = replace(BY_KEY[key], config=config)
        result = run(entry, points, seed, queries_per_span=queries_per_span)
        sections.append(f"## {heading}\n")
        sections.append("```\n" + table(entry, result) + "\n```\n")
        checks = check(result)
        for description, ok in checks:
            sections.append(f"- {description}: {_verdict(ok)}")
        sections.append("")
        all_checks += checks

    passed = sum(1 for _, ok in all_checks if ok)
    sections.append(
        f"## Summary: {passed}/{len(all_checks)} claims reproduced"
    )
    return "\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=20_000)
    parser.add_argument("--queries", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-o", "--output", default=None)
    args = parser.parse_args(argv)

    report = generate_report(
        northeast_surrogate(args.size), PAPER_CONFIG,
        queries_per_span=args.queries, seed=args.seed,
    )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report + "\n")
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
