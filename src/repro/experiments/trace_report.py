"""Render traced queries: per-query timeline and critical-path table.

Consumes the JSONL a :class:`~repro.obs.trace.Tracer` exports (one
span per line) and renders, per root span:

* an indented **timeline** — the span tree in start order, each node
  with its simulated and wall durations, attributes and events;
* the **critical path** — the chain of child spans that dominates the
  root's simulated time (falling back to wall time when no simulated
  clock was attached), which is exactly the paper's latency model: a
  query costs its longest dependent chain, not the sum of its rounds.

Plus a cross-query profile (top self-time spans) from
:mod:`repro.obs.profile`.

Usage::

    python -m repro.experiments.trace_report trace.jsonl -o timeline.txt
    python -m repro.experiments.trace_report --smoke

``--smoke`` runs a self-contained traced end-to-end query (a seeded
m-LIGHT index over Chord) and writes ``results/trace_query.jsonl``
plus ``results/trace_timeline.txt`` (CI's ``bench`` job uploads both).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict
from collections.abc import Sequence

from repro.common.errors import ReproError
from repro.obs.profile import profile_report
from repro.obs.trace import Span

__all__ = [
    "critical_path",
    "load_spans",
    "render_report",
    "render_timeline",
    "run_traced_query",
]


def load_spans(path: str) -> list[Span]:
    """Parse one tracer's JSONL export back into spans."""
    spans: list[Span] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                spans.append(Span.from_dict(json.loads(line)))
            except (ValueError, KeyError) as error:
                raise ReproError(
                    f"{path}:{lineno}: not a span record ({error})"
                ) from error
    return spans


def _index_children(spans: Sequence[Span]) -> dict[int | None, list[Span]]:
    children: dict[int | None, list[Span]] = defaultdict(list)
    for span in spans:
        children[span.parent_id].append(span)
    for siblings in children.values():
        siblings.sort(key=lambda span: (span.wall_start, span.span_id))
    return children


def _duration_text(span: Span) -> str:
    sim = span.sim_duration
    wall = f"{span.wall_duration * 1e3:.3f}ms wall"
    if sim is None:
        return wall
    return f"{sim:.3f} sim, {wall}"


def _attr_text(span: Span) -> str:
    if not span.attrs:
        return ""
    inner = ", ".join(
        f"{key}={value}" for key, value in sorted(span.attrs.items())
    )
    return f"  [{inner}]"


def render_timeline(spans: Sequence[Span]) -> str:
    """The span forest as an indented start-ordered timeline."""
    if not spans:
        return "no spans recorded"
    children = _index_children(spans)
    lines: list[str] = []

    def walk(span: Span, depth: int) -> None:
        marker = "! " if span.status == "error" else ""
        lines.append(
            f"{'  ' * depth}{marker}{span.kind}:{span.name} "
            f"({_duration_text(span)}){_attr_text(span)}"
        )
        for event in span.events:
            attrs = ", ".join(
                f"{key}={value}"
                for key, value in sorted(event["attrs"].items())
            )
            lines.append(
                f"{'  ' * (depth + 1)}* {event['name']}"
                + (f" [{attrs}]" if attrs else "")
            )
        for child in children.get(span.span_id, ()):
            walk(child, depth + 1)

    for root in children.get(None, ()):
        walk(root, 0)
    return "\n".join(lines)


def _span_cost(span: Span) -> float:
    sim = span.sim_duration
    return span.wall_duration if sim is None else sim


def critical_path(spans: Sequence[Span], root: Span) -> list[Span]:
    """The chain of spans dominating *root*'s time, root first.

    At each level the child with the largest simulated duration (wall
    when unclocked) is followed — the longest dependent chain, the
    paper's ``rounds`` latency measure made concrete.
    """
    children = _index_children(spans)
    path = [root]
    cursor = root
    while True:
        options = children.get(cursor.span_id, ())
        if not options:
            return path
        cursor = max(options, key=_span_cost)
        path.append(cursor)


def _critical_path_table(spans: Sequence[Span]) -> str:
    children = _index_children(spans)
    roots = children.get(None, ())
    lines = ["Critical path per root span"]
    header = f"{'root':<24} {'cost':>12}  dominant chain"
    lines.append(header)
    lines.append("-" * len(header))
    for root in roots:
        chain = critical_path(spans, root)
        rendered = " > ".join(f"{s.kind}:{s.name}" for s in chain)
        lines.append(
            f"{root.kind + ':' + root.name:<24} "
            f"{_span_cost(root):>12.4f}  {rendered}"
        )
    return "\n".join(lines)


def render_report(spans: Sequence[Span], top: int = 10) -> str:
    """Timeline + critical paths + profile, one text artifact."""
    return "\n\n".join(
        [
            "== Timeline ==",
            render_timeline(spans),
            "== Critical paths ==",
            _critical_path_table(spans),
            "== Profile ==",
            profile_report(spans, top),
        ]
    )


def run_traced_query(
    n_peers: int = 32, n_points: int = 400, seed: int = 7
) -> tuple[list[Span], dict[str, float]]:
    """One traced end-to-end range query on a seeded Chord index.

    Returns the spans plus the query's headline meters — the payload
    behind ``--smoke``.
    """
    from repro.common.config import IndexConfig
    from repro.common.rng import make_rng
    from repro.core.bulkload import bulk_load
    from repro.core.index import MLightIndex
    from repro.dht.chord import ChordDht
    from repro.obs.registry import MetricsRegistry

    rng = make_rng(seed)
    points = [(rng.random(), rng.random()) for _ in range(n_points)]
    config = IndexConfig(dims=2, cache_capacity=64, tracing=True)
    dht = ChordDht.build(n_peers)
    bulk_load(dht, points, config)
    index = MLightIndex(dht, config)
    index.tracer.clear()  # keep only the query's spans in the artifact

    registry = MetricsRegistry.for_index(index)
    before = registry.snapshot()
    result = index.range_query(((0.2, 0.2), (0.6, 0.6)))
    delta = registry.delta(before)
    index.knn((0.5, 0.5), k=3)
    meters = {
        "records": len(result.records),
        "lookups": result.lookups,
        "rounds": result.rounds,
        "batch_rounds": result.batch_rounds,
        "meter_lookups": delta["dht.lookups"],
        "meter_batch_rounds": delta["dht.batch_rounds"],
    }
    return list(index.tracer.spans), meters


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "trace", nargs="?", default=None,
        help="JSONL trace export to render",
    )
    parser.add_argument(
        "-o", "--output", default=None,
        help="write the report here instead of stdout",
    )
    parser.add_argument("--top", type=int, default=10)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run a traced end-to-end query and write results/ artifacts",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        os.makedirs("results", exist_ok=True)
        spans, meters = run_traced_query()
        from repro.obs.trace import JsonlTraceSink

        sink = JsonlTraceSink("results/trace_query.jsonl")
        try:
            for span in spans:
                sink.emit(span)
        finally:
            sink.close()
        report = render_report(spans, args.top)
        output = args.output or "results/trace_timeline.txt"
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(
            f"traced query: {meters['records']} records, "
            f"{meters['lookups']} lookups, {meters['rounds']} rounds "
            f"({len(spans)} spans)"
        )
        print(f"wrote results/trace_query.jsonl and {output}")
        return 0

    if args.trace is None:
        parser.error("a trace file is required unless --smoke is given")
    report = render_report(load_spans(args.trace), args.top)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
