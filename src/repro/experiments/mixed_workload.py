"""E11 — maintenance under a mixed insert/delete workload.

The paper's maintenance experiment (Fig. 5) only inserts, so merges
never fire.  This extension measures the full maintenance loop: a trace
that interleaves deletions of live keys with insertions, driving both
splits and cascading merges.  m-LIGHT's incremental property covers
merges symmetrically (one bucket transferred per merge, Theorem 5),
whereas PHT must move *both* sibling buckets to the parent's key and
re-stitch its leaf list, and DST pays a full root-to-leaf pass per
delete.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.common.config import IndexConfig
from repro.common.geometry import Point
from repro.experiments.harness import build_index
from repro.workloads.traces import apply_trace, mixed_trace

#: Schemes compared (the naive mapping is omitted: Fig. 5 already
#: established its handicap and its merges are not implemented).
E11_SCHEMES = ("mlight", "pht", "dst")


@dataclass(frozen=True, slots=True)
class MixedWorkloadSample:
    """Total maintenance cost of one scheme over the trace."""

    scheme: str
    inserts: int
    deletes: int
    lookups: int
    records_moved: int
    final_records: int

    COLUMNS = (
        "scheme", "inserts", "deletes", ("DHT-lookups", "lookups"),
        "records_moved", ("records left", "final_records"),
    )


def run_mixed_workload(
    points: Sequence[Point],
    config: IndexConfig,
    delete_fraction: float = 0.4,
    seed: int = 0,
    schemes: Sequence[str] = E11_SCHEMES,
) -> list[MixedWorkloadSample]:
    """Apply the same mixed trace to each scheme and total the costs."""
    trace = mixed_trace(list(points), delete_fraction, seed)
    samples = []
    for scheme in schemes:
        index = build_index(scheme, config)
        inserts, deletes = apply_trace(index, trace)
        stats = index.dht.stats
        samples.append(
            MixedWorkloadSample(
                scheme=scheme,
                inserts=inserts,
                deletes=deletes,
                lookups=stats.lookups,
                records_moved=stats.records_moved,
                final_records=index.total_records(),
            )
        )
    return samples
