"""Immutable query-result objects shared by every engine.

Every public query operation answers with a frozen dataclass carrying
the paper's two cost measures (Section 7):

* ``lookups`` — bandwidth: how many metered DHT-lookups the operation
  spent (cache hint probes included; hints are metered probes, never
  oracle reads);
* ``rounds`` — latency: the longest chain of sequential DHT-lookups.

Results are *values*: once an engine hands one out, nothing mutates it.
Engines and baselines accumulate into a :class:`RangeQueryBuilder` and
construct the frozen :class:`RangeQueryResult` in exactly one place —
:meth:`RangeQueryBuilder.build` — so no call site pokes fields onto a
result after the fact.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.common.geometry import Region
from repro.core.bucket import LeafBucket
from repro.core.records import Record


@dataclass(frozen=True, slots=True)
class LookupResult:
    """Outcome of one point lookup: the covering bucket plus its cost."""

    bucket: LeafBucket
    lookups: int
    rounds: int


@dataclass(frozen=True, slots=True)
class RangeQueryResult:
    """Records matching a range query, plus the paper's two costs.

    ``batch_rounds`` additionally reports how many batched DHT rounds
    the query issued (retry re-issues included) — a diagnostic for the
    round structure, not a paper metric.

    ``complete`` is the partial-result contract of degraded mode: True
    means every subquery probe resolved and ``records`` is the exact
    answer; False means some probes stayed unreachable after the retry
    budget and ``unresolved`` enumerates the subregions whose matches
    (if any) are missing.  Records actually returned are always true
    matches — degradation loses coverage, never correctness.
    """

    records: tuple[Record, ...] = ()
    lookups: int = 0
    rounds: int = 0
    visited_leaves: frozenset[str] = frozenset()
    batch_rounds: int = 0
    complete: bool = True
    unresolved: tuple[Region, ...] = ()


@dataclass(frozen=True, slots=True)
class Neighbor:
    """One k-NN answer: a record and its Euclidean distance."""

    record: Record
    distance: float


@dataclass(frozen=True, slots=True)
class KnnResult:
    """Top-k neighbours plus the paper's two cost measures.

    ``complete=False`` marks a degraded answer: some ring range query
    could not resolve part of its box, so a true neighbour may be
    missing from ``neighbors``.  The listed neighbours are still real
    records at their true distances.
    """

    neighbors: tuple[Neighbor, ...]
    lookups: int
    rounds: int
    complete: bool = True


@dataclass(slots=True)
class RangeQueryBuilder:
    """Mutable accumulator used internally by range-query engines.

    Field names mirror :class:`RangeQueryResult` so accumulation code
    reads the same as before the results were frozen; :meth:`build` is
    the single construction site of the immutable result.
    """

    records: list[Record] = field(default_factory=list)
    lookups: int = 0
    rounds: int = 0
    visited_leaves: set[str] = field(default_factory=set)
    batch_rounds: int = 0
    waves: int = 0
    unresolved: list[Region] = field(default_factory=list)

    def open_round(self) -> int:
        """Account one issued round of parallel probes; return its depth.

        ``rounds`` — the longest chain of *sequential* DHT-lookups — is
        derived from round issuance, never hand-counted: the engine
        opens exactly one round per loop iteration, every probe in
        flight (frontier and fallback-chain steps alike) rides it, and
        a chain spawned at depth ``d`` keeps the loop alive through
        depth ``d + len(chain)``.  So the final ``rounds`` equals
        ``max(waves, max_k(depth_k + chain_k))`` with no bookkeeping at
        the call sites.
        """
        self.waves += 1
        self.rounds = max(self.rounds, self.waves)
        return self.waves

    def collect(self, label: str, matches: Iterable[Record]) -> bool:
        """Add one visited leaf's matching records exactly once.

        Leaves are disjoint, so per-leaf dedup keeps the result set
        exact; returns False when *label* was already collected.
        """
        if label in self.visited_leaves:
            return False
        self.visited_leaves.add(label)
        self.records.extend(matches)
        return True

    def mark_unresolved(self, region: Region) -> None:
        """Record a subregion whose probe stayed unreachable.

        The built result will carry ``complete=False``; the engine
        keeps collecting every other subquery — degradation is
        per-region, never whole-query.
        """
        self.unresolved.append(region)

    def build(self) -> RangeQueryResult:
        """Freeze the accumulated state into a result value."""
        return RangeQueryResult(
            records=tuple(self.records),
            lookups=self.lookups,
            rounds=self.rounds,
            visited_leaves=frozenset(self.visited_leaves),
            batch_rounds=self.batch_rounds,
            complete=not self.unresolved,
            unresolved=tuple(self.unresolved),
        )
