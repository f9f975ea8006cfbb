"""Range query processing over the m-LIGHT index (Section 6).

The engine implements Algorithms 2 and 3 plus the parallel variant:

1. Locally compute the LCA — the deepest label whose cell resolves the
   query — and probe ``fmd(LCA)``.  By corner preservation (Theorem 1)
   that probe reaches a corner-cell leaf of the LCA's region.
2. From a corner leaf λ inside a target node β, the leaf's label alone
   reconstructs the local tree; every *branch node* between λ and β
   whose region overlaps the query receives the clipped subquery.  The
   branch regions tile β minus λ, so subqueries are disjoint: no bucket
   is visited twice and subqueries proceed in parallel (one round per
   recursion level).
3. The parallel variant (lookahead ``h`` ∈ {2, 4, …}) forwards ``h``
   subqueries per branch node per step: it speculatively descends the
   globally-known space partition ``log2(h)`` extra levels and probes
   the whole frontier in one round — trading bandwidth for latency,
   exactly the Fig. 7 trade-off.

Probe-outcome case analysis (each case is forced by the naming
function's run structure; see ``tests/test_rangequery.py``):

* the returned leaf is a *descendant* of the target β → a corner cell;
  recurse through branch nodes.
* the returned leaf is an *ancestor-or-self* of β → it covers the whole
  subquery; collect and stop.
* no bucket → β lies strictly below some leaf; a point lookup inside
  the subquery finds that leaf, which covers the whole subquery.
* an unrelated leaf is impossible: every leaf named ``fmd(β)`` lies on
  the unique forced-bit run through β, hence is prefix-comparable
  with β.

When the engine carries a :class:`~repro.core.cache.LeafCache`, every
leaf a query visits warms it (and the missing-target fallback lookup
may ride cached hints), so range scans prime subsequent point lookups
in the same region.

Degraded mode: subqueries are disjoint, so a probe that stays
unreachable after the substrate stack's retry budget costs exactly its
own subregion and nothing else.  The engine records that region via
:meth:`~repro.core.results.RangeQueryBuilder.mark_unresolved` and keeps
executing every other probe; the result then carries
``complete=False`` with the unresolved regions enumerated.  A query
over a faulty substrate never raises
:class:`~repro.common.errors.NodeUnreachableError` — it returns what
it could prove, and says what it couldn't.

One kernel, thin drivers: every *decision* of Algorithms 2/3 lives in
this module as sans-IO code — :func:`compute_lca` (where to jump),
:func:`branch_subqueries` (the probe-outcome case analysis),
:func:`fallback_cursor` (the bounded search for a missing target),
:class:`RangeCursor` (one client's BFS-batched rounds: state and
decisions), :func:`range_steps` (the loop over it, a generator of
``GET_MANY`` steps), :func:`peer_subquery` (one peer's step as another
generator) and :func:`query_via_peers` (folding a peer-side answer into
a result).  The drivers own only transport:
:meth:`~repro.dht.api.Dht.drive` runs the client's rounds (in process,
or on the service runtime's loop) and, as the ``SimNetwork`` agents of
:class:`~repro.mcast.runtime.MulticastRuntime`, a peer's step; the
asyncio ``MCAST`` handler of :mod:`repro.mcast.service` runs a peer's
step through ``ServiceDht.drive_on_loop``.  A peer's forward is an
ordinary ``CALL`` step carrying its driver's forward function, so it
runs where that driver's IO lives.

CPU hot path: with rounds batched (PR 2), local computation dominates
wall-clock.  Every ``region_of_label`` this engine issues (LCA
descent, speculative expansion, branch clipping) hits the memoized
geometry cache, and every ``bucket.matching`` collection runs on the
bucket's columnar store — see ``docs/architecture.md`` ("The hot
path").
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.common.errors import (
    IndexCorruptionError,
    InvalidRegionError,
    NodeUnreachableError,
)
from repro.common.geometry import (
    Region,
    RegionLike,
    as_region,
    cell_resolves_query,
    clip,
    region_of_label,
)
from repro.common.labels import (
    branch_nodes_between,
    label_depth,
    root_label,
)
from repro.core.bucket import LeafBucket
from repro.core.cache import LeafCache
from repro.core.keys import bucket_key
from repro.core.lookup import PointLookupCursor, lookup_steps
from repro.core.naming import naming_function
from repro.core.records import Record
from repro.core.results import RangeQueryBuilder, RangeQueryResult
from repro.dht.api import CALL, GET_MANY, BatchFailure, Dht, DhtStats

if TYPE_CHECKING:
    from repro.obs.trace import Tracer

__all__ = [
    "AgentResult",
    "Hop",
    "HopOutcome",
    "RangeCursor",
    "RangeQueryEngine",
    "RangeQueryResult",
    "branch_subqueries",
    "compute_lca",
    "fallback_cursor",
    "peer_subquery",
    "query_via_peers",
    "range_steps",
]


@dataclass(frozen=True, slots=True)
class _Task:
    """One pending subquery: probe *target*'s name for *subquery*.

    ``anchor`` is the deepest label known (or assumed) to exist above
    the target; targets produced by speculative expansion keep their
    pre-expansion anchor so a missing probe can bound its fallback
    search to ``(len(anchor), len(target))``.
    """

    target: str
    subquery: Region
    anchor: str


def compute_lca(query: Region, dims: int, max_depth: int) -> str:
    """Deepest label whose cell resolves *query* (all matches inside).

    Computed locally by the query initiator — space partitioning is
    data independent, so no communication is needed (Section 6).

    Boundary semantics are deliberately mixed: the query is closed,
    cells are half-open, and ``cell_resolves_query`` accepts a query
    face on the cell's upper face only at the global boundary 1.0.  At
    most one child can resolve at each level, so greedy descent finds
    *the* LCA; ``tests/test_rangequery.py`` codifies this against an
    exhaustive point-level baseline for dims 1–4, including faces on
    binary split planes (this is also the label prefix multicast
    routes to, so a wrong LCA would silently drop matches).
    """
    label = root_label(dims)
    while label_depth(label, dims) < max_depth:
        for child in (label + "0", label + "1"):
            if cell_resolves_query(region_of_label(child, dims), query):
                label = child
                break
        else:
            break
    return label



def branch_subqueries(
    leaf: str, target: str, subquery: Region, dims: int
) -> list[tuple[str, Region]]:
    """The probe-outcome case analysis: where *subquery* goes next.

    The probe of ``fmd(target)`` returned the leaf labelled *leaf*.

    * *leaf* is an ancestor-or-self of *target* → that one leaf covers
      the whole subquery: no branches.
    * *leaf* is a descendant of *target* → a corner cell (Theorem 1).
      Its label alone reconstructs the local tree: each branch node
      between the leaf and the target whose cell overlaps *subquery*
      receives the clipped subquery (Algorithm 3).  The branch cells
      tile the target's cell minus the leaf's, so the returned
      subqueries are disjoint.
    * anything else is impossible under the naming invariant and raises
      :class:`IndexCorruptionError`.
    """
    if target.startswith(leaf):
        return []
    if not leaf.startswith(target):
        raise IndexCorruptionError(
            f"leaf {leaf!r} named {naming_function(target, dims)!r} is "
            f"not prefix-comparable with target {target!r}; the naming "
            "invariant is broken"
        )
    branches = []
    for branch in branch_nodes_between(leaf, target, dims):
        clipped = clip(subquery, region_of_label(branch, dims))
        if clipped is not None:
            branches.append((branch, clipped))
    return branches


def fallback_cursor(
    stats: DhtStats,
    target: str,
    subquery: Region,
    dims: int,
    max_depth: int,
    *,
    anchor: str | None = None,
    cache: LeafCache | None = None,
    tracer: "Tracer | None" = None,
) -> PointLookupCursor:
    """Point-lookup cursor for a *target* whose probe found no bucket.

    The covering leaf is a proper ancestor of the target, so the
    search stops one label short of it.  *anchor*, when given, is a
    label known to exist above the target (it may itself be the
    covering leaf): a target produced by speculative expansion below
    its anchor bounds the search from below as well, so the interval
    is at most the expansion depth — usually one probe.
    """
    min_length = None
    if anchor is not None and target != anchor and target.startswith(anchor):
        min_length = len(anchor)
    return PointLookupCursor(
        stats,
        subquery.lows,
        dims,
        max_depth,
        min_label_length=min_length,
        max_label_length=len(target) - 1,
        cache=cache,
        tracer=tracer,
    )


# ----------------------------------------------------------------------
# Peer-side execution: the same decisions, taken where the bucket lives
# ----------------------------------------------------------------------

#: What one peer answers for one subquery: (matching records, visited
#: leaf labels, wire rounds its subtree spent, unresolved subregions).
AgentResult = tuple[list[Record], list[str], int, list[Region]]


class Hop(NamedTuple):
    """A subquery on its way to the peer owning ``fmd(target)``."""

    key: str
    target: str
    subquery: Region


#: What delivering one hop yields: the receiving peer's answer (a
#: :class:`~repro.dht.api.BatchFailure` when its owner or agent stayed
#: unreachable) and the wire rounds the hop itself spent.
HopOutcome = tuple[AgentResult | BatchFailure, int]


def _hop_result(
    reply: AgentResult | BatchFailure, spent: int, subquery: Region
) -> AgentResult:
    """Fold one hop into what it carried back: *spent* rounds on top of
    the receiver's own, or — undeliverable — its subquery unresolved."""
    if isinstance(reply, BatchFailure):
        return [], [], spent, [subquery]
    records, visited, rounds, unresolved = reply
    return records, visited, rounds + spent, unresolved


def peer_subquery(
    read_local: Callable[[str], Any],
    target: str,
    subquery: Region,
    query: Region,
    dims: int,
    max_depth: int,
    stats: DhtStats,
    forward: Callable[[list[Hop]], Any],
) -> Generator[tuple, Any, AgentResult]:
    """One peer's step of a range query, as an operation of facade steps.

    The peer owns ``fmd(target)`` — that is why *subquery* was routed
    to it — so it reads that bucket through *read_local* at no cost.
    The generator yields the ``GET`` steps of
    :func:`~repro.core.lookup.lookup_steps` while the bounded fallback
    search runs for a missing target, then at most one ``(CALL,
    forward, (hops,))`` step carrying the branch subqueries: *forward*
    is the driver's, delivers the hops as one parallel round and
    answers one :data:`HopOutcome` per hop.  It returns the
    :data:`AgentResult`.  A subtree costs its deepest child's rounds;
    probes spent by the fallback count as rounds whether or not it
    reached the covering leaf; an unreachable probe or hop degrades
    exactly its own subregion.  What a forward costs is ticked here,
    once for every driver: one DHT-lookup and one ``mcast_forward``
    per hop, one batch round per forward.
    """
    bucket = read_local(bucket_key(naming_function(target, dims)))
    rounds = 0
    if bucket is None:
        cursor = fallback_cursor(stats, target, subquery, dims, max_depth)
        try:
            found = yield from lookup_steps(cursor)
        except NodeUnreachableError:
            return [], [], cursor.probes, [subquery]
        bucket, rounds = found.bucket, found.rounds
    branches = branch_subqueries(bucket.label, target, subquery, dims)
    records = list(bucket.matching(query))
    visited = [bucket.label]
    unresolved: list[Region] = []
    if branches:
        hops = [
            Hop(bucket_key(naming_function(branch, dims)), branch, clipped)
            for branch, clipped in branches
        ]
        stats.meter_forward(len(hops))
        replies = yield CALL, forward, (hops,)
        for (_, clipped), (reply, spent) in zip(branches, replies):
            below, leaves, depth, lost = _hop_result(reply, spent, clipped)
            records.extend(below)
            visited.extend(leaves)
            rounds = max(rounds, depth)
            unresolved.extend(lost)
    return records, visited, rounds, unresolved


def query_via_peers(
    query: Region,
    dims: int,
    max_depth: int,
    stats: DhtStats,
    send: Callable[[Hop], HopOutcome],
) -> RangeQueryResult:
    """Run *query* peer-side: one hop to the owner of ``fmd(LCA(R))``.

    *send* delivers that hop and answers one :data:`HopOutcome`; the
    hop is the initiator's one message (``mcasts``) and is metered as
    a forward of one.  ``lookups`` and ``batch_rounds`` are the
    *stats* deltas around it, so everything the peers metered on the
    way is in.
    """
    lca = compute_lca(query, dims, max_depth)
    lookups_before = stats.lookups
    batch_before = stats.batch_rounds
    stats.mcasts += 1
    stats.meter_forward(1)
    reply, spent = send(
        Hop(bucket_key(naming_function(lca, dims)), lca, query)
    )
    records, visited, rounds, unresolved = _hop_result(reply, spent, query)
    return RangeQueryBuilder(
        records=records,
        lookups=stats.lookups - lookups_before,
        rounds=rounds,
        visited_leaves=set(visited),
        batch_rounds=stats.batch_rounds - batch_before,
        unresolved=unresolved,
    ).build()


class RangeCursor:
    """One range query's breadth-first rounds, resumable and sans-IO.

    The round-wise counterpart of :class:`PointLookupCursor`: the
    cursor holds the frontier, the in-flight fallback searches and the
    result under construction; the caller owns the DHT traffic.  Ask
    :meth:`round_keys` for the keys of the next parallel round, fetch
    them however the substrate does (one outcome per key, in order, a
    :class:`~repro.dht.api.BatchFailure` in an unreachable slot), feed
    them back through :meth:`advance_round`, repeat until :attr:`done`.
    :func:`range_steps` is that loop.

    A round carries every independent probe in flight: the new
    frontier (this wave's targets — branch regions are disjoint, so
    their probes never depend on each other) plus the next step of
    every fallback chain still running from earlier waves.  A chain
    only depends on its own earlier probes, never on later frontiers,
    so it advances *concurrently* with them — exactly the paper's
    latency model, where ``rounds`` equals the number of issued
    rounds: the longest chain pushes the loop exactly ``len(chain)``
    iterations past the wave that spawned it.

    Targets that turn out missing open a point-lookup cursor
    (Algorithm 2's fallback) whose first probe — dependent on this
    round's miss — joins the *next* round.  Outcomes are processed in
    issuance order, so collection order, and therefore the result, is
    the same however the round was fetched.

    Unreachable probes degrade per-slot: a failed frontier probe marks
    its disjoint subquery unresolved, a failed cursor step either
    re-routes (dead cache hint, see
    :meth:`~repro.core.lookup.PointLookupCursor.probe_failed`) or marks
    the cursor's subquery unresolved.  Every other slot in the round is
    dispatched normally.
    """

    __slots__ = (
        "_stats",
        "_query",
        "_levels",
        "_dims",
        "_max_depth",
        "_cache",
        "_tasks",
        "_pending",
        "_frontier",
        "builder",
        "tracer",
    )

    def __init__(
        self,
        stats: DhtStats,
        query: Region,
        levels: int,
        dims: int,
        max_depth: int,
        *,
        cache: LeafCache | None = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self._stats = stats
        self._query = query
        self._levels = levels
        self._dims = dims
        self._max_depth = max_depth
        self._cache = cache
        self.tracer = tracer
        self.builder = RangeQueryBuilder()
        lca = compute_lca(query, dims, max_depth)
        self._tasks = [_Task(lca, query, root_label(dims))]
        self._pending: list[tuple[PointLookupCursor, Region]] = []
        #: The expanded tasks of the round in flight.
        self._frontier: list[_Task] = []

    @property
    def done(self) -> bool:
        """True once no subquery and no fallback search is left."""
        return not (self._tasks or self._pending)

    def round_keys(self) -> list[str]:
        """Open the next round: its frontier keys, then one key per
        in-flight fallback search."""
        builder = self.builder
        builder.open_round()
        frontier: list[_Task] = []
        for task in self._tasks:
            frontier.extend(self._expand(task))
        self._frontier = frontier
        keys = [
            bucket_key(naming_function(task.target, self._dims))
            for task in frontier
        ]
        keys.extend(cursor.current_key() for cursor, _ in self._pending)
        builder.lookups += len(keys)
        return keys

    def advance_round(self, outcomes: list[Any]) -> None:
        """Consume the outcomes of the keys :meth:`round_keys` gave."""
        builder = self.builder
        frontier = self._frontier
        still_pending: list[tuple[PointLookupCursor, Region]] = []
        for (cursor, subquery), bucket in zip(
            self._pending, outcomes[len(frontier):]
        ):
            if isinstance(bucket, BatchFailure):
                if cursor.probe_failed():
                    still_pending.append((cursor, subquery))
                else:
                    self._mark_unresolved(subquery)
                continue
            cursor.advance(bucket)
            if cursor.done:
                self._collect(cursor.result.bucket)
            else:
                still_pending.append((cursor, subquery))

        next_tasks: list[_Task] = []
        for task, bucket in zip(frontier, outcomes):
            if isinstance(bucket, BatchFailure):
                self._mark_unresolved(task.subquery)
            elif bucket is None:
                cursor = fallback_cursor(
                    self._stats, task.target, task.subquery, self._dims,
                    self._max_depth, anchor=task.anchor, cache=self._cache,
                    tracer=self.tracer,
                )
                still_pending.append((cursor, task.subquery))
            else:
                branches = branch_subqueries(
                    bucket.label, task.target, task.subquery, self._dims
                )
                self._collect(bucket)
                for branch, clipped in branches:
                    next_tasks.append(_Task(branch, clipped, branch))
        self._tasks = next_tasks
        self._pending = still_pending

    def _expand(self, task: _Task) -> list[_Task]:
        """Speculative frontier of *task* ``levels`` deeper (parallel
        variant); the frontier cells tile the target cell, so coverage
        is preserved.  ``levels == 0`` returns the task unchanged."""
        frontier = [task]
        for _ in range(self._levels):
            deeper: list[_Task] = []
            for item in frontier:
                if label_depth(item.target, self._dims) >= self._max_depth:
                    deeper.append(item)
                    continue
                for child in (item.target + "0", item.target + "1"):
                    clipped = clip(
                        item.subquery, region_of_label(child, self._dims)
                    )
                    if clipped is not None:
                        deeper.append(_Task(child, clipped, item.anchor))
            frontier = deeper
        return frontier

    def _mark_unresolved(self, region: Region) -> None:
        """Record a degraded subregion, annotating the active trace."""
        self.builder.mark_unresolved(region)
        if self.tracer is not None:
            self.tracer.event(
                "unresolved",
                lows=list(region.lows),
                highs=list(region.highs),
            )

    def _collect(self, bucket: LeafBucket) -> None:
        """Add *bucket*'s matching records once (leaves are disjoint, so
        per-leaf dedup makes the result set exact), warming the cache
        with the visited leaf."""
        if self._cache is not None:
            self._cache.observe(bucket.label)
        if bucket.label in self.builder.visited_leaves:
            return
        self.builder.collect(bucket.label, bucket.matching(self._query))


def range_steps(cursor: RangeCursor) -> Generator[tuple, Any, RangeQueryBuilder]:
    """The range-query operation: one ``GET_MANY`` step per round of
    *cursor*, each inside a ``round`` span of its tracer; the builder
    the rounds filled."""
    tracer = cursor.tracer
    while not cursor.done:
        keys = cursor.round_keys()
        if tracer is None:
            outcomes = yield (GET_MANY, keys)
        else:
            with tracer.span("round", "batched_round", probes=len(keys)):
                outcomes = yield (GET_MANY, keys)
        cursor.advance_round(outcomes)
    return cursor.builder


class RangeQueryEngine:
    """Executes range queries; one instance per (dht, geometry).

    Each query is :func:`range_steps` over a :class:`RangeCursor`,
    handed to the substrate's :meth:`~repro.dht.api.Dht.drive`, which
    issues each recursion level's independent probes as one
    :meth:`~repro.dht.api.Dht.get_many_outcomes` round.
    """

    def __init__(
        self,
        dht: Dht,
        dims: int,
        max_depth: int,
        cache: LeafCache | None = None,
        *,
        tracer: "Tracer | None" = None,
    ) -> None:
        self._dht = dht
        self._dims = dims
        self._max_depth = max_depth
        self._cache = cache
        self.tracer = tracer

    def query(
        self, query: RegionLike, lookahead: int = 1
    ) -> RangeQueryResult:
        """Return every record matching the closed region *query*.

        *query* is a :class:`Region` or a ``(lows, highs)`` pair.
        ``lookahead=1`` is the basic algorithm; powers of two >= 2
        select the parallel variant with that many subqueries per
        branch node per step.
        """
        query = as_region(query)
        if query.dims != self._dims:
            raise InvalidRegionError(
                f"query has {query.dims} dims, index has {self._dims}"
            )
        if lookahead < 1 or lookahead & (lookahead - 1):
            raise InvalidRegionError(
                f"lookahead must be a power of two >= 1, got {lookahead}"
            )
        levels = lookahead.bit_length() - 1
        tracer = self.tracer
        if tracer is None:
            return self._execute(query, levels)
        with tracer.span(
            "query",
            "range",
            lookahead=1 << levels,
            lows=list(query.lows),
            highs=list(query.highs),
        ) as span:
            result = self._execute(query, levels)
            span.attrs["lookups"] = result.lookups
            span.attrs["rounds"] = result.rounds
            span.attrs["batch_rounds"] = result.batch_rounds
            span.attrs["records"] = len(result.records)
            span.attrs["complete"] = result.complete
            return result

    def _execute(self, query: Region, levels: int) -> RangeQueryResult:
        stats = self._dht.stats
        batch_rounds_before = stats.batch_rounds
        builder = self._dht.drive(range_steps(RangeCursor(
            stats, query, levels, self._dims, self._max_depth,
            cache=self._cache, tracer=self.tracer,
        )))
        builder.batch_rounds = stats.batch_rounds - batch_rounds_before
        # Reconcile the latency meters: every issued wave is normally
        # exactly one batch round, so ``rounds == batch_rounds``.  A
        # retry wrapper, however, re-issues a failed sub-batch as its
        # *own* wire round within the same wave — extra sequential
        # latency the wave count alone would under-report.  ``rounds``
        # is the longest chain of sequential DHT-lookups, so it absorbs
        # the retry rounds; fault-free queries are unaffected.
        builder.rounds = max(builder.rounds, builder.batch_rounds)
        return builder.build()
