"""Peer-side (truly distributed) range-query execution.

The client-orchestrated :class:`~repro.core.rangequery.RangeQueryEngine`
issues every probe from one place — faithful to OpenDHT-style
deployments where applications use a remote put/get service.  The paper
however narrates peer-to-peer forwarding: "Upon receiving the range
query, the corner cell constructs a local tree … Ri is forwarded to βi
via a DHT-lookup" (Section 6).  This module implements that execution
model literally:

* every DHT peer hosts a query agent (a second handler registered at
  ``<peer>#mlight`` on the simulated network);
* a subquery forwarded to node β costs one DHT-lookup (routing to the
  owner of ``fmd(β)``) plus one network message to that peer's agent;
* the receiving agent reads the bucket *from its own store at zero
  cost* — it is the owner — collects matches, and recursively forwards
  to its branch nodes.

Peer agents share the client engine's CPU fast path: the buckets they
read from their own stores filter matches through the columnar record
store (``bucket.matching``), and branch-region clipping rides the
memoized ``region_of_label`` cache, so the deployment comparison stays
apples-to-apples after the hot-loop optimisations.

The punchline, asserted by ``tests/test_distributed.py``: answers,
DHT-lookup counts and round counts are *identical* to the
client-orchestrated engine.  One probe per visited node either way —
the paper's cost model does not distinguish the two deployments, which
is why the reproduction can use the fast engine everywhere else.

Fault accounting (the ``forward_all`` audit)
--------------------------------------------

The engine reconciles round latency as
``rounds = max(rounds, batch_rounds)``: *one* client issues *one*
batched resolution per wave, so the two counters measure the same
sequence of wire rounds.  That reconciliation must **not** be applied
here — sibling agents each issue their own ``lookup_many_outcomes``
at the same tree depth, so ``batch_rounds`` *sums across the tree*
while ``rounds`` is the critical path, and a global ``max`` would
inflate fault-free rounds above the engine's.  Instead each forwarding site accounts for
its own extra wire rounds locally:

* ``forward`` measures the ``stats.retries`` delta around its owner
  resolution — under :class:`~repro.dht.retry.RetryingDht` every retry
  is one more sequential wire round on this hop's critical path;
* ``forward_all`` measures the ``stats.batch_rounds`` delta around its
  batched resolution — each retry wave re-issues the failed subset as
  one more parallel wire round, gating every branch of that step;
* an owner that stays unreachable after retries (or a dead agent)
  degrades the branch instead of aborting the query: the subregion is
  reported upward and surfaces as ``result.unresolved``, mirroring the
  engine's per-slot degradation on ``get_many_outcomes``.

The published ``batch_rounds`` is the whole-query stats delta, so
observability dashboards can compare the two execution models'
batching behaviour directly.

Everything algorithmic — which bucket to read, how a region splits,
the fallback search, how child answers merge, what a hop adds to the
round count — is :func:`repro.core.rangequery.peer_subquery` and
:func:`~repro.core.rangequery.query_via_peers`.  This module is their
``SimNetwork`` driver: it resolves owners, carries agent RPCs and
accounts the wire rounds each hop spent.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import NodeUnreachableError, ReproError
from repro.common.geometry import Region
from repro.core.rangequery import (
    AgentResult,
    Forward,
    Hop,
    HopOutcome,
    peer_subquery,
    query_via_peers,
)
from repro.core.results import RangeQueryResult
from repro.dht.api import BatchFailure, Dht, _capture
from repro.dht.overlay import RoutedOverlay
from repro.net.message import Message

#: Suffix appended to a peer's network address for its query agent.
AGENT_SUFFIX = "#mlight"


class PeerQueryAgent:
    """The query executor co-located with one DHT peer."""

    def __init__(self, runtime: "DistributedQueryRuntime", node: Any) -> None:
        self._runtime = runtime
        self._node = node
        self.address = node.name + runtime.suffix

    def handle_rpc(self, message: Message) -> AgentResult:
        """Drive one subquery this peer received to its answer."""
        if message.msg_type != "execute":
            raise ReproError(f"unknown agent RPC {message.msg_type!r}")
        (target, subquery, query), _ = message.payload
        runtime = self._runtime
        step = peer_subquery(
            self._node.store.get, target, subquery, query,
            runtime.dims, runtime.max_depth, runtime.dht.stats,
        )
        try:
            request = next(step)
            while True:
                try:
                    if isinstance(request, Forward):
                        outcome = runtime.forward_all(
                            self._node.name, request.hops, query
                        )
                    else:  # a GET step of the fallback search
                        outcome = runtime.dht.perform(request)
                except NodeUnreachableError as error:
                    request = step.throw(error)
                else:
                    request = step.send(outcome)
        except StopIteration as done:
            return done.value


class DistributedQueryRuntime:
    """Installs query agents on every peer of a routed DHT and runs
    range queries by actual peer-to-peer forwarding.

    *dht* may be the routed substrate itself or a wrapper chain
    (``RetryingDht``, ``FaultyDht``) around it — metered operations go
    through the outermost layer while agents live on the substrate's
    peers, so the runtime inherits retry resilience and fault
    injection exactly like the client engine does.
    """

    #: Network-address suffix for this runtime's agents.  Subclasses
    #: (the multicast plane) use their own so both runtimes can coexist
    #: on one network.
    suffix = AGENT_SUFFIX

    def __init__(self, dht: Dht, dims: int, max_depth: int) -> None:
        substrate = next(
            (
                layer for layer in dht.unwrap()
                if isinstance(layer, RoutedOverlay)
            ),
            None,
        )
        if substrate is None:
            raise ReproError(
                "distributed execution needs a routed substrate with "
                "peers (Chord/Kademlia/Pastry); LocalDht has no peers "
                "to host agents on"
            )
        self.dht = dht
        self.dims = dims
        self.max_depth = max_depth
        self._substrate = substrate
        self._network = substrate.network
        self._agents: dict[str, PeerQueryAgent] = {}
        self.refresh_agents()

    def refresh_agents(self) -> None:
        """(Re)register one query agent per currently-live peer.

        Churn invalidates agent registrations two ways: ``fail``
        removes the peer's main address but leaves the agent address
        bound to the dead node object, and ``restart`` builds a *new*
        node object the stale agent never sees.  Experiments call this
        after churn to re-point agents at the current node set; the
        constructor uses it for the initial registration.
        """
        network = self._network
        for agent in self._agents.values():
            network.unregister(agent.address)
        self._agents = {}
        for name in self._substrate.peers():
            agent = PeerQueryAgent(self, self._substrate.node(name))
            network.register(agent.address, agent)
            self._agents[name] = agent

    # ------------------------------------------------------------------
    # Owner resolution (override point for the multicast plane)
    # ------------------------------------------------------------------

    def _resolve_target(self, src_peer: str, key: str) -> str:
        """Resolve *key*'s owner on behalf of *src_peer*.

        The base runtime issues a client-metered DHT-lookup; the
        multicast plane overrides this to route natively from
        *src_peer*'s own overlay position.
        """
        return self.dht.lookup(key)

    def _resolve_targets(
        self, src_peer: str, keys: list[str]
    ) -> list[Any]:
        """Batch variant of :meth:`_resolve_target`; per-slot outcomes
        (owner name or :class:`BatchFailure`)."""
        return self.dht.lookup_many_outcomes(keys)

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------

    def _deliver(
        self, src_peer: str, owner: str, hop: Hop, query: Region
    ) -> AgentResult | BatchFailure:
        """One agent message (a dead agent fails only this hop)."""
        return _capture(
            self._network.rpc,
            src_peer + self.suffix,
            owner + self.suffix,
            "execute",
            hop.target,
            hop.subquery,
            query,
        )

    def forward(self, src_peer: str, hop: Hop, query: Region) -> HopOutcome:
        """Route one subquery to the owner of its key.

        One DHT-lookup (the routing) plus one agent message: the hop
        spends one wire round, plus one per retried resolution attempt
        (each retry ran sequentially on this hop's critical path).  An
        owner that stays unreachable spent only the retries.
        """
        stats = self.dht.stats
        retries_before = stats.retries
        try:
            owner = self._resolve_target(src_peer, hop.key)
        except NodeUnreachableError as error:
            return BatchFailure(error), stats.retries - retries_before
        spent = 1 + stats.retries - retries_before
        return self._deliver(src_peer, owner, hop, query), spent

    def forward_all(
        self, src_peer: str, hops: list[Hop], query: Region
    ) -> list[HopOutcome]:
        """Forward one agent's branch subqueries as one parallel round.

        This is the paper's "Ri is forwarded to βi" step executed the
        way Section 6 narrates it — all branch subqueries of one node
        go out together: one batched resolution finds every owner,
        then the agent messages ride a single network message round
        (each forward its own chain).  Per-branch costs are unchanged
        — one DHT-lookup plus one agent message each.  Retried
        resolution waves each add one parallel wire round gating the
        whole step; a branch whose owner stays unreachable spent only
        those.
        """
        stats = self.dht.stats
        batch_before = stats.batch_rounds
        try:
            owners = self._resolve_targets(
                src_peer, [hop.key for hop in hops]
            )
        except NodeUnreachableError as error:
            # Whole-batch resolution failure (unwrapped FaultyDht):
            # every branch degrades.
            owners = [BatchFailure(error)] * len(hops)
        extra = max(0, stats.batch_rounds - batch_before - 1)
        outcomes: list[HopOutcome] = []
        with self._network.message_round() as round_:
            for hop, owner in zip(hops, owners):
                if isinstance(owner, BatchFailure):
                    outcomes.append((owner, extra))
                    continue
                with round_.chain():
                    reply = self._deliver(src_peer, owner, hop, query)
                outcomes.append((reply, 1 + extra))
        return outcomes

    def query(
        self, query: Region, initiator: str | None = None
    ) -> RangeQueryResult:
        """Run *query* starting from *initiator* (default: first peer)."""
        if initiator is None:
            initiator = min(self._agents)
        if initiator not in self._agents:
            raise ReproError(f"unknown initiator peer {initiator!r}")
        return query_via_peers(
            query,
            self.dims,
            self.max_depth,
            self.dht.stats,
            lambda hop: self.forward(initiator, hop, query),
        )
