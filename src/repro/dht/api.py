"""The generic DHT facade every index runs over.

The paper's cost model (Section 7) counts, per index operation:

* **DHT-lookup cost** — how many times the index layer asked the DHT to
  locate the peer responsible for a key.  A ``put``/``get``/``remove``
  embeds one DHT-lookup each, so the facade meters them uniformly.
* **Data-movement cost** — how many data records crossed the network.
  Only the index layer knows how many records a stored object carries,
  so write operations take an explicit ``records_moved`` argument.

The facade also exposes :meth:`Dht.rewrite_local`: replacing the value
at a key *already resolved and owned* costs neither a DHT-lookup nor a
transfer.  This is exactly the operation behind m-LIGHT's incremental
split (Theorem 5): the surviving child keeps the dead bucket's key.

Beside the facade sits the **step protocol**: an index *operation* is a
generator that yields steps — plain tuples, opcode first — is sent each
step's outcome and returns its result.  :meth:`Dht.perform` runs one
step — the one metered entry point, which the public methods are
sugar over — and :meth:`Dht.drive` is the trampoline; see the opcodes
below.

Under the steps sit the **exchanges**: a substrate supplies placement
(:meth:`Dht.targets`) and one exchange (:meth:`Dht.exchange`, a request
``(peer, op, key, value)`` that :meth:`~repro.dht.peer.KeyValuePeer.serve`
answers on that peer), and :meth:`Dht.map_step` / :meth:`Dht.ask` map every
step onto exchanges once, for every substrate and runtime.
"""

from __future__ import annotations

import contextlib
from abc import ABC, abstractmethod
from collections.abc import Generator, Iterator, Sequence
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.obs.trace import Tracer

from repro.common.errors import DhtKeyError, NodeUnreachableError, ReproError
from repro.net.events import EventScheduler


@dataclass(frozen=True, slots=True)
class BatchFailure:
    """Per-element failure marker inside a batch outcome list.

    A batch's round (:meth:`Dht.run_round`) never aborts on one
    unreachable peer: it records the element's error in place and keeps
    going, so wrappers such as :class:`~repro.dht.retry.RetryingDht`
    can retry exactly the failed subset (partial-failure semantics).
    """

    error: Exception


#: The step vocabulary.  A step is a plain tuple, opcode first (a class
#: per step cost the in-process runtime ~7 % of a lookup); each opcode
#: is also the name of the ``dht`` span it runs under.
#:
#: * ``(GET, key)`` — one metered get; the outcome is the value or
#:   ``None``.
#: * ``(LOOKUP, key)`` — the peer responsible for *key*.
#: * ``(GET_DIRECT, key, peer)`` — a get sent straight to *peer*.
#: * ``(PUT, key, value, records_moved)`` — one routed put.
#: * ``(GET_MANY, keys)`` — one parallel round; one outcome per key, a
#:   :class:`BatchFailure` in the slot of an unreachable one.
#: * ``(REWRITE, key, value)`` — the free in-place write of Theorem 5;
#:   ``(REWRITE, key, bucket, record)`` when *bucket* is what the key
#:   holds plus the one *record* (a non-splitting insert), which a
#:   substrate holding a copy ships instead of the bucket.
#: * ``(PUT_MANY, items, records_moved)`` — one round of routed puts;
#:   *records_moved* is aligned with *items*.
#: * ``(REMOVE, key, records_moved)`` — one routed remove; the value.
#: * ``(CALL, function, args)`` — work the operation hands back to its
#:   driver: a dissemination hook that makes facade calls of its own
#:   (run on the client's thread, never on a runtime's loop) or a
#:   peer's forward (run where its driver's IO lives: in process, or
#:   awaited on the service loop by the ``MCAST`` handler).
#: * ``(op, key)`` or ``(op, key, value)`` — any other *op*: one metered
#:   request at *key*'s targets, answered by the ``serve`` branch of
#:   that name.
#:
#: One convention for failure: whatever a step raises — an unreachable
#: ``GET`` included — is thrown into the operation at its ``yield``, so
#: it can handle it there, and spans it holds open close before the
#: error leaves.
GET, GET_MANY, REWRITE = "get", "get_many", "rewrite"
PUT_MANY, REMOVE, CALL = "put_many", "remove", "call"
LOOKUP, GET_DIRECT, PUT = "lookup", "get_direct", "put"

#: Peer ops: what an exchange asks ``KeyValuePeer.serve``.  ``GET``,
#: ``PUT``, ``REMOVE``, ``LOOKUP`` and ``REWRITE`` are also step opcodes;
#: ``APPEND`` adds an insert's one record where the peer holds a copy,
#: ``CONTAINS`` asks whether the peer holds a key.
APPEND, CONTAINS = "append", "contains"

#: Stands in for a span while no tracer is attached.  Entering it costs
#: two calls, which the hottest step (an untraced ``GET``) avoids.
UNTRACED = contextlib.nullcontext()


def shutdown_shared_executor() -> None:
    """No-op: batch rounds run on the calling thread, there is no pool.

    Kept only because ``perf/run.py`` imports it and a PR that changes
    the program may not edit the benchmark; it goes when that import
    does (ROADMAP item 1(a)).
    """


@dataclass(slots=True)
class DhtStats:
    """Index-level cost counters, shared by all substrates.

    The ``cache_*`` counters meter the client-side leaf cache
    (:mod:`repro.core.cache`): ``cache_hits`` — hinted probes whose
    bucket covered the point (1 DHT-get total), ``cache_stale`` —
    hinted probes that proved the cached leaf gone (the probe is still
    metered in ``lookups``; the binary search resumed with tightened
    bounds), ``cache_misses`` — lookups for which nothing useful was
    cached.  They are outcome tallies, not costs: every hint probe is
    already counted in ``lookups``/``gets``.

    The batch counters meter the round structure: ``batch_rounds`` —
    how many ``*_many`` batches were issued (each is
    one parallel message round; the per-element costs still land in
    ``lookups``/``gets``/``puts``), ``batch_ops`` — how many elements
    those batches carried.  ``retries`` counts retried attempts made by
    a :class:`~repro.dht.retry.RetryingDht` wrapper (each retry is also
    metered as a fresh lookup), ``batch_retries`` the subset of
    those retries that re-issued failed *batch* elements,
    ``backoff_waits`` how many simulated-clock backoff pauses the
    wrapper inserted between attempts, and ``backoff_time`` the total
    simulated time those pauses spent (a float; it lives here, not on
    the wrapper, so a phase reset clears it with everything else).

    The ``faults_*`` counters meter the deterministic fault-injection
    plane (:mod:`repro.dht.faults`): one tick per injected fault, split
    by kind — ``faults_dropped`` (the primitive raised),
    ``faults_timed_out`` (the primitive burned its deadline, then
    raised), ``faults_slowed`` (the reply was delayed but delivered)
    and ``faults_stale`` (a read answered with a superseded value).
    They count *injections*, not costs: a dropped probe was still
    metered in ``lookups``/``gets``.

    The dissemination counters meter the prefix-multicast and
    continuous-query plane (:mod:`repro.mcast`): ``mcasts`` — range
    queries the initiator dispatched as a *single* routed message to
    the LCA owner (the O(1) initiator-message gate), ``mcast_forwards``
    — peer-to-peer subquery forwards travelling down the label tree
    (each embeds one owner resolution, metered in ``lookups`` so the
    paper's bandwidth measure stays comparable with client fan-out),
    ``subscribes`` — continuous range queries installed, and
    ``pushes`` — subscription messages delivered to clients (matching
    records and proactive re-homing invalidations alike).

    The ``restart_*`` counters meter crash recovery on a durable
    substrate (:mod:`repro.dht.durable`): ``restarts`` — how many
    peers came back through :meth:`Dht.restart`,
    ``restart_replayed`` — keys rebuilt from the peer's own durable
    log (local disk, no network), ``restart_reconciled`` — keys
    pulled from live peers because they were written (or re-homed to
    the restarted peer's range) while it was down,
    ``restart_rehomed`` — keys the restarted peer pushed away because
    their ownership moved while it was down, and
    ``restart_repair_bytes`` — modelled wire bytes those reconcile and
    re-home transfers moved.  Repair traffic is proportional to keys
    whose ownership changed, never to store size: replayed keys cost
    zero network bytes.
    """

    lookups: int = 0
    gets: int = 0
    puts: int = 0
    removes: int = 0
    records_moved: int = 0
    hops: int = 0
    cache_hits: int = 0
    cache_stale: int = 0
    cache_misses: int = 0
    batch_rounds: int = 0
    batch_ops: int = 0
    retries: int = 0
    batch_retries: int = 0
    backoff_waits: int = 0
    backoff_time: float = 0.0
    faults_dropped: int = 0
    faults_timed_out: int = 0
    faults_slowed: int = 0
    faults_stale: int = 0
    mcasts: int = 0
    mcast_forwards: int = 0
    subscribes: int = 0
    pushes: int = 0
    restarts: int = 0
    restart_replayed: int = 0
    restart_reconciled: int = 0
    restart_rehomed: int = 0
    restart_repair_bytes: int = 0

    @property
    def faults_injected(self) -> int:
        """Total injected faults across all kinds."""
        return (
            self.faults_dropped
            + self.faults_timed_out
            + self.faults_slowed
            + self.faults_stale
        )

    def meter_get(self) -> None:
        """Account one single-key ``GET`` step: one DHT-lookup, one get
        (:meth:`Dht._meter`'s, and the service loop's untraced fast
        path)."""
        self.lookups += 1
        self.gets += 1

    def meter_batch(
        self,
        count: int,
        *,
        gets: int = 0,
        puts: int = 0,
        records_moved: int = 0,
    ) -> None:
        """Account one issued batch of *count* elements.

        Every element embeds one DHT-lookup — the paper's bandwidth
        measure stays per element; parallelism buys latency, never
        bandwidth — while the batch itself counts as a single round.
        """
        self.lookups += count
        self.gets += gets
        self.puts += puts
        self.records_moved += records_moved
        self.batch_rounds += 1
        self.batch_ops += count

    def meter_forward(self, hops: int) -> None:
        """Account one peer-side forward of *hops* subqueries: each hop
        routes to its owner from the forwarding peer (one DHT-lookup,
        one ``mcast_forward``) and the hops go out as one round."""
        self.meter_batch(hops)
        self.mcast_forwards += hops

    def snapshot(self) -> dict[str, int | float]:
        """Immutable copy of all counters.

        Derived from the dataclass fields, never a hand-written list:
        a counter added to this class is in the snapshot by
        construction, so :meth:`reset`, :meth:`~repro.obs.registry.
        MetricsRegistry.delta` and the property tests that assert
        reset ⇒ all-zero can never drift out of sync with it again.
        """
        return {
            field.name: getattr(self, field.name) for field in fields(self)
        }

    def reset(self) -> None:
        """Zero all counters (between experiment phases).

        Covers exactly the :meth:`snapshot` keyset, by construction.
        """
        for field in fields(self):
            setattr(self, field.name, field.default)


class Dht(ABC):
    """Abstract ``put/get/remove/lookup`` interface plus metering.

    A concrete substrate supplies one exchange (:meth:`exchange`), and
    its own placement (:meth:`targets`) and way of running a batch's
    round (:meth:`run_round`) where the defaults do not fit;
    :meth:`perform` meters each step and maps it onto exchanges
    (:meth:`map_step`, :meth:`ask`), and the public methods are sugar
    over it, so that every substrate meters identically and a new step
    kind costs one ``KeyValuePeer.serve`` branch.

    ``tracer`` is the observability hook: ``None`` (the default) keeps
    every operation on the exact untraced path — one attribute load and
    one ``is None`` test of overhead — while an attached
    :class:`~repro.obs.trace.Tracer` wraps each primitive in a
    ``dht``-kind span right where the metering happens, so span counts
    and :class:`DhtStats` deltas agree by construction.
    """

    #: The transport this stack routes over — a
    #: :class:`~repro.net.simnet.SimNetwork` or the service runtime's
    #: transport, each with ``stats``, ``clock`` and ``tracer`` — or
    #: ``None`` for substrates that route over nothing (``LocalDht``).
    network: Any = None

    def __init__(self) -> None:
        self.stats = DhtStats()
        self.tracer: "Tracer | None" = None

    # ------------------------------------------------------------------
    # Public, metered operations: sugar over :meth:`perform`
    # ------------------------------------------------------------------
    #
    # Defined here only.  A wrapper intercepts the step, never these.

    def lookup(self, key: str) -> str:
        """Locate the peer responsible for *key*; costs one DHT-lookup."""
        return self.perform((LOOKUP, key))

    def get(self, key: str) -> Any | None:
        """Fetch the value at *key* (None when absent); one DHT-lookup."""
        return self.perform((GET, key))

    def get_direct(self, peer: str, key: str) -> Any | None:
        """Fetch *key* straight from *peer*, skipping overlay routing.

        The primitive behind learned routing shortcuts
        (:mod:`repro.adaptive`): a client that already resolved a
        key's owner sends the store-read to that peer in one message
        instead of re-routing.  The peer answers from its local store
        only — ``None`` when it does not (or no longer) hold the key,
        which is exactly the staleness signal the caller needs to
        evict its hint and fall back to a routed :meth:`get`.  Raises
        :class:`NodeUnreachableError` when *peer* is gone.

        Metered exactly like :meth:`get` (one DHT-lookup, one get):
        the saving shortcuts buy is *hops* and routing fan-in, never
        the per-operation bandwidth measure, so adaptive and plain
        runs stay comparable on the paper's cost model.
        """
        return self.perform((GET_DIRECT, key, peer))

    def put(self, key: str, value: Any, *, records_moved: int = 0) -> None:
        """Store *value* at *key*; one DHT-lookup plus *records_moved*
        records of transfer."""
        self.perform((PUT, key, value, records_moved))

    def remove(self, key: str, *, records_moved: int = 0) -> Any:
        """Delete and return the value at *key*; one DHT-lookup.

        *records_moved* accounts records pulled back to the caller
        (e.g. a bucket absorbed during a merge).  Raises
        :class:`DhtKeyError` when the key is absent.
        """
        return self.perform((REMOVE, key, records_moved))

    def rewrite_local(self, key: str, value: Any) -> None:
        """Replace the value at an existing key at zero metered cost.

        Models a peer rewriting an object it already stores.  The key
        must exist; raising otherwise catches index-layer bugs where a
        "free" write would actually have required routing.
        """
        self.perform((REWRITE, key, value))

    # A batch carries one recursion level's *independent* operations.
    # Metering is per element — every element embeds a DHT-lookup, so
    # the paper's bandwidth measure is unchanged — but the batch counts
    # as one round: latency-wise the elements proceed in parallel, and
    # substrates that model time advance their clock by the slowest
    # element instead of the sum (:meth:`run_round`).

    def get_many_outcomes(self, keys: Sequence[str]) -> list[Any]:
        """Fetch several keys as one parallel round.

        Costs one DHT-lookup per key (exactly like ``len(keys)``
        individual gets) but a single batch round.  An element whose
        peer was unreachable yields a :class:`BatchFailure` in its slot
        instead of aborting the round — one failed slot never poisons
        the round's other results.  Query engines that return partial
        answers (``complete=False``) build on this.
        """
        return self.perform((GET_MANY, list(keys)))

    def put_many(
        self,
        items: Sequence[tuple[str, Any]],
        *,
        records_moved: Sequence[int] | None = None,
    ) -> None:
        """Store several (key, value) pairs as one parallel round.

        *records_moved* optionally gives the per-item record transfer
        (default: zero per item), aligned with *items*.
        """
        items = list(items)
        moved = _check_records_moved(items, records_moved)
        self.perform((PUT_MANY, items, moved))

    def restart(self, name: str) -> None:
        """Bring a crashed peer back from its durable state.

        The recovery primitive next to ``join``/``leave``/``fail`` on
        substrates with membership: replay the peer's durable log
        (local, free), then reconcile with the live overlay — pull
        keys written into its range while it was down, push keys whose
        ownership moved away.  Repair traffic is proportional to keys
        whose ownership changed, not to the store's size; the
        ``restart_*`` counters on :class:`DhtStats` record the split.

        Requires a substrate built with durability
        (``RuntimeConfig(durability=...)``); otherwise — and on
        substrates without membership at all — this raises
        :class:`ReproError`.
        """
        tracer = self.tracer
        with UNTRACED if tracer is None else tracer.span("dht", "restart", peer=name):
            self._recover(name)

    def _recover(self, name: str) -> None:
        raise ReproError(
            f"{type(self).__name__} does not support restart; build the "
            "substrate with durability enabled "
            "(RuntimeConfig(durability=...))"
        )

    # ------------------------------------------------------------------
    # Lifecycle and stack introspection
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release runtime resources (event loops, sockets).  In-process
        substrates hold none, so the default does nothing."""

    def __enter__(self) -> "Dht":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def unwrap(self) -> Iterator["Dht"]:
        """The wrapper stack from this layer down, outermost first.

        A bare substrate yields only itself; a :class:`DhtDecorator`
        yields itself, then everything beneath it.  Code that needs one
        particular layer (the routed overlay, the service runtime, the
        adaptive plane) selects it from this walk by type.
        """
        yield self

    # ------------------------------------------------------------------
    # The step protocol: operations are generators, this runs them
    # ------------------------------------------------------------------

    def _meter(self, step: tuple) -> Any:
        """Tick what a metered *step* costs and return its ``dht`` span,
        not yet entered (:data:`UNTRACED` when no tracer is attached).

        What a step costs is decided here only: :meth:`perform` calls
        it, and so do a retry wave and a runtime that performs steps on
        a loop of its own, so all of them meter and trace alike by
        construction.  A ``REWRITE`` costs nothing (Theorem 5), nor does
        an empty batch (no round); a ``CALL`` is never passed in.
        """
        op, stats, tracer = step[0], self.stats, self.tracer
        if op is GET:
            stats.meter_get()
            return UNTRACED if tracer is None else tracer.span("dht", op, key=step[1])
        if op is REWRITE or (op is GET_MANY or op is PUT_MANY) and not step[1]:
            return UNTRACED
        if op is GET_MANY:
            count = len(step[1])
            stats.meter_batch(count, gets=count)
            attrs = {"count": count}
        elif op is PUT_MANY:
            count, moved = len(step[1]), sum(step[2])
            stats.meter_batch(count, puts=count, records_moved=moved)
            attrs = {"count": count, "records_moved": moved}
        else:
            stats.lookups += 1
            attrs = {"key": step[1]}
            if op is GET_DIRECT:
                stats.gets += 1
                attrs["peer"] = step[2]
            elif op is PUT or op is REMOVE:
                if op is PUT:
                    stats.puts += 1
                else:
                    stats.removes += 1
                stats.records_moved += step[-1]
                attrs["records_moved"] = step[-1]
        return UNTRACED if tracer is None else tracer.span("dht", op, **attrs)

    def perform(self, step: tuple) -> Any:
        """Run one step: tick its meter, open its span, run its
        requests (:meth:`map_step`); the outcome.

        The one metered entry point of the facade and the one seam a
        wrapper overrides to intercept whole steps (retry, adaptive
        reads).  Public so a test or a simulated client can advance an
        operation by hand, one step at a time, on any substrate or
        wrapper stack.
        """
        op = step[0]
        if op is GET and self.tracer is None:
            # The hot step runs bare: meter_get's ticks, in place (the
            # call would cost the in-process step a few per cent).
            stats = self.stats
            stats.lookups += 1
            stats.gets += 1
            return self.ask(GET, step[1])
        if op is CALL:
            return step[1](*step[2])
        span = self._meter(step)
        if span is UNTRACED:  # no tracer, or a free step: nothing to enter
            return self._carry(step)
        with span:
            return self._carry(step)

    def _carry(self, step: tuple) -> Any:
        """Run *step*'s requests (:meth:`map_step`) and settle its
        outcome, unmetered."""
        request, settle = self.map_step(step)
        if type(request) is tuple:
            reply = self.ask(*request)
        else:
            reply = self.run_round(request) if request else []
        return reply if settle is None else settle(step, reply)

    def drive(self, operation: Generator[tuple, Any, Any]) -> Any:
        """Run *operation* to completion against this facade; its result.

        The one trampoline: :meth:`perform` each step the operation
        yields, send the outcome back, throw a failure in so the
        operation handles it or unwinds before it propagates.  The
        operation holds every decision and none of the IO — lookups,
        range queries, inserts, deletes, splits and merges alike.

        This body is the driver for every in-process substrate and —
        because :class:`DhtDecorator` forwards :meth:`perform` but not
        this — for every wrapped stack, whose ``perform`` overrides
        therefore see each step.  A substrate with a runtime of its own
        overrides it to run the same loop where its IO lives
        (``ServiceDht``: one coroutine on the service loop).
        """
        perform = self.perform
        try:
            step = next(operation)
            while True:
                try:
                    outcome = perform(step)
                except BaseException as error:
                    step = operation.throw(error)
                else:
                    step = operation.send(outcome)
        except StopIteration as done:
            return done.value

    # ------------------------------------------------------------------
    # Zero-cost oracle access (metrics, tests, debugging only)
    # ------------------------------------------------------------------

    def peek(self, key: str) -> Any | None:
        """Read a key without metering.  Experiments must not use this
        on query paths; it exists for invariant checks and metrics."""
        return self.ask(GET, key)

    def key_count(self) -> int:
        """Number of distinct keys stored anywhere (oracle, unmetered).

        The counting path for churn and restart accounting.  This
        default counts :meth:`items`; substrates override it with a
        ``PeerStore.keys()`` walk that never touches values.
        """
        return sum(1 for _ in self.items())

    def load_by_peer(self, weigh=None) -> dict[str, int]:
        """Per-peer storage load (oracle, unmetered).

        *weigh* maps a stored value to its weight (default: 1 per
        object).  Pass e.g. ``lambda bucket: bucket.load`` to weigh
        buckets by record count, the measure behind Fig. 6a.
        """
        loads = dict.fromkeys(self.peers(), 0)
        for key, value in self.items():
            loads[self.peer_of(key)] += 1 if weigh is None else weigh(value)
        return loads

    @abstractmethod
    def peer_of(self, key: str) -> str:
        """Responsible peer for *key* without metering (oracle)."""

    @abstractmethod
    def peers(self) -> list[str]:
        """All live peer addresses."""

    @abstractmethod
    def items(self) -> Iterator[tuple[str, Any]]:
        """Iterate every (key, value) pair stored anywhere (oracle)."""

    # ------------------------------------------------------------------
    # What a substrate supplies: placement and one exchange
    # ------------------------------------------------------------------

    #: True when a peer's store holds a copy of what crossed the wire
    #: rather than the client's own object: an insert that splits
    #: nothing then ships its one record (``APPEND``), not the bucket.
    holds_copies = False

    def targets(self, key: str) -> list[str]:
        """Placement: the peers a request for *key* goes to, its owner
        first; by default the owner alone.  A routed substrate routes
        here and meters the hops."""
        return [self.peer_of(key)]

    @abstractmethod
    def exchange(self, peer: str, op: str, key: str, value: Any = None) -> Any:
        """One request to *peer*, answered there by
        ``KeyValuePeer.serve(op, key, value)``; the reply.  *peer* is
        ``None`` for a rewrite: the peer that holds *key*, found without
        a route.  Raises :class:`NodeUnreachableError` when *peer*
        cannot be reached, and whatever ``serve`` raised otherwise."""

    def run_round(self, requests: list[tuple]) -> list[Any]:
        """Run *requests* — :meth:`ask`'s arguments, one tuple each — as
        one parallel round: one reply per request, in order, with a
        :class:`BatchFailure` in the slot of one whose peer was
        unreachable.  Data errors (``DhtKeyError``) still propagate:
        they are caller bugs, not network weather.  In process there is
        no latency to overlap, so this default asks them in turn."""
        return [_capture(self.ask, *request) for request in requests]

    # ------------------------------------------------------------------
    # The one mapping of steps onto exchanges
    # ------------------------------------------------------------------

    def map_step(self, step: tuple) -> tuple[Any, Any]:
        """What *step* asks of the peers: ``(request, settle)``.

        *request* is one :meth:`ask` request ``(op, key, value, peer)``
        — *peer* ``None`` sends it to the key's targets, or for a
        rewrite where the key is held — or a list of them for a batch's
        one round, empty for an empty batch (no round).  *settle*,
        unless ``None``, makes the step's outcome of the reply: a
        ``PUT_MANY`` raises its first failed slot, a ``REWRITE`` of a
        key stored nowhere raises :class:`DhtKeyError`.  A runtime that
        performs steps on a loop of its own (``ServiceDht``) runs the
        same map, so no step kind is mapped twice.
        """
        op, key = step[0], step[1]
        if op is GET_MANY:
            return [(GET, each, None, None) for each in key], None
        if op is PUT_MANY:
            return [(PUT, *item, None) for item in step[1]], _raise_first_failure
        if op is REWRITE:
            if len(step) > 3 and self.holds_copies:
                return (APPEND, key, step[3], None), _rewritten
            return (REWRITE, key, step[2], None), _rewritten
        if op is GET_DIRECT:
            return (GET, key, None, step[2]), None
        if op is REMOVE or len(step) < 3:
            return (op, key, None, None), None
        return (op, key, step[2], None), None  # a PUT, or an op of no rule

    def ask(self, op: str, key: str, value: Any = None, peer: str | None = None) -> Any:
        """One request: to *peer*, else to each of *key*'s targets, the
        replies combined by *op*'s rule.  A ``GET`` answers with the
        first reply that is not ``None`` and asks no further; a
        ``REMOVE`` removes wherever *key* is held and raises
        :class:`DhtKeyError` when it is held nowhere; any other op goes
        to every target and answers with the owner's reply.  A rewrite
        takes no route (Theorem 5: the peer holding *key* rewrites it),
        so it is one exchange the substrate sends where *key* is held."""
        if peer is not None or op is REWRITE or op is APPEND:
            return self.exchange(peer, op, key, value)
        targets = self.targets(key)
        if op is GET:
            for peer in targets:
                reply = self.exchange(peer, op, key)
                if reply is not None:
                    return reply
            return None
        if op is REMOVE:
            removed = []
            for peer in targets:
                with contextlib.suppress(DhtKeyError):
                    removed.append(self.exchange(peer, op, key))
            if not removed:
                raise DhtKeyError(f"key {key!r} does not exist")
            return removed[0]
        reply = self.exchange(targets[0], op, key, value)
        for peer in targets[1:]:
            self.exchange(peer, op, key, value)
        return reply


class DhtDecorator(Dht):
    """Base of every wrapper that decorates another :class:`Dht`.

    Owns the wrapped ``inner`` facade, shares its ``stats`` and
    ``tracer`` (one counter set, one span tree for the whole stack),
    resolves the simulated clock time-costing wrappers charge, and
    forwards the complete facade once: :meth:`Dht.perform`, the
    requests and exchanges below it, the unmetered oracle, membership
    and lifecycle.  A subclass overrides only what it changes, at one
    of two seams: ``perform`` above the meter to intercept whole steps
    (retry, adaptive reads), or :meth:`Dht.ask` / :meth:`Dht.run_round`
    below it, each request of a step once (fault injection).  The
    public methods are :class:`Dht`'s sugar over ``perform``, so a
    direct call and a driven step meet the same seam.

    The one thing deliberately *not* forwarded is :meth:`Dht.drive`: a
    wrapped stack keeps the base trampoline, so every step of every
    operation passes through the wrappers' ``perform`` and can be
    retried, faulted or redirected.

    *clock* defaults to the stack's own: the clock of a decorator
    underneath, else the clock of the ``network`` the substrate routes
    over, else a private scheduler.
    """

    def __init__(
        self, inner: Dht, clock: EventScheduler | None = None
    ) -> None:
        # No ``super().__init__()``: a wrapper has no counters of its
        # own — every attempt, injection and copy is metered on the
        # substrate's.
        self._inner = inner
        self.holds_copies = inner.holds_copies
        self.stats = inner.stats
        self.tracer = inner.tracer
        if clock is None:
            if isinstance(inner, DhtDecorator):
                clock = inner.clock
            elif inner.network is not None:
                clock = inner.network.clock
            else:
                clock = EventScheduler()
        self._clock = clock

    @property
    def inner(self) -> Dht:
        """The wrapped facade."""
        return self._inner

    @property
    def clock(self) -> EventScheduler:
        """The clock backoff waits and injected delays advance."""
        return self._clock

    @property
    def network(self) -> Any:
        return self._inner.network

    def unwrap(self) -> Iterator[Dht]:
        yield self
        yield from self._inner.unwrap()

    def perform(self, step: tuple) -> Any:
        # The inner facade meters each step.
        return self._inner.perform(step)

    # Oracle access.

    def peek(self, key: str) -> Any | None:
        return self._inner.peek(key)

    def peer_of(self, key: str) -> str:
        return self._inner.peer_of(key)

    def peers(self) -> list[str]:
        return self._inner.peers()

    def items(self) -> Iterator[tuple[str, Any]]:
        return self._inner.items()

    def key_count(self) -> int:
        return self._inner.key_count()

    # Membership and lifecycle reach the substrate: churn, crash and
    # durable restart are not operations a wrapper retries, faults or
    # adapts.

    def join(self, name: str, gateway: str | None = None) -> None:
        self._inner.join(name, gateway=gateway)

    def leave(self, name: str) -> None:
        self._inner.leave(name)

    def fail(self, name: str) -> None:
        self._inner.fail(name)

    def _recover(self, name: str) -> None:
        self._inner._recover(name)

    def close(self) -> None:
        self._inner.close()

    def __enter__(self) -> "DhtDecorator":
        self._inner.__enter__()
        return self

    # Requests and exchanges.

    def ask(self, op: str, key: str, value: Any = None, peer: str | None = None) -> Any:
        return self._inner.ask(op, key, value, peer)

    def run_round(self, requests: list[tuple]) -> list[Any]:
        return self._inner.run_round(requests)

    def targets(self, key: str) -> list[str]:
        return self._inner.targets(key)

    def exchange(self, peer: str, op: str, key: str, value: Any = None) -> Any:
        return self._inner.exchange(peer, op, key, value)


def _capture(operation, *args: Any) -> Any:
    """Run one batch element, trapping unreachability in its slot."""
    try:
        return operation(*args)
    except NodeUnreachableError as error:
        return BatchFailure(error)


def _raise_first_failure(step: tuple, outcomes: list[Any]) -> None:
    """Settle a ``PUT_MANY``: surface its first failed slot, if any."""
    for outcome in outcomes:
        if isinstance(outcome, BatchFailure):
            raise outcome.error


def _rewritten(step: tuple, stored: bool) -> None:
    """Settle a ``REWRITE``: a key stored nowhere needed a routed put."""
    if not stored:
        raise DhtKeyError(
            f"rewrite_local of absent key {step[1]!r}; a routed put is "
            "required to create it"
        )


def _check_records_moved(
    items: Sequence[tuple[str, Any]], records_moved: Sequence[int] | None
) -> list[int]:
    if records_moved is None:
        return [0] * len(items)
    moved = list(records_moved)
    if len(moved) != len(items):
        raise ReproError(
            f"records_moved has {len(moved)} entries for {len(items)} items"
        )
    return moved
