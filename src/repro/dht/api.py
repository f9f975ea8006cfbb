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
step through the metered facade method of that name and
:meth:`Dht.drive` is the trampoline; see the opcodes below.
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

#: Rough wire size of an object envelope: prices control payloads
#: (peer names, booleans) under the codec model.
ENVELOPE_WIRE_BYTES = 16

#: Bytes of per-message framing — kept equal to the service plane's
#: frame header (``repro.service.wire.HEADER.size``: magic, version,
#: opcode, request id, payload length), so simulated and TCP byte
#: counts frame messages identically.
MESSAGE_HEADER_BYTES = 14


#: (payload_size, data_size) — installed by :mod:`repro.core.codec` at
#: import time.  The indirection keeps the layering acyclic (``dht``
#: cannot import ``core`` at module level); importing :mod:`repro`
#: imports the codec, so there is no model before it.
_wire_model: tuple[Any, Any]


def install_wire_model(payload_size, data_size) -> None:
    """Install the byte-accounting model all substrates charge with.

    *payload_size(value)* prices a message payload; *data_size(value)*
    prices only its data-plane bytes (encoded records), feeding
    ``NetworkStats.payload_bytes``.  A value with data-plane bytes is
    all data — both functions return the same number for it — so a
    caller needing both sizes it once.  Called once by
    :mod:`repro.core.codec`; replaceable by external codecs the same
    way.
    """
    global _wire_model
    _wire_model = (payload_size, data_size)
    from repro.net import simnet

    simnet.install_reply_cost_model(
        lambda result: (reply_wire_size(result), data_size(result))
    )


def estimate_wire_size(value: Any) -> int:
    """Bytes a stored object occupies as a message payload.

    Under the codec model (the default once :mod:`repro` is imported)
    this is the *exact* encoded size for record-bearing objects and
    one envelope for control payloads; ``None`` costs nothing.
    """
    if value is None:
        return 0
    return _wire_model[0](value)


def data_wire_size(value: Any) -> int:
    """Data-plane bytes of *value* (0 for control payloads)."""
    if value is None:
        return 0
    return _wire_model[1](value)


def request_wire_size(key: str, value: Any = None) -> int:
    """Modelled bytes of one request message: framing header, the key
    itself, plus the payload for value-carrying operations."""
    return MESSAGE_HEADER_BYTES + len(key.encode()) + estimate_wire_size(value)


def reply_wire_size(body: Any) -> int:
    """Modelled bytes of one reply message (``None`` body = bare ack)."""
    return MESSAGE_HEADER_BYTES + estimate_wire_size(body)


@dataclass(frozen=True, slots=True)
class BatchFailure:
    """Per-element failure marker inside a batch outcome list.

    The ``_do_*_many`` primitives never abort a whole batch on one
    unreachable peer: they record the element's error in place and keep
    going, so wrappers such as :class:`~repro.dht.retry.RetryingDht`
    can retry exactly the failed subset (partial-failure semantics).
    """

    error: Exception


#: The step vocabulary.  A step is a plain tuple, opcode first (a class
#: per step cost the in-process runtime ~7 % of a lookup); each opcode
#: is also the name of the ``dht`` span its primitive runs under.
#:
#: * ``(GET, key)`` — one metered get; the outcome is the value or
#:   ``None``.
#: * ``(GET_MANY, keys)`` — one parallel round; one outcome per key, a
#:   :class:`BatchFailure` in the slot of an unreachable one.
#: * ``(REWRITE, key, value)`` — the free in-place write of Theorem 5.
#: * ``(PUT_MANY, items, records_moved)`` — one round of routed puts;
#:   *records_moved* is aligned with *items*.
#: * ``(REMOVE, key, records_moved)`` — one routed remove; the value.
#: * ``(CALL, function, args)`` — work the operation hands back to its
#:   driver: a dissemination hook that makes facade calls of its own
#:   (run on the client's thread, never on a runtime's loop) or a
#:   peer's forward (run where its driver's IO lives: in process, or
#:   awaited on the service loop by the ``MCAST`` handler).
#:
#: One convention for failure: whatever a step raises — an unreachable
#: ``GET`` included — is thrown into the operation at its ``yield``, so
#: it can handle it there, and spans it holds open close before the
#: error leaves.
GET, GET_MANY, REWRITE = "get", "get_many", "rewrite"
PUT_MANY, REMOVE, CALL = "put_many", "remove", "call"

#: Stands in for a span while no tracer is attached.  Entering it costs
#: two calls, which the hottest primitive (:meth:`Dht.get`) avoids.
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

    Concrete substrates implement the five ``_do_*`` primitives; the
    public methods handle accounting so that every substrate meters
    identically.

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
    # Public, metered operations
    # ------------------------------------------------------------------

    def lookup(self, key: str) -> str:
        """Locate the peer responsible for *key*; costs one DHT-lookup."""
        self.stats.lookups += 1
        return self._traced("lookup", self._do_lookup, key, key=key)

    def get(self, key: str) -> Any | None:
        """Fetch the value at *key* (None when absent); one DHT-lookup."""
        if self.tracer is None:
            # The hot primitive runs bare: _meter's ticks, in place.
            self.stats.lookups += 1
            self.stats.gets += 1
            return self._do_get(key)
        with self._meter((GET, key)):
            return self._do_get(key)

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
        self.stats.lookups += 1
        self.stats.gets += 1
        return self._traced(
            "get_direct", self._do_get_direct, peer, key, key=key, peer=peer
        )

    def put(self, key: str, value: Any, *, records_moved: int = 0) -> None:
        """Store *value* at *key*; one DHT-lookup plus *records_moved*
        records of transfer."""
        self.stats.lookups += 1
        self.stats.puts += 1
        self.stats.records_moved += records_moved
        self._traced(
            "put", self._do_put, key, value, key=key, records_moved=records_moved
        )

    def remove(self, key: str, *, records_moved: int = 0) -> Any:
        """Delete and return the value at *key*; one DHT-lookup.

        *records_moved* accounts records pulled back to the caller
        (e.g. a bucket absorbed during a merge).  Raises
        :class:`DhtKeyError` when the key is absent.
        """
        with self._meter((REMOVE, key, records_moved)):
            return self._do_remove(key)

    # ------------------------------------------------------------------
    # Batched operations (one parallel round each)
    # ------------------------------------------------------------------
    #
    # A batch carries one recursion level's *independent* operations.
    # Metering is per element — every element embeds a DHT-lookup, so
    # the paper's bandwidth measure is unchanged — but the batch counts
    # as one round: latency-wise the elements proceed in parallel, and
    # substrates that model time advance their clock by the slowest
    # element instead of the sum.  The default implementations fall
    # back to sequential primitives so every substrate works unmodified
    # (``LocalDht`` runs them as they are: in-process there is no
    # latency to overlap, and a peer's journal is not locked).

    def get_many_outcomes(self, keys: Sequence[str]) -> list[Any]:
        """Fetch several keys as one parallel round.

        Costs one DHT-lookup per key (exactly like ``len(keys)``
        individual gets) but a single batch round.  An element whose
        peer was unreachable yields a :class:`BatchFailure` in its slot
        instead of aborting the round — one failed slot never poisons
        the round's other results.  Query engines that return partial
        answers (``complete=False``) build on this.
        """
        keys = list(keys)
        if not keys:
            return []
        with self._meter((GET_MANY, keys)):
            return self._do_get_many(keys)

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
        if not items:
            return
        moved = _check_records_moved(items, records_moved)
        with self._meter((PUT_MANY, items, moved)):
            _raise_batch_failures(self._do_put_many(items))

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
        self._traced("restart", self._do_restart, name, peer=name)

    def _do_restart(self, name: str) -> None:
        raise ReproError(
            f"{type(self).__name__} does not support restart; build the "
            "substrate with durability enabled "
            "(RuntimeConfig(durability=...))"
        )

    # ------------------------------------------------------------------
    # Lifecycle and stack introspection
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release runtime resources (loop threads, sockets).  In-process
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

    def rewrite_local(self, key: str, value: Any) -> None:
        """Replace the value at an existing key at zero metered cost.

        Models a peer rewriting an object it already stores.  The key
        must exist; raising otherwise catches index-layer bugs where a
        "free" write would actually have required routing.
        """
        if not self._do_rewrite(key, value):
            raise _absent_key(key)

    # ------------------------------------------------------------------
    # The step protocol: operations are generators, this runs them
    # ------------------------------------------------------------------

    def _traced(self, name: str, primitive, *args: Any, **attrs: Any) -> Any:
        """Run a primitive that is no step kind (it stays off the hot
        operations) under its ``dht`` span, or bare when untraced."""
        tracer = self.tracer
        if tracer is None:
            return primitive(*args)
        with tracer.span("dht", name, **attrs):
            return primitive(*args)

    def _meter(self, step: tuple) -> Any:
        """Tick what a ``GET`` / ``GET_MANY`` / ``PUT_MANY`` / ``REMOVE``
        *step* costs and return its ``dht`` span, not yet entered
        (:data:`UNTRACED` when no tracer is attached).

        The half of a metered primitive that does not depend on where
        its IO runs: the facade methods call it, and so does a runtime
        that performs steps on a loop of its own, so the two meter and
        trace alike by construction.
        """
        op, stats, tracer = step[0], self.stats, self.tracer
        if op is GET:
            stats.lookups += 1
            stats.gets += 1
            return UNTRACED if tracer is None else tracer.span("dht", op, key=step[1])
        if op is REMOVE:
            stats.lookups += 1
            stats.removes += 1
            stats.records_moved += step[2]
            attrs = {"key": step[1], "records_moved": step[2]}
        elif op is GET_MANY:
            attrs = {"count": len(step[1])}
            stats.meter_batch(len(step[1]), gets=len(step[1]))
        else:
            count, moved = len(step[1]), sum(step[2])
            attrs = {"count": count, "records_moved": moved}
            stats.meter_batch(count, puts=count, records_moved=moved)
        return UNTRACED if tracer is None else tracer.span("dht", op, **attrs)

    def perform(self, step: tuple) -> Any:
        """Run one step through the metered facade method of its name.

        Public so a test or a simulated client can advance an operation
        by hand, one step at a time, on any substrate or wrapper stack.
        """
        op = step[0]
        if op is GET:
            return self.get(step[1])
        if op is GET_MANY:
            return self.get_many_outcomes(step[1])
        if op is REWRITE:
            return self.rewrite_local(step[1], step[2])
        if op is PUT_MANY:
            return self.put_many(step[1], records_moved=step[2])
        if op is REMOVE:
            return self.remove(step[1], records_moved=step[2])
        return step[1](*step[2])

    def drive(self, operation: Generator[tuple, Any, Any]) -> Any:
        """Run *operation* to completion against this facade; its result.

        The one trampoline: :meth:`perform` each step the operation
        yields, send the outcome back, throw a failure in so the
        operation handles it or unwinds before it propagates.  The
        operation holds every decision and none of the IO — lookups,
        range queries, inserts, deletes, splits and merges alike.

        This body is the driver for every in-process substrate and —
        because :class:`DhtDecorator` forwards neither it nor
        :meth:`perform` — for every wrapped stack, whose ``get`` /
        ``get_many_outcomes`` / ``put_many`` / ``remove`` overrides
        therefore see each primitive.  A substrate with a runtime of
        its own overrides it to run the same loop where its IO lives
        (``ServiceDht``: one coroutine on the service loop).
        """
        get, perform = self.get, self.perform
        try:
            step = next(operation)
            while True:
                try:
                    # A probe is the hot step: straight to the facade.
                    outcome = get(step[1]) if step[0] is GET else perform(step)
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
        return self._do_get(key)

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
    # Substrate primitives
    # ------------------------------------------------------------------

    @abstractmethod
    def _do_lookup(self, key: str) -> str: ...

    @abstractmethod
    def _do_get(self, key: str) -> Any | None: ...

    @abstractmethod
    def _do_put(self, key: str, value: Any) -> None: ...

    @abstractmethod
    def _do_remove(self, key: str) -> Any: ...

    @abstractmethod
    def _do_contains(self, key: str) -> bool: ...

    def _do_get_direct(self, peer: str, key: str) -> Any | None:
        """Direct store-read at *peer*.  The default falls back to the
        routed read so every substrate works unmodified; routed
        substrates override this with a single point-to-point RPC."""
        return self._do_get(key)

    def _do_rewrite(self, key: str, value: Any) -> bool:
        """Replace the value at *key* where it is stored; False (and no
        write) when it is stored nowhere.  The default asks, then puts;
        substrates that can reach the holders do it in one step."""
        if not self._do_contains(key):
            return False
        self._do_put(key, value)
        return True

    # ------------------------------------------------------------------
    # Batch primitives (unmetered; overridable per substrate)
    # ------------------------------------------------------------------
    #
    # Contract: one outcome per element, in order.  An element whose
    # execution raised :class:`NodeUnreachableError` yields a
    # :class:`BatchFailure` in its slot instead of aborting the batch —
    # partial-failure semantics for retry wrappers.  Data errors
    # (``DhtKeyError``) still propagate immediately: they are caller
    # bugs, not transient network weather.

    def _do_get_many(self, keys: Sequence[str]) -> list[Any]:
        return [_capture(self._do_get, key) for key in keys]

    def _do_put_many(self, items: Sequence[tuple[str, Any]]) -> list[Any]:
        return [_capture(self._do_put, key, value) for key, value in items]


class DhtDecorator(Dht):
    """Base of every wrapper that decorates another :class:`Dht`.

    Owns the wrapped ``inner`` facade, shares its ``stats`` and
    ``tracer`` (one counter set, one span tree for the whole stack),
    resolves the simulated clock time-costing wrappers charge, and
    forwards the complete facade once: metered operations, ``_do_*``
    primitives, the unmetered oracle, membership and lifecycle.  A
    subclass overrides only what it changes — public operations to
    intercept whole calls (retry, adaptive reads), ``_do_*`` primitives
    to intercept below the metering (fault injection).

    The two things deliberately *not* forwarded are :meth:`Dht.drive`
    and :meth:`Dht.perform`: a wrapped stack keeps the base trampoline,
    so every step of every operation passes through the wrappers'
    ``get`` / ``get_many_outcomes`` / ``put_many`` / ``remove`` and can
    be retried, faulted or redirected.

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

    # Metered operations: the inner facade meters each call.

    def lookup(self, key: str) -> str:
        return self._inner.lookup(key)

    def get(self, key: str) -> Any | None:
        return self._inner.get(key)

    def get_direct(self, peer: str, key: str) -> Any | None:
        return self._inner.get_direct(peer, key)

    def put(self, key: str, value: Any, *, records_moved: int = 0) -> None:
        self._inner.put(key, value, records_moved=records_moved)

    def remove(self, key: str, *, records_moved: int = 0) -> Any:
        return self._inner.remove(key, records_moved=records_moved)

    def get_many_outcomes(self, keys: Sequence[str]) -> list[Any]:
        return self._inner.get_many_outcomes(keys)

    def put_many(
        self,
        items: Sequence[tuple[str, Any]],
        *,
        records_moved: Sequence[int] | None = None,
    ) -> None:
        self._inner.put_many(items, records_moved=records_moved)

    def rewrite_local(self, key: str, value: Any) -> None:
        self._inner.rewrite_local(key, value)

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

    def _do_restart(self, name: str) -> None:
        self._inner._do_restart(name)

    def close(self) -> None:
        self._inner.close()

    def __enter__(self) -> "DhtDecorator":
        self._inner.__enter__()
        return self

    # Substrate primitives.

    def _do_lookup(self, key: str) -> str:
        return self._inner._do_lookup(key)

    def _do_get(self, key: str) -> Any | None:
        return self._inner._do_get(key)

    def _do_get_direct(self, peer: str, key: str) -> Any | None:
        return self._inner._do_get_direct(peer, key)

    def _do_put(self, key: str, value: Any) -> None:
        self._inner._do_put(key, value)

    def _do_remove(self, key: str) -> Any:
        return self._inner._do_remove(key)

    def _do_contains(self, key: str) -> bool:
        return self._inner._do_contains(key)

    def _do_rewrite(self, key: str, value: Any) -> bool:
        return self._inner._do_rewrite(key, value)

    def _do_get_many(self, keys: Sequence[str]) -> list[Any]:
        return self._inner._do_get_many(keys)

    def _do_put_many(self, items: Sequence[tuple[str, Any]]) -> list[Any]:
        return self._inner._do_put_many(items)


def _capture(operation, *args: Any) -> Any:
    """Run one batch element, trapping unreachability in its slot."""
    try:
        return operation(*args)
    except NodeUnreachableError as error:
        return BatchFailure(error)


def _raise_batch_failures(outcomes: list[Any]) -> list[Any]:
    """Surface the first per-element failure, or pass outcomes through."""
    for outcome in outcomes:
        if isinstance(outcome, BatchFailure):
            raise outcome.error
    return outcomes


def _absent_key(key: str) -> DhtKeyError:
    return DhtKeyError(
        f"rewrite_local of absent key {key!r}; a routed put is "
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
