"""Every step kind runs one way on every substrate.

``Dht.map_step`` maps each step onto a substrate's exchanges once, and
the service runtime's loop driver runs the same map.  The first test
drives one step of every kind (``tools/service_smoke.py``'s table, which
that script also runs over TCP) as a one-step operation on ``LocalDht``,
a Chord ring and the asyncio service runtime, and asserts the same
outcome, raised type, meter delta and stored value on all three.  The
second adds a step kind the program does not know, as one branch of
``KeyValuePeer.serve``, and drives it through bare and wrapped stacks
with no substrate or wrapper method written for it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.adaptive import AdaptiveConfig
from repro.adaptive.plane import AdaptiveDht
from repro.dht.api import GET_MANY
from repro.dht.chord import ChordDht
from repro.dht.faults import FaultPlan, FaultyDht
from repro.dht.localhash import LocalDht
from repro.dht.peer import KeyValuePeer
from repro.dht.retry import RetryingDht
from repro.obs.trace import Tracer
from repro.runtime import create_dht

ROOT = Path(__file__).resolve().parent.parent


def load_service_smoke():
    """``tools/service_smoke.py`` as a module (``tools/`` is not a
    package)."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import service_smoke
    finally:
        sys.path.pop(0)
    return service_smoke


smoke = load_service_smoke()

SUBSTRATES = {
    "local": dict(kind="sim", overlay="local"),
    "chord": dict(kind="sim", overlay="chord"),
    "asyncio": dict(kind="asyncio"),
}


@pytest.mark.parametrize("name", list(smoke.STEPS))
def test_a_step_has_one_outcome_on_every_substrate(name):
    outcomes = {}
    for substrate, config in SUBSTRATES.items():
        with create_dht(n_peers=4, **config) as dht:
            outcomes[substrate] = smoke.step_outcome(dht, name)
    assert outcomes["chord"] == outcomes["local"]
    assert outcomes["asyncio"] == outcomes["local"]


# ----------------------------------------------------------------------
# A new step kind costs one serve branch
# ----------------------------------------------------------------------

#: The throwaway peer op: write *value* unless *key* is already stored.
NEW_OP = "put_if_absent"


def with_new_op(serve):
    """*serve* plus one branch: :data:`NEW_OP`."""

    def serve_new_op(self, op, key, value=None):
        if op == NEW_OP:
            if key in self.store:
                return False
            self.store.put(key, value)
            return True
        return serve(self, op, key, value)

    return serve_new_op


def wrapped(dht):
    """*dht* under faults (drops, retried), retry and adaptive reads."""
    faulty = FaultyDht(dht, FaultPlan(3, drop_rate=0.3))
    return AdaptiveDht(RetryingDht(faulty, attempts=12), AdaptiveConfig())


@pytest.mark.parametrize("build", [
    lambda: LocalDht(8), lambda: ChordDht.build(8, replication=2),
], ids=["local", "chord"])
@pytest.mark.parametrize("wrap", [lambda dht: dht, wrapped], ids=["bare", "wrapped"])
def test_a_new_step_kind_is_one_serve_branch(monkeypatch, build, wrap):
    monkeypatch.setattr(KeyValuePeer, "serve", with_new_op(KeyValuePeer.serve))
    dht = wrap(build())
    assert dht.drive(smoke.one_step((NEW_OP, "k", "first"))) is True
    assert dht.drive(smoke.one_step((NEW_OP, "k", "second"))) is False
    assert dht.get("k") == "first"
    stats = dht.stats
    # Each attempt of the new step is metered as one DHT-lookup, like
    # any routed request; a dropped attempt never reached a store.
    assert stats.lookups == 3 + stats.retries
    assert stats.faults_dropped == stats.retries
    assert (stats.puts, stats.removes, stats.records_moved) == (0, 0, 0)
    for layer in dht.unwrap():
        for cls in type(layer).__mro__:
            assert not [name for name in vars(cls) if NEW_OP in name], cls


def test_faults_draw_once_per_key_per_step_over_replicas():
    """Replication reaches every copy; the fault plan is consulted once
    per key of a step, in step order, however many copies it reaches."""
    chord = ChordDht.build(8, replication=3)
    plan = FaultPlan(0)
    drawn = []
    decide = plan.decide
    plan.decide = lambda op, key: drawn.append((op, key)) or decide(op, key)
    dht = FaultyDht(chord, plan)
    dht.put("k", 1)
    holders = [name for name in chord.peers() if "k" in chord.node(name).store]
    assert len(holders) == 3
    assert dht.get("k") == 1
    assert dht.get_many_outcomes(["k", "absent"]) == [1, None]
    dht.rewrite_local("k", 2)
    assert dht.remove("k") == 2
    assert drawn == [
        ("put", "k"), ("get", "k"), ("get", "k"), ("get", "absent"),
        ("remove", "k"),
    ]


def one_step(step):
    """An operation of the single *step*, returning its outcome."""
    return (yield step)


@pytest.mark.parametrize("substrate", list(SUBSTRATES))
def test_a_traced_get_many_step_matches_the_bare_one(substrate):
    """A traced ``GET_MANY`` step and an untraced one answer and tick
    the same, performed or driven, and only the traced one opens a
    ``dht`` span, with its ``count`` attr.  An empty batch is free
    either way: no tick, no span."""
    keys = ["k0", "absent", "k1"]
    with create_dht(n_peers=4, **SUBSTRATES[substrate]) as dht:
        dht.put("k0", "v0")
        dht.put("k1", "v1")
        seen, spans = {}, {}
        for traced in (False, True):
            tracer = Tracer().attach(dht) if traced else None
            for how in ("perform", "drive"):
                before = dht.stats.snapshot()
                step = (GET_MANY, list(keys))
                if how == "perform":
                    outcome = dht.perform(step)
                else:
                    outcome = dht.drive(one_step(step))
                empty = dht.perform((GET_MANY, []))
                after = dht.stats.snapshot()
                seen[traced, how] = outcome, empty, {
                    name: after[name] - before[name] for name in after
                }
            if traced:
                spans = [
                    (span.kind, span.name, span.attrs, span.status)
                    for span in tracer.spans if span.kind == "dht"
                ]
                tracer.detach(dht)
    outcome, empty, ticks = seen[False, "perform"]
    assert all(value == seen[False, "perform"] for value in seen.values())
    assert (outcome, empty) == (["v0", None, "v1"], [])
    assert ticks["lookups"] == ticks["gets"] == ticks["batch_ops"] == 3
    assert ticks["batch_rounds"] == 1
    assert spans == [("dht", GET_MANY, {"count": 3}, "ok")] * 2
