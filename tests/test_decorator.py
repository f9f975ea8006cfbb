"""The one decorator base: every wrapper forwards the whole facade.

``RetryingDht``/``FaultyDht``/``AdaptiveDht`` used to hand-forward the
oracle surface and miss membership and lifecycle, so churn and
``with …:`` were unreachable through any wrapper and a wrapped service
runtime leaked its event loop.
"""

import functools
import itertools

import pytest

from repro.adaptive import AdaptiveConfig
from repro.adaptive.plane import AdaptiveDht
from repro.common.config import IndexConfig
from repro.common.errors import ReproError
from repro.common.rng import make_rng
from repro.core.bulkload import bulk_load
from repro.core.index import MLightIndex
from repro.dht.api import DhtDecorator
from repro.dht.chord import ChordDht
from repro.dht.churn import run_churn
from repro.dht.faults import FaultPlan, FaultyDht
from repro.dht.localhash import LocalDht
from repro.dht.retry import RetryingDht
from repro.net.events import EventScheduler
from repro.runtime import create_dht

WRAPPERS = [
    ("retry", lambda inner: RetryingDht(inner)),
    ("faults", lambda inner: FaultyDht(inner, FaultPlan())),
    ("adaptive", lambda inner: AdaptiveDht(inner, AdaptiveConfig())),
]
WRAP = pytest.mark.parametrize(
    "wrap", [w for _, w in WRAPPERS], ids=[n for n, _ in WRAPPERS]
)


@WRAP
class TestMembershipAndLifecycleReachTheSubstrate:
    def test_join_and_leave(self, wrap):
        chord = ChordDht.build(4)
        dht = wrap(chord)
        for index in range(20):
            dht.put(f"k{index}", index)
        dht.join("newcomer")
        chord.stabilize_all(2)
        assert "newcomer" in dht.peers()
        dht.leave("newcomer")
        chord.stabilize_all(2)
        assert "newcomer" not in chord.peers()
        assert all(dht.get(f"k{index}") == index for index in range(20))

    def test_churn_runs_through_the_wrapper(self, wrap):
        dht = wrap(ChordDht.build(8))
        for index in range(40):
            dht.put(f"k{index}", index)
        report = run_churn(dht, 6, seed=2)
        assert report.events
        assert report.keys_after == report.keys_before == 40

    def test_context_manager_closes_the_service_runtime(self, wrap):
        service = create_dht(kind="asyncio", n_peers=2)
        with wrap(service) as dht:
            dht.put("k", 1)
            assert dht.get("k") == 1
        with pytest.raises(ReproError, match="closed"):
            service.start()

    def test_close_is_harmless_on_in_process_substrates(self, wrap):
        dht = wrap(LocalDht(4))
        dht.close()
        with dht:
            dht.put("k", 1)
        assert dht.get("k") == 1


class TestUnwrap:
    def test_yields_the_stack_outermost_first(self):
        chord = ChordDht.build(4)
        faulty = FaultyDht(chord, FaultPlan())
        retrying = RetryingDht(faulty)
        adaptive = AdaptiveDht(retrying)
        assert list(adaptive.unwrap()) == [adaptive, retrying, faulty, chord]
        assert list(chord.unwrap()) == [chord]

    def test_network_is_the_substrates(self):
        chord = ChordDht.build(4)
        assert RetryingDht(FaultyDht(chord, FaultPlan())).network is (
            chord.network
        )
        assert RetryingDht(LocalDht(4)).network is None


class TestClockResolution:
    """One rule for every wrapper, whatever the stacking order."""

    @WRAP
    def test_network_clock_through_any_wrapper(self, wrap):
        chord = ChordDht.build(4)
        assert wrap(chord).clock is chord.network.clock
        assert RetryingDht(wrap(chord)).clock is chord.network.clock
        assert FaultyDht(wrap(chord), FaultPlan()).clock is (
            chord.network.clock
        )

    def test_private_clock_is_shared_down_the_stack(self):
        inner = RetryingDht(LocalDht(4))
        assert FaultyDht(inner, FaultPlan()).clock is inner.clock

    def test_explicit_clock_wins(self):
        clock = EventScheduler()
        assert RetryingDht(ChordDht.build(4), clock=clock).clock is clock


def test_bare_decorator_is_transparent():
    """A decorator that overrides nothing changes nothing — including
    under a wrapper that intercepts public operations."""
    chord = ChordDht.build(4)
    dht = DhtDecorator(RetryingDht(chord))
    dht.put("k", "v")
    before = chord.stats.snapshot()
    assert dht.get("k") == "v"
    assert dht.get_many_outcomes(["k", "missing"]) == ["v", None]
    assert dht.lookup("k") == chord.peer_of("k")
    delta = {
        key: value - before[key]
        for key, value in chord.stats.snapshot().items()
    }
    assert delta["lookups"] == 4 and delta["gets"] == 3
    assert delta["batch_rounds"] == 1


# ----------------------------------------------------------------------
# Every wrapper composition replays a trace exactly like the bare stack
# ----------------------------------------------------------------------

#: Wrappers that change nothing on a healthy substrate: a retry budget
#: nothing exhausts, a zero-rate fault plan, an observe-only plane.
NEUTRAL = {
    "retry": RetryingDht,
    "faults": lambda inner: FaultyDht(inner, FaultPlan(0)),
    "adaptive": lambda inner: AdaptiveDht(
        inner, AdaptiveConfig(max_replicas=0, shortcut_capacity=0)
    ),
}
STACKS = [
    order
    for size in (1, 2, 3)
    for order in itertools.permutations(NEUTRAL, size)
]
SUBSTRATES = {
    "local": lambda: LocalDht(8),
    "chord": lambda: ChordDht.build(8),
    "asyncio": lambda: create_dht(kind="asyncio", n_peers=8),
}
TRACE_CONFIG = IndexConfig(
    dims=2, max_depth=12, split_threshold=6, merge_threshold=3
)


def replay(dht):
    """One seeded trace: bulk load, inserts that split, deletes that
    merge, lookups, range queries and a k-NN.  Its answers and the
    ``DhtStats`` delta it cost."""
    rng = make_rng(11)
    points = [(rng.random(), rng.random()) for _ in range(70)]
    before = dht.stats.snapshot()
    bulk_load(dht, points[:30], TRACE_CONFIG)
    index = MLightIndex(dht, TRACE_CONFIG)
    answers = [index.tree_size()]
    for point in points[30:]:
        index.insert(point)
    answers.append(index.tree_size())
    answers += [index.delete(point) for point in points[:45]]
    answers.append(index.tree_size())
    answers += [index.lookup(point).bucket.label for point in points[40:60]]
    for low, high in ((0.1, 0.6), (0.3, 0.9), (0.0, 1.0)):
        result = index.range_query(((low, low), (high, high)))
        answers.append((sorted(r.key for r in result.records), result.rounds))
    knn = index.knn((0.5, 0.5), 4)
    answers.append([n.record.key for n in knn.neighbors])
    after = dht.stats.snapshot()
    return answers, {key: after[key] - before[key] for key in after}


@functools.cache
def bare_replay(substrate):
    with SUBSTRATES[substrate]() as dht:
        return replay(dht)


def test_the_trace_splits_and_merges():
    answers, _ = bare_replay("local")
    bulk, grown, shrunk = answers[0], answers[1], answers[47]
    assert grown > bulk and shrunk < grown


@pytest.mark.parametrize("substrate, order", [
    (substrate, order)
    for substrate in SUBSTRATES
    for order in STACKS
    if substrate != "asyncio" or len(order) == 1
], ids=lambda value: "+".join(value) if isinstance(value, tuple) else value)
def test_composition_answers_and_costs_like_the_bare_substrate(
    substrate, order
):
    dht = SUBSTRATES[substrate]()
    for name in order:
        dht = NEUTRAL[name](dht)
    with dht:
        assert replay(dht) == bare_replay(substrate)
