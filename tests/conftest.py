"""Shared fixtures and oracles for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro.common.labels import root_label
from repro.dht.api import GET_MANY, PUT_MANY, DhtDecorator, _capture
from repro.runtime import RuntimeConfig, create_dht


# ----------------------------------------------------------------------
# Tree-shape oracles
# ----------------------------------------------------------------------

def random_tree_leaves(
    rng: random.Random,
    dims: int,
    max_depth: int,
    split_probability: float = 0.6,
) -> list[str]:
    """Generate the leaf set of a random space kd-tree.

    Starts from the ordinary root and recursively splits each node with
    *split_probability*, never deeper than *max_depth*.  The returned
    labels are prefix-free and tile the space — exactly the leaf sets
    the index produces.
    """
    leaves: list[str] = []
    stack = [root_label(dims)]
    while stack:
        label = stack.pop()
        depth = len(label) - dims - 1
        if depth < max_depth and rng.random() < split_probability:
            stack.append(label + "0")
            stack.append(label + "1")
        else:
            leaves.append(label)
    return leaves


def internal_nodes_of(leaves: list[str], dims: int) -> set[str]:
    """All internal labels of the tree with the given leaf set,
    including the virtual root."""
    internals = {"0" * dims}
    for leaf in leaves:
        for end in range(dims + 1, len(leaf)):
            internals.add(leaf[:end])
    return internals


def brute_force_range(points, query):
    """Reference answer for a closed range query over raw keys."""
    return sorted(p for p in points if query.contains_point_closed(p))


class PerKeyDht(DhtDecorator):
    """The per-key reference batches are compared against: one metered
    ``get``/``put`` per element, so no batch round is ever issued."""

    def perform(self, step):
        if step[0] is GET_MANY:
            return [_capture(self.inner.get, key) for key in step[1]]
        if step[0] is PUT_MANY:
            for (key, value), load in zip(step[1], step[2]):
                self.inner.put(key, value, records_moved=load)
            return None
        return self.inner.perform(step)


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------

def labels_strategy(dims: int, max_depth: int = 12):
    """Random valid non-virtual-root labels for *dims* dimensions."""
    return st.text(alphabet="01", min_size=0, max_size=max_depth).map(
        lambda bits: root_label(dims) + bits
    )


def points_strategy(dims: int):
    """Random data keys in [0, 1)^dims."""
    coordinate = st.floats(
        min_value=0.0,
        max_value=1.0,
        exclude_max=True,
        allow_nan=False,
        allow_infinity=False,
    )
    return st.tuples(*[coordinate] * dims)


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG per test."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def make_dht():
    """Factory for substrates routed through :func:`create_dht`.

    Accepts either a :class:`RuntimeConfig` or the same keyword
    overrides ``create_dht`` takes, and closes every runtime it built
    (service runtimes own threads and sockets) when the test ends.
    """
    built = []

    def factory(config: RuntimeConfig | None = None, **overrides):
        dht = create_dht(config, **overrides)
        built.append(dht)
        return dht

    yield factory
    for dht in built:
        close = getattr(dht, "close", None)
        if close is not None:
            close()


@pytest.fixture
def store_builds(monkeypatch) -> list[str]:
    """The kind of every record store built through the registry while
    the test runs, on any thread (a service runtime's event loop
    included) — how tests observe that a decoded bucket stayed lazy."""
    from repro.core import store as store_module

    built: list[str] = []

    def counting(kind, factory):
        def build(dims, sort_dim, source=None):
            built.append(kind)
            return factory(dims, sort_dim, source)

        return build

    table = store_module.STORES.table
    for kind, factory in list(table.items()):
        monkeypatch.setitem(table, kind, counting(kind, factory))
    return built
