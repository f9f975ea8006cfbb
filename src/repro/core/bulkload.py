"""Bulk loading: build the index tree offline, then place the buckets.

Theorem 6 speaks about the *static* optimum: "for a given data set and
an expected number of buckets, the data-aware index splitting strategy
minimizes the variance of expected load".  Incremental insertion only
approximates that optimum, because early splits are made with partial
knowledge.  Bulk loading realises the static case: the whole dataset is
partitioned locally in one pass (threshold recursion or Algorithm 1 at
the root), and each resulting leaf bucket is placed with a single
DHT-put.

Costs: exactly one put per bucket and one transfer per record — the
floor any over-DHT construction can reach — versus the per-insert
lookup and split bills of incremental maintenance (compare ablation
A4).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.common.config import IndexConfig
from repro.common.errors import InvalidPointError, ReproError
from repro.common.labels import root_label
from repro.core import npstore
from repro.core.bucket import LeafBucket
from repro.core.keys import bucket_key
from repro.core.naming import naming_function
from repro.core.records import Record, build_records
from repro.core.split import SplitStrategy, build_strategy
from repro.core.store import Rows, check_columns
from repro.dht.api import Dht


def coerce_bulk_items(items, dims: int):
    """Normalise a bulk-load input to Rows or a list of records, every
    coordinate checked (NaN included) before anything is placed.

    A numpy ``(n, dims)`` matrix becomes a :class:`Rows` block backed by
    its columns — validated vectorially, never materialised as
    :class:`Record` objects.  A ``Rows`` block passes through, its
    columns checked.  A list of bare ``dims``-tuples is checked column
    by column and becomes Records through
    :func:`~repro.core.records.build_records`, the tuples kept as the
    keys.  Anything else — or a list whose check fails — goes item by
    item through :meth:`Record.coerce`, the same rule
    ``MLightIndex.insert_many`` uses, so a bad point raises its own
    :class:`~repro.common.errors.InvalidPointError`.
    """
    if isinstance(items, Rows):
        if items.dims != dims:
            raise ReproError(
                f"Rows carry {items.dims} dims, config says {dims}"
            )
        check_columns(items.columns)
        return items
    if npstore.HAVE_NUMPY and hasattr(items, "__array_interface__"):
        return npstore.rows_from_matrix(items, dims)
    if not isinstance(items, list):
        items = list(items)
    if all(type(item) is tuple and len(item) == dims for item in items):
        try:
            # Each column read lazily off the tuples: no transposed copy.
            check_columns(
                (item[dim] for item in items) for dim in range(dims)
            )
        except (InvalidPointError, TypeError):
            pass  # an irregular list: let the per-item rule say why
        else:
            return build_records(items)
    return [Record.coerce(item, dims=dims) for item in items]


def plan_bulk_tree(
    records,
    config: IndexConfig,
    strategy: SplitStrategy,
):
    """Partition *records* into the strategy's static leaf set.

    Applies the strategy's split planner once at the root over the full
    dataset; for :class:`~repro.core.split.DataAwareSplit` this is
    exactly Algorithm 1 in its Theorem-6 setting.  *records* is a list
    of :class:`Record` or a columnar :class:`Rows` block — the
    partition recursion handles both, and plan leaves keep the input's
    representation.
    """
    root = root_label(config.dims)
    plan = strategy.plan_split(
        root, records, config.dims, config.max_depth
    )
    if plan is None:
        return [(root, records)]
    return list(plan.leaves)


def bulk_load(
    dht: Dht,
    items: Iterable,
    config: IndexConfig | None = None,
    strategy: SplitStrategy | None = None,
) -> list[tuple[str, int]]:
    """Build and place an m-LIGHT tree for *items* on *dht*.

    *items* are ``Record`` objects, ``(key, value)`` pairs, or bare
    keys — normalised by :meth:`Record.coerce`, the same rule
    ``MLightIndex.insert_many`` uses — or an ``(n, dims)`` numpy matrix
    / :class:`Rows` block, which flows column-wise through partitioning
    and into the buckets' stores without ever materialising ``Record``
    objects (the vectorized fast path).  Returns ``(label, load)`` for
    every placed bucket.  The DHT must not already carry an m-LIGHT
    tree (bulk loading replaces, it does not merge).

    Attach a :class:`~repro.core.index.MLightIndex` afterwards for
    queries and further maintenance — it detects the existing tree and
    skips bootstrap::

        placed = bulk_load(dht, points, config)
        index = MLightIndex(dht, config)
    """
    config = config if config is not None else IndexConfig()
    if strategy is None:
        strategy = build_strategy(config)
    root_key = bucket_key("0" * config.dims)
    if dht.peek(root_key) is not None:
        raise ReproError(
            "the DHT already carries an m-LIGHT tree; bulk_load builds "
            "from scratch"
        )

    records = coerce_bulk_items(items, config.dims)

    leaves = plan_bulk_tree(records, config, strategy)
    placed = []
    pairs = []
    moved = []
    for label, leaf_records in leaves:
        bucket = LeafBucket(
            label, config.dims, leaf_records, store=config.store
        )
        pairs.append(
            (bucket_key(naming_function(label, config.dims)), bucket)
        )
        moved.append(bucket.load)
        placed.append((label, bucket.load))
    # Placements are independent (one routed put per leaf), so they go
    # out as one parallel round; the metered cost is one put and one
    # lookup per bucket, one transfer per record.
    dht.put_many(pairs, records_moved=moved)
    return placed
