"""Index splitting and merging strategies (Section 4).

Two interchangeable strategies decide when a leaf bucket splits and
what it splits into:

* :class:`ThresholdSplit` — the conventional scheme: split when the
  load exceeds ``theta_split``, merge a sibling pair holding fewer than
  ``theta_merge`` records in total.
* :class:`DataAwareSplit` — the paper's contribution (Section 4.2,
  Algorithm 1): given an expected load ``epsilon``, locally compute the
  *optimal split subtree* minimising ``sum((l_leaf - epsilon)**2)`` and
  split only when that strictly lowers the objective.  Theorem 6: this
  minimises the variance of expected load over peers.

A strategy returns a :class:`SplitPlan` — the set of replacement leaves
with their records — and the index layer applies it using the naming
function's incremental-split property, so strategies stay pure local
computations with no DHT knowledge.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.common.config import IndexConfig
from repro.common.errors import ReproError
from repro.common.geometry import Region, region_of_label
from repro.common.labels import label_depth, split_dimension
from repro.core.records import Record
from repro.core.store import Rows


def _freeze(records):
    """Plan-leaf payload: Rows pass through, record lists freeze."""
    if isinstance(records, Rows):
        return records
    return tuple(records)


@dataclass(frozen=True, slots=True)
class SplitPlan:
    """Replacement of leaf *origin* by the leaves of a local subtree.

    ``leaves`` maps each new leaf label to its records — a tuple of
    :class:`Record` or a columnar :class:`~repro.core.store.Rows` block
    (the bulk-load path partitions columns without materializing record
    objects); the labels are exactly the leaf set of a subtree rooted at
    *origin* (possibly deeper than one level under the data-aware
    strategy, and including empty leaves — every leaf needs a bucket for
    the bijection to hold).
    """

    origin: str
    leaves: tuple[tuple[str, "tuple[Record, ...] | Rows"], ...]

    def __post_init__(self) -> None:
        if len(self.leaves) < 2:
            raise ReproError("a split plan must produce at least 2 leaves")
        for label, _ in self.leaves:
            if not label.startswith(self.origin) or label == self.origin:
                raise ReproError(
                    f"plan leaf {label!r} is not below origin {self.origin!r}"
                )

    @property
    def total_records(self) -> int:
        """Records across all plan leaves (== the origin's load)."""
        return sum(len(records) for _, records in self.leaves)


def partition_records(
    label: str, dims: int, records: list[Record], region: Region | None = None
) -> tuple[list[Record], list[Record]]:
    """Split *records* of cell *label* between its two children.

    The space partitioning is data independent: the cell is halved at
    its midpoint along ``split_dimension(label)`` regardless of where
    the records lie (Section 3.2).

    *region* is the cell of *label* when the caller already holds it —
    Algorithm 1's recursion threads each child's region down via
    :meth:`Region.split`, so no level re-derives its cell from the
    label string.  Omitted, it is fetched from the memoized
    :func:`region_of_label`.
    """
    dim = split_dimension(label, dims)
    if region is None:
        region = region_of_label(label, dims)
    midpoint = (region.lows[dim] + region.highs[dim]) / 2.0
    if isinstance(records, Rows):
        # Column-level partition; float compares on the same IEEE
        # doubles, so the assignment is bit-identical to the scan below.
        return records.partition(dim, midpoint)
    lower = [record for record in records if record.key[dim] < midpoint]
    upper = [record for record in records if record.key[dim] >= midpoint]
    return lower, upper


class SplitStrategy(ABC):
    """Decides leaf splits and sibling merges from loads alone."""

    @abstractmethod
    def plan_split(
        self, label: str, records: list[Record], dims: int, max_depth: int
    ) -> SplitPlan | None:
        """Return the split to apply, or None to leave the leaf alone."""

    @abstractmethod
    def should_merge(self, load_a: int, load_b: int) -> bool:
        """True when sibling leaves with these loads should merge."""


class ThresholdSplit(SplitStrategy):
    """Conventional threshold-based maintenance (Section 4.1)."""

    def __init__(self, split_threshold: int, merge_threshold: int | None = None):
        if split_threshold < 1:
            raise ReproError("split_threshold must be >= 1")
        if merge_threshold is None:
            merge_threshold = split_threshold // 2
        if not 0 <= merge_threshold < split_threshold:
            raise ReproError(
                "need 0 <= theta_merge < theta_split for split/merge "
                f"consistency (got {merge_threshold} vs {split_threshold})"
            )
        self.split_threshold = split_threshold
        self.merge_threshold = merge_threshold

    def plan_split(
        self, label: str, records: list[Record], dims: int, max_depth: int
    ) -> SplitPlan | None:
        if len(records) <= self.split_threshold:
            return None
        leaves: list[tuple[str, tuple[Record, ...]]] = []
        self._split_into(
            label, records, dims, max_depth, leaves,
            region_of_label(label, dims),
        )
        if len(leaves) < 2:
            return None  # depth cap reached immediately; cannot split
        return SplitPlan(label, tuple(leaves))

    def _split_into(self, label, records, dims, max_depth, out, region) -> None:
        at_cap = label_depth(label, dims) >= max_depth
        if len(records) <= self.split_threshold or at_cap:
            out.append((label, _freeze(records)))
            return
        lower, upper = partition_records(label, dims, records, region)
        # Incremental midpoints: one Region.split per level instead of
        # a from-scratch cell derivation per recursive call.
        low_region, high_region = region.split(split_dimension(label, dims))
        self._split_into(label + "0", lower, dims, max_depth, out, low_region)
        self._split_into(label + "1", upper, dims, max_depth, out, high_region)

    def should_merge(self, load_a: int, load_b: int) -> bool:
        return load_a + load_b < self.merge_threshold


class DataAwareSplit(SplitStrategy):
    """The paper's data-aware splitting strategy (Algorithm 1).

    ``expected_load`` is epsilon: the *expected* (not bounding) number
    of records per bucket.  On every load change the bucket locally
    computes the subtree rooted at itself minimising the total squared
    deviation from epsilon, and splits into that subtree's leaves when
    the minimum strictly beats keeping the bucket whole.
    """

    def __init__(self, expected_load: int):
        if expected_load < 1:
            raise ReproError("expected_load (epsilon) must be >= 1")
        self.expected_load = expected_load

    def plan_split(
        self, label: str, records: list[Record], dims: int, max_depth: int
    ) -> SplitPlan | None:
        local_cost = self._deviation(len(records))
        best_cost, leaves = self._local_split(label, records, dims, max_depth)
        if best_cost >= local_cost or len(leaves) < 2:
            return None
        return SplitPlan(label, tuple(leaves))

    def optimal_cost(
        self, label: str, records: list[Record], dims: int, max_depth: int
    ) -> float:
        """The minimised total difference (exposed for tests/ablations)."""
        return self._local_split(label, records, dims, max_depth)[0]

    def _local_split(self, label, records, dims, max_depth, region=None):
        """Algorithm 1: returns (min cost, leaves of the optimal subtree).

        Divide and conquer exactly as the paper's pseudo-code, with a
        depth cap so degenerate inputs (many coincident keys) terminate.
        The cell region is threaded through the recursion (one
        :meth:`Region.split` per level) so Algorithm 1 stops
        re-deriving cells from label strings at every recursion level.
        """
        local_cost = self._deviation(len(records))
        if len(records) <= self.expected_load:
            return local_cost, [(label, _freeze(records))]
        if label_depth(label, dims) >= max_depth:
            return local_cost, [(label, _freeze(records))]
        if region is None:
            region = region_of_label(label, dims)
        lower, upper = partition_records(label, dims, records, region)
        low_region, high_region = region.split(split_dimension(label, dims))
        left_cost, left_leaves = self._local_split(
            label + "0", lower, dims, max_depth, low_region
        )
        right_cost, right_leaves = self._local_split(
            label + "1", upper, dims, max_depth, high_region
        )
        non_local = left_cost + right_cost
        if local_cost <= non_local:
            return local_cost, [(label, _freeze(records))]
        return non_local, left_leaves + right_leaves

    def should_merge(self, load_a: int, load_b: int) -> bool:
        """Merge when it strictly lowers the squared-deviation objective.

        Symmetric counterpart of the split criterion; strictness on both
        sides rules out split/merge oscillation.
        """
        merged = self._deviation(load_a + load_b)
        separate = self._deviation(load_a) + self._deviation(load_b)
        return merged < separate

    def _deviation(self, load: int) -> float:
        delta = load - self.expected_load
        return float(delta * delta)


def build_strategy(config: IndexConfig) -> SplitStrategy:
    """The :class:`SplitStrategy` selected by ``config.strategy``."""
    if config.strategy == "data-aware":
        return DataAwareSplit(config.expected_load)
    return ThresholdSplit(config.split_threshold, config.merge_threshold)
