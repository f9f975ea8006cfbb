"""The m-LIGHT index (the paper's primary contribution).

Public API:

* :class:`~repro.core.index.MLightIndex` — the over-DHT index;
  ``insert`` / ``delete`` / ``lookup`` / ``range_query``.
* :class:`~repro.core.split.ThresholdSplit` and
  :class:`~repro.core.split.DataAwareSplit` — the two maintenance
  strategies of Section 4.
* :func:`~repro.core.naming.naming_function` — the m-dimensional naming
  function ``fmd`` of Section 3.4.
"""

from repro.core.records import Record
from repro.core.bucket import LeafBucket
from repro.core.cache import LeafCache
from repro.core.naming import naming_function, naming_function_recursive
from repro.core.split import (
    SplitPlan,
    SplitStrategy,
    ThresholdSplit,
    DataAwareSplit,
    build_strategy,
)
from repro.core.bulkload import bulk_load
from repro.core.knn import KnnEngine
from repro.core.results import (
    KnnResult,
    LookupResult,
    Neighbor,
    RangeQueryBuilder,
    RangeQueryResult,
)
from repro.core.index import MLightIndex

__all__ = [
    "Record",
    "LeafBucket",
    "LeafCache",
    "naming_function",
    "naming_function_recursive",
    "SplitPlan",
    "SplitStrategy",
    "ThresholdSplit",
    "DataAwareSplit",
    "bulk_load",
    "build_strategy",
    "KnnEngine",
    "KnnResult",
    "Neighbor",
    "LookupResult",
    "RangeQueryBuilder",
    "RangeQueryResult",
    "MLightIndex",
]
