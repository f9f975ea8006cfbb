"""repro — a reproduction of m-LIGHT (ICDCS 2009).

m-LIGHT indexes multi-dimensional data over any DHT exposing the
generic ``put/get/lookup`` interface.  This package provides the index
(:class:`~repro.core.index.MLightIndex`), the PHT and DST baselines it
is evaluated against, three interchangeable DHT substrates, dataset and
workload generators, and the experiment harness that regenerates every
figure of the paper's evaluation.

Quickstart::

    from repro import MLightIndex, IndexConfig, Region, create_dht

    index = MLightIndex(create_dht(n_peers=128), IndexConfig(dims=2))
    index.insert((0.31, 0.62), value="point-a")
    index.insert((0.35, 0.60), value="point-b")
    result = index.range_query(Region((0.3, 0.6), (0.4, 0.7)))
    print([record.value for record in result.records])

Substrates are constructed through the runtime-neutral factory
(:func:`repro.runtime.create_dht` with a
:class:`~repro.runtime.RuntimeConfig`): one surface selects the
simulated substrates *and* the asyncio/TCP service runtime; the
per-overlay classes live in their defining modules
(``repro.dht.chord.ChordDht`` & co.).
"""

from repro.adaptive import AdaptiveConfig
from repro.common.config import IndexConfig
from repro.common.errors import ReproError
from repro.common.geometry import Point, Region, as_region, unit_region
from repro.core.bucket import LeafBucket
from repro.core.bulkload import bulk_load
from repro.core.cache import LeafCache
from repro.core.index import MLightIndex
from repro.core.records import Record
from repro.core.results import (
    KnnResult,
    LookupResult,
    RangeQueryResult,
)
from repro.core.split import DataAwareSplit, ThresholdSplit
from repro.obs import (
    JsonlTraceSink,
    MetricsRegistry,
    Span,
    TraceSink,
    Tracer,
    profile_report,
)
from repro.runtime import RuntimeConfig, create_dht
from repro.service.node import ServiceDht

__version__ = "1.1.0"

__all__ = [
    "AdaptiveConfig",
    "IndexConfig",
    "ReproError",
    "Point",
    "Region",
    "as_region",
    "unit_region",
    "LeafBucket",
    "LeafCache",
    "bulk_load",
    "MLightIndex",
    "Record",
    "KnnResult",
    "LookupResult",
    "RangeQueryResult",
    "DataAwareSplit",
    "ThresholdSplit",
    "RuntimeConfig",
    "create_dht",
    "ServiceDht",
    "JsonlTraceSink",
    "MetricsRegistry",
    "Span",
    "TraceSink",
    "Tracer",
    "profile_report",
    "__version__",
]
