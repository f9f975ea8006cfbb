"""Adaptive read plane: hotspot detection, replication, shortcuts.

Selected per index with ``IndexConfig(adaptive=AdaptiveConfig(...))``;
``adaptive=None`` (the default) builds none of it and the index runs
bit-identically to a pre-adaptive build.  See
:mod:`repro.adaptive.plane` for the composition.
"""

from repro.adaptive.config import AdaptiveConfig
from repro.adaptive.detector import HotspotDetector
from repro.adaptive.plane import AdaptiveDht, AdaptiveStats
from repro.adaptive.replication import (
    REPLICA_SEP,
    ReplicaDirectory,
    is_replica_key,
    primary_of,
    replica_key,
    replica_keys,
)

__all__ = [
    "AdaptiveConfig",
    "AdaptiveDht",
    "AdaptiveStats",
    "HotspotDetector",
    "REPLICA_SEP",
    "ReplicaDirectory",
    "is_replica_key",
    "primary_of",
    "replica_key",
    "replica_keys",
]
