"""Measurement utilities: load-balance statistics.

Counters are metered per phase by
:meth:`repro.obs.registry.MetricsRegistry.snapshot` / ``delta``.
"""

from repro.metrics.loadbalance import (
    load_variance,
    normalized_load_variance,
    empty_bucket_fraction,
    gini_coefficient,
    peer_record_loads,
)

__all__ = [
    "load_variance",
    "normalized_load_variance",
    "empty_bucket_fraction",
    "gini_coefficient",
    "peer_record_loads",
]
