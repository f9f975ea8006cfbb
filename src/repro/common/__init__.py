"""Shared primitives used by every subsystem.

This package holds the label algebra of the space kd-tree, the
multi-dimensional geometry helpers, deterministic randomness, and the
configuration dataclasses.  Nothing in here knows about DHTs or indexes.
"""

from repro.common.errors import (
    ReproError,
    InvalidLabelError,
    InvalidPointError,
    InvalidRegionError,
    IndexCorruptionError,
    DhtKeyError,
)
from repro.common.labels import (
    virtual_root,
    root_label,
    is_valid_label,
    label_depth,
    parent,
    children,
    sibling,
    split_dimension,
    interleave,
    candidate_string,
    PackedLabel,
    packed_candidate,
    packed_interleave,
)
from repro.common.geometry import (
    Point,
    Region,
    unit_region,
    region_of_label,
    region_of_bits,
)

__all__ = [
    "ReproError",
    "InvalidLabelError",
    "InvalidPointError",
    "InvalidRegionError",
    "IndexCorruptionError",
    "DhtKeyError",
    "virtual_root",
    "root_label",
    "is_valid_label",
    "label_depth",
    "parent",
    "children",
    "sibling",
    "split_dimension",
    "interleave",
    "candidate_string",
    "PackedLabel",
    "packed_candidate",
    "packed_interleave",
    "Point",
    "Region",
    "unit_region",
    "region_of_label",
    "region_of_bits",
]
