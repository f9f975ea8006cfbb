"""Data records.

A record is an m-dimensional data key plus an opaque value, matching
the paper's model (Section 3.1): keys are vectors of reals normalised
into the unit interval per dimension.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.common.geometry import Point, check_point


@dataclass(frozen=True, slots=True)
class Record:
    """One data record: an m-dimensional key and its payload."""

    key: Point
    value: Any = None

    @classmethod
    def make(cls, key, value: Any = None, dims: int | None = None) -> "Record":
        """Validated constructor; checks arity/range when *dims* given."""
        key = tuple(key)
        if dims is not None:
            check_point(key, dims)
        return cls(key, value)

    @classmethod
    def coerce(cls, item, dims: int | None = None) -> "Record":
        """Normalise any accepted record spelling to a ``Record``.

        Bulk entry points (``insert_many``, ``bulk_load``) accept three
        spellings and this is their single normalisation rule:

        * a ``Record`` — revalidated (arity/range when *dims* given);
        * a ``(key, value)`` pair, recognised because its first element
          is itself a coordinate sequence;
        * a bare key — any sequence of coordinates, e.g. ``(0.2, 0.4)``.

        The pair form requires the key element to be a tuple or list —
        a bare 2-D key ``(0.3, 0.7)`` is two floats, not a pair, so the
        two cannot collide.
        """
        if isinstance(item, Record):
            return cls.make(item.key, item.value, dims=dims)
        if (
            isinstance(item, (tuple, list))
            and len(item) == 2
            and isinstance(item[0], (tuple, list))
        ):
            return cls.make(item[0], item[1], dims=dims)
        if isinstance(item, Sequence) and not isinstance(item, str):
            return cls.make(item, dims=dims)
        raise TypeError(
            f"cannot coerce {item!r} to a Record; pass a Record, a "
            "(key, value) pair, or a bare coordinate sequence"
        )

    @property
    def dims(self) -> int:
        """Dimensionality of the data key."""
        return len(self.key)


_new = object.__new__
_set_key = Record.key.__set__
_set_value = Record.value.__set__


def build_records(keys, values=None) -> list[Record]:
    """Records for *keys* (coordinate tuples, trusted: read back from a
    store's columns) and the aligned *values* (``None``: every payload
    is None).

    Each is ``object.__new__`` plus the two slots written through their
    descriptors, which skips the frozen dataclass's generated
    ``__init__`` (its ``object.__setattr__`` per field) — about half the
    cost per record.  The class is unchanged, so equality, hashing and
    pickling are those of any other ``Record``."""
    records = []
    append = records.append
    if values is None:
        for key in keys:
            record = _new(Record)
            _set_key(record, key)
            _set_value(record, None)
            append(record)
    else:
        for key, value in zip(keys, values):
            record = _new(Record)
            _set_key(record, key)
            _set_value(record, value)
            append(record)
    return records
