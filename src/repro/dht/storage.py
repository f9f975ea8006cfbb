"""Per-peer key/value store used by all DHT substrates."""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING, Any

from repro.common.errors import CorruptValueError, DhtKeyError
from repro.dht.hashing import key_digest

if TYPE_CHECKING:
    from repro.dht.durable import AppendLogBackend


def _wire():
    """The service wire codec, whose value bytes a journal holds,
    imported at call time: it imports the bucket codec, and ``dht``
    must not import ``core`` at module level."""
    from repro.service import wire

    return wire


def _blob_of(value: Any) -> bytes:
    """The bytes a durable backend journals for *value*: the value as a
    ``PUT`` frame carries it (a bucket's codec bytes behind their kind
    byte)."""
    return _wire().encode_value(value)


def _value_of(blob: bytes) -> Any:
    """Rebuild a journaled value from its blob (a bucket lazily).

    A truncated or mangled blob — a torn durable-log write that somehow
    passed the backend's checksum — raises the typed
    :class:`~repro.common.errors.CorruptValueError` instead of
    whichever bare exception the decoder happened to hit.
    """
    try:
        return _wire().decode_value(blob)
    except Exception as exc:
        raise CorruptValueError(
            f"journaled value of {len(blob)} bytes is undecodable: {exc}"
        ) from exc


class PeerStore:
    """The objects one peer is responsible for.

    Only churn handoff (:meth:`pop_range`) asks for a key's 160-bit
    digest, so it hashes the keys it scans and nothing else does.

    With a *backend* (:class:`~repro.dht.durable.AppendLogBackend`)
    attached, every mutation is journaled as a byte blob — a put as the
    whole value, an :meth:`append` as the row it received — so the
    peer's state survives a crash and :meth:`recover` can rebuild it.
    """

    def __init__(self, backend: "AppendLogBackend | None" = None) -> None:
        self._values: dict[str, Any] = {}
        self._backend = backend

    @property
    def backend(self) -> "AppendLogBackend | None":
        """The attached durable backend, if any."""
        return self._backend

    @classmethod
    def recover(cls, backend: "AppendLogBackend") -> "PeerStore":
        """Rebuild a store from *backend*'s durable state.

        A torn-write blob that somehow passed the backend's checksum
        surfaces as :class:`CorruptValueError`, not silent garbage.
        The backend is attached only after replay: replay itself
        journals nothing.  A key's rows appended since its last full
        blob are re-applied through the append the live peer ran: each
        row is spliced into the bucket's bytes as it is, and only a row
        that carries a payload is unpickled.
        """
        store = cls()
        for key, (blob, *rows) in backend.replay().items():
            value = _value_of(blob)
            for row in rows:
                value = value.appended(row)
            store._values[key] = value
        store._backend = backend
        return store

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def get(self, key: str) -> Any | None:
        return self._values.get(key)

    def put(self, key: str, value: Any) -> None:
        self._values[key] = value
        if self._backend is not None:
            self._backend.record_put(key, _blob_of(value))
            self._maybe_compact()

    def append(self, key: str, row: bytes) -> bool:
        """Add the record of codec *row* (:func:`~repro.core.codec.
        encode_row`) to the bucket stored at *key* and journal the row
        as it came; False, and nothing written, when *key* is absent.
        The bucket makes the new value (``appended``), refusing a point
        outside its cell as its ``add`` does."""
        stored = self._values.get(key)
        if stored is None:
            return False
        self._values[key] = stored.appended(row)
        if self._backend is not None:
            self._backend.record_put(key, row, append=True)
            self._maybe_compact()
        return True

    def remove(self, key: str) -> Any:
        if key not in self._values:
            raise DhtKeyError(f"key {key!r} not stored on this peer")
        value = self._values.pop(key)
        if self._backend is not None:
            self._backend.record_remove(key)
        return value

    def keys(self) -> Iterator[str]:
        """Iterate stored keys without touching values (the counting
        path of churn accounting and ``Dht.key_count``)."""
        return iter(self._values.keys())

    def items(self) -> Iterator[tuple[str, Any]]:
        return iter(self._values.items())

    def pop_range(self, predicate) -> list[tuple[str, Any]]:
        """Remove and return every (key, value) whose digest satisfies
        *predicate*; used for key handoff during churn."""
        moved = [
            (key, value)
            for key, value in self._values.items()
            if predicate(key_digest(key))
        ]
        for key, _ in moved:
            del self._values[key]
            if self._backend is not None:
                self._backend.record_remove(key)
        return moved

    def _maybe_compact(self) -> None:
        backend = self._backend
        if backend is not None and backend.should_compact(len(self._values)):
            backend.compact(
                (key, _blob_of(value))
                for key, value in self._values.items()
            )

    def close_backend(self) -> None:
        """Detach and close the backend (crash: durable state survives)."""
        backend, self._backend = self._backend, None
        if backend is not None:
            backend.close()

    def wipe_backend(self) -> None:
        """Detach and delete the backend's durable state (graceful
        departure: handed-off keys must not resurrect on a restart)."""
        backend, self._backend = self._backend, None
        if backend is not None:
            backend.wipe()
