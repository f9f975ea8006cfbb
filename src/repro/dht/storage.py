"""Per-peer key/value store used by all DHT substrates."""

from __future__ import annotations

import pickle
from collections.abc import Iterator
from typing import TYPE_CHECKING, Any

from repro.common.errors import CorruptValueError, DhtKeyError
from repro.dht.hashing import key_digest

if TYPE_CHECKING:
    from repro.dht.durable import DurableBackend


def _blob_of(value: Any) -> bytes:
    """The byte representation a durable backend journals for *value*."""
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def _value_of(blob: bytes) -> Any:
    """Rebuild a journaled object from its blob.

    A truncated or mangled blob — a torn durable-log write that somehow
    passed the backend's checksum — raises the typed
    :class:`~repro.common.errors.CorruptValueError` instead of
    whichever bare exception :mod:`pickle` happened to hit.
    """
    try:
        return pickle.loads(blob)
    except Exception as exc:
        raise CorruptValueError(
            f"journaled value of {len(blob)} bytes is undecodable: {exc}"
        ) from exc


class PeerStore:
    """The objects one peer is responsible for.

    Keys are stored together with their 160-bit digests, so handoff on
    churn (transferring the sub-range of keys a new peer takes over)
    does not re-hash the whole store.

    With a *backend* (:class:`~repro.dht.durable.DurableBackend`)
    attached, every mutation is journaled as a byte blob, so the
    peer's state survives a crash and :meth:`recover` can rebuild it.
    """

    def __init__(self, backend: "DurableBackend | None" = None) -> None:
        self._values: dict[str, Any] = {}
        self._digests: dict[str, int] = {}
        self._backend = backend

    @property
    def backend(self) -> "DurableBackend | None":
        """The attached durable backend, if any."""
        return self._backend

    @classmethod
    def recover(cls, backend: "DurableBackend") -> "PeerStore":
        """Rebuild a store from *backend*'s durable state.

        A torn-write blob that somehow passed the backend's checksum
        surfaces as :class:`CorruptValueError`, not silent garbage.
        The backend is attached only after replay: replay itself
        journals nothing.
        """
        store = cls()
        for key, blob in backend.replay().items():
            store._digests[key] = key_digest(key)
            store._values[key] = _value_of(blob)
        store._backend = backend
        return store

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def get(self, key: str) -> Any | None:
        return self._values.get(key)

    def put(self, key: str, value: Any) -> None:
        if key not in self._digests:
            self._digests[key] = key_digest(key)
        self._values[key] = value
        if self._backend is not None:
            self._backend.record_put(key, _blob_of(value))
            self._maybe_compact()

    def remove(self, key: str) -> Any:
        if key not in self._values:
            raise DhtKeyError(f"key {key!r} not stored on this peer")
        self._digests.pop(key, None)
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

    def digest_of(self, key: str) -> int:
        try:
            return self._digests[key]
        except KeyError:
            raise DhtKeyError(
                f"key {key!r} not stored on this peer"
            ) from None

    def pop_range(self, predicate) -> list[tuple[str, Any]]:
        """Remove and return every (key, value) whose digest satisfies
        *predicate*; used for key handoff during churn."""
        moved = [
            (key, value)
            for key, value in self._values.items()
            if predicate(self._digests[key])
        ]
        for key, _ in moved:
            del self._values[key]
            del self._digests[key]
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
