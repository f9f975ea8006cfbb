"""Per-peer durable storage backends and their registry.

Every DHT substrate keeps each peer's objects in a
:class:`~repro.dht.storage.PeerStore`; this module supplies the
*durability plane* behind that seam: a backend journals every mutation
to disk so a crashed peer can be restarted
(:meth:`repro.dht.api.Dht.restart`) with its pre-crash store replayed
instead of empty.  One backend ships, ``"log"``
(:class:`AppendLogBackend`): an append-only log of ``put``/``remove``
records, each framed with the service wire codec
(:mod:`repro.service.wire`) and CRC-checksummed, compacted in place
once dead records dominate.  Torn tails (a crash mid-append) are
detected by the framing/checksum and replay stops cleanly at the last
intact record.

Backends register through :func:`register_store_backend` (the
``BACKENDS`` :class:`~repro.common.registry.Registry`); selection
happens via ``RuntimeConfig(durability=...)`` /
``IndexConfig(durability=...)``.

The crash model is process-level: a simulated ``fail`` drops all
in-memory state but the backend's files survive, exactly what a real
peer loses in a power cut minus OS-level write reordering (callers
that need fsync-grade durability pass ``sync=True``).
"""

from __future__ import annotations

import os
import tempfile
import zlib
from abc import ABC, abstractmethod
from collections.abc import Iterable
from pathlib import Path

from repro.common.errors import ReproError, UnknownDurabilityError
from repro.common.registry import Registry
from repro.dht.storage import PeerStore

__all__ = [
    "DurableBackend",
    "AppendLogBackend",
    "register_store_backend",
    "store_backend_kinds",
    "create_store_backend",
    "open_peer_store",
    "peer_data_dir",
    "resolve_data_dir",
]

#: Log opcodes — reuse the wire protocol's PUT/REMOVE values so a log
#: file is a plain stream of protocol frames any FrameDecoder can cut.
_OP_PUT = 3
_OP_REMOVE = 4

#: Compaction triggers once the log holds more than
#: ``max(_COMPACT_MIN, _COMPACT_FACTOR * live_keys)`` records.
_COMPACT_MIN = 64
_COMPACT_FACTOR = 4


def _wire():
    """The service wire codec, imported lazily.

    ``repro.service.wire`` imports ``repro.dht.api`` for its byte
    model; resolving it at call time (never at module import) keeps
    the ``dht`` <-> ``service`` package pair free of import-order
    traps.
    """
    from repro.service import wire

    return wire


def _checksum(key: str, blob: bytes | None) -> int:
    crc = zlib.crc32(key.encode())
    if blob is not None:
        crc = zlib.crc32(blob, crc)
    return crc


class DurableBackend(ABC):
    """What a :class:`~repro.dht.storage.PeerStore` journals into.

    One backend instance belongs to exactly one peer (one file path);
    parallel peers — and parallel pytest workers — must never share
    one, which :func:`resolve_data_dir` guarantees by minting a fresh
    temporary directory per substrate when the caller does not pin one.
    """

    #: Registry name, set per subclass.
    kind: str = ""

    @abstractmethod
    def record_put(self, key: str, blob: bytes) -> None:
        """Journal one stored (or overwritten) key."""

    @abstractmethod
    def record_remove(self, key: str) -> None:
        """Journal one deleted key."""

    @abstractmethod
    def replay(self) -> dict[str, bytes]:
        """Reconstruct the surviving ``key -> blob`` state from disk.

        Replay is forgiving at the tail — a torn final record (crash
        mid-write) is discarded, everything intact before it is kept —
        and must leave the backend ready to journal again.
        """

    @abstractmethod
    def compact(self, items: Iterable[tuple[str, bytes]]) -> None:
        """Rewrite durable state to exactly *items* (drop dead records)."""

    def should_compact(self, live_keys: int) -> bool:
        """Whether journal debt warrants a :meth:`compact` pass now."""
        return False

    @abstractmethod
    def close(self) -> None:
        """Release file handles; durable state stays on disk."""

    @abstractmethod
    def wipe(self) -> None:
        """Close and delete all durable state (graceful departure)."""


class AppendLogBackend(DurableBackend):
    """Append-only log of wire-framed, CRC-checksummed mutations.

    Record = one protocol frame: opcode PUT/REMOVE, a running sequence
    number as the request id, and a pickled ``(key, blob, crc)`` body
    where ``crc`` covers key and blob.  A reader needs nothing beyond
    :class:`repro.service.wire.FrameDecoder`.
    """

    kind = "log"

    def __init__(self, path: str | os.PathLike, *, sync: bool = False) -> None:
        self.path = Path(str(path) + ".log")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._sync = sync
        self._sequence = 0
        self._records = 0  # records currently in the file
        self._file = open(self.path, "ab")

    def _append(self, op: int, key: str, blob: bytes | None) -> None:
        if self._file.closed:
            raise ReproError(
                f"durable log {self.path} is closed; the peer is down"
            )
        wire = _wire()
        self._sequence = (self._sequence + 1) & 0xFFFFFFFF
        frame = wire.encode_frame(
            wire.Op(op), self._sequence, (key, blob, _checksum(key, blob))
        )
        self._file.write(frame)
        self._file.flush()
        if self._sync:
            os.fsync(self._file.fileno())
        self._records += 1

    def record_put(self, key: str, blob: bytes) -> None:
        self._append(_OP_PUT, key, blob)

    def record_remove(self, key: str) -> None:
        self._append(_OP_REMOVE, key, None)

    def replay(self) -> dict[str, bytes]:
        # Frames are cut one at a time (header first, then exactly the
        # declared payload), never in bulk: a mangled or half-written
        # record must not take the intact frames before it down with
        # it, and a partial frame at EOF is a torn tail, not silence.
        wire = _wire()
        data = self.path.read_bytes()
        state: dict[str, bytes] = {}
        records = 0
        offset = 0
        torn = False
        header = wire.HEADER
        while len(data) - offset >= header.size:
            magic, version, _, _, length = header.unpack_from(data, offset)
            end = offset + header.size + length
            if (
                magic != wire.MAGIC
                or version != wire.VERSION
                or length > wire.MAX_PAYLOAD
                or end > len(data)
            ):
                torn = True
                break
            try:
                (frame,) = wire.FrameDecoder().feed(data[offset:end])
                key, blob, crc = frame.body
            except (wire.WireError, ValueError, TypeError):
                torn = True
                break
            if crc != _checksum(key, blob):
                torn = True
                break
            records += 1
            if frame.op == _OP_PUT:
                state[key] = blob
            else:
                state.pop(key, None)
            offset = end
        self._records = records
        self._sequence = records & 0xFFFFFFFF
        if torn or offset < len(data):
            # Rewrite the log to the intact prefix's surviving state so
            # the discarded tail cannot resurrect on a later replay —
            # and so new appends land after the prefix, not after junk.
            self.compact(state.items())
        return state

    def should_compact(self, live_keys: int) -> bool:
        return self._records > max(_COMPACT_MIN, _COMPACT_FACTOR * live_keys)

    def compact(self, items: Iterable[tuple[str, bytes]]) -> None:
        wire = _wire()
        tmp_path = self.path.with_suffix(".log.tmp")
        records = 0
        with open(tmp_path, "wb") as tmp:
            for key, blob in items:
                self._sequence = (self._sequence + 1) & 0xFFFFFFFF
                tmp.write(
                    wire.encode_frame(
                        wire.Op(_OP_PUT),
                        self._sequence,
                        (key, blob, _checksum(key, blob)),
                    )
                )
                records += 1
            tmp.flush()
            if self._sync:
                os.fsync(tmp.fileno())
        reopen = not self._file.closed
        if reopen:
            self._file.close()
        os.replace(tmp_path, self.path)
        self._records = records
        if reopen:
            self._file = open(self.path, "ab")

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def wipe(self) -> None:
        self.close()
        self.path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# The open backend registry
# ---------------------------------------------------------------------------

#: kind -> factory(path, **options) -> DurableBackend, where *path* is
#: a per-peer base path without extension.
BACKENDS = Registry(
    "durable backend",
    UnknownDurabilityError,
    {"log": AppendLogBackend},
)
store_backend_kinds = BACKENDS.kinds
register_store_backend = BACKENDS.register


def create_store_backend(
    kind: str, path: str | os.PathLike, **options
) -> DurableBackend:
    """Build the durable backend *kind* rooted at *path*."""
    return BACKENDS.lookup(kind)(path, **options)


def open_peer_store(
    durability: str | None,
    data_dir: str | os.PathLike | None,
    name: str,
    *,
    recover: bool = False,
) -> PeerStore:
    """The store peer *name* serves from, on every substrate.

    Without *durability* that is a plain in-memory store; with it the
    store journals into the peer's backend under *data_dir*.  *recover*
    replays what that backend already holds (a restart) instead of
    starting empty, and therefore needs durability.
    """
    if durability is None:
        if recover:
            raise ReproError(
                "restart requires a durable backend; build the substrate "
                "with durability=..."
            )
        return PeerStore()
    backend = create_store_backend(durability, backend_path(data_dir, name))
    return PeerStore.recover(backend) if recover else PeerStore(backend)


def peer_data_dir(
    durability: str | None, data_dir: str | os.PathLike | None, prefix: str
) -> Path | None:
    """Where a substrate built with these options keeps its peers'
    backends: nowhere without *durability*, else
    :func:`resolve_data_dir`."""
    if durability is None:
        return None
    return resolve_data_dir(data_dir, prefix)


def resolve_data_dir(data_dir: str | os.PathLike | None, prefix: str) -> Path:
    """The directory one substrate's backends live under.

    ``None`` mints a fresh ``tempfile.mkdtemp`` directory — two
    substrates (or two parallel pytest workers) that both default the
    location can therefore never share a log file; an explicit
    *data_dir* is created if needed and used as-is (restart across
    substrate instances needs a pinned directory).
    """
    if data_dir is None:
        return Path(tempfile.mkdtemp(prefix=f"repro-{prefix}-"))
    path = Path(data_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def backend_path(data_dir: str | os.PathLike, peer: str) -> Path:
    """The per-peer base path backends attach their extension to."""
    return Path(data_dir) / peer
