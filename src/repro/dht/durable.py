"""Per-peer durable storage: the append-only journal.

Every DHT substrate keeps each peer's objects in a
:class:`~repro.dht.storage.PeerStore`; this module supplies the
*durability plane* behind that seam: a backend journals every mutation
to disk so a crashed peer can be restarted
(:meth:`repro.dht.api.Dht.restart`) with its pre-crash store replayed
instead of empty.  There is one backend, ``"log"``
(:class:`AppendLogBackend`): an append-only log of ``put``/``append``/
``remove`` records, each the service wire's request frame
(:mod:`repro.service.wire`) with a CRC32 of its body, compacted in
place once dead records dominate.  Torn tails (a crash mid-append) are
detected by the framing/checksum and replay stops cleanly at the last
intact record; a log written in another wire version is refused whole.

It is selected by ``RuntimeConfig(durability="log")`` /
``IndexConfig(durability="log")``; :func:`check_durability` refuses
any other kind, and a ``data_dir`` given without one.

The crash model is process-level: a simulated ``fail`` drops all
in-memory state but the backend's files survive, exactly what a real
peer loses in a power cut minus OS-level write reordering (callers
that need fsync-grade durability pass ``sync=True``).
"""

from __future__ import annotations

import os
import tempfile
import zlib
from collections.abc import Iterable
from pathlib import Path

from repro.common.errors import (
    JournalVersionError,
    ReproError,
    UnknownDurabilityError,
    unknown_kind,
)
from repro.dht.storage import PeerStore

__all__ = [
    "AppendLogBackend",
    "check_durability",
    "open_peer_store",
    "peer_data_dir",
    "resolve_data_dir",
]

#: Log opcodes — the wire protocol's PUT/REMOVE/APPEND values: a log
#: file is a plain stream of the request frames the peer applied.
_OP_PUT = 3
_OP_REMOVE = 4
_OP_APPEND = 8

#: Compaction triggers once the log holds more than
#: ``max(_COMPACT_MIN, _COMPACT_FACTOR * live_keys)`` records.
_COMPACT_MIN = 64
_COMPACT_FACTOR = 4


def _wire():
    """The service wire codec, imported lazily.

    ``repro.service.wire`` imports ``repro.core`` for the bucket codec,
    and its package imports the service runtime, which opens its stores
    through this module; resolving it at call time (never at module
    import) keeps the ``dht`` <-> ``service`` package pair free of
    import-order traps.
    """
    from repro.service import wire

    return wire


def _record(op: int, key: str, blob: bytes | None) -> bytes:
    """One journal record: the request frame of *op* on *key* — its
    body the key, then *blob* verbatim, or the bare key of a remove —
    with the CRC32 of that body, seeded with the opcode, in the request
    id's four bytes."""
    wire = _wire()
    body = key.encode() if blob is None else wire.pack_key(key) + blob
    return wire.pack_frame(op, zlib.crc32(body, op), body)


class AppendLogBackend:
    """Append-only log of the request frames a peer's store applied.

    Record = one :mod:`repro.service.wire` frame: opcode PUT, APPEND or
    REMOVE; as its body the packed key, then the blob verbatim (a put's
    value bytes — a bucket's codec bytes behind their kind byte — or an
    append's codec row as the ``APPEND`` frame carried it), or a
    remove's bare key; and in the header's request-id field the CRC32 of
    that body, seeded with the opcode.  Nothing is pickled around a record,
    and replay hands every blob back as the bytes it was given, cutting
    frames one at a time with :func:`repro.service.wire.split_frame`.

    One backend belongs to exactly one peer (one file path); parallel
    peers — and parallel pytest workers — never share one, which
    :func:`resolve_data_dir` guarantees by minting a fresh temporary
    directory per substrate when the caller does not pin one.
    """

    def __init__(self, path: str | os.PathLike, *, sync: bool = False) -> None:
        self.path = Path(str(path) + ".log")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._sync = sync
        self._records = 0  # records currently in the file
        self._file = open(self.path, "ab")

    def _log(self, op: int, key: str, blob: bytes | None) -> None:
        if self._file.closed:
            raise ReproError(
                f"durable log {self.path} is closed; the peer is down"
            )
        self._file.write(_record(op, key, blob))
        self._file.flush()
        if self._sync:
            os.fsync(self._file.fileno())
        self._records += 1

    def record_put(self, key: str, blob: bytes, *, append: bool = False) -> None:
        """Journal one write of *key*: its whole new value, or with
        *append* one row added to the value it holds."""
        self._log(_OP_APPEND if append else _OP_PUT, key, blob)

    def record_remove(self, key: str) -> None:
        """Journal one deleted key."""
        self._log(_OP_REMOVE, key, None)

    def replay(self) -> dict[str, list[bytes]]:
        """Reconstruct the surviving state from disk: per key, its last
        full blob followed by the rows appended since, in order.

        Replay is forgiving at the tail — a torn final record (crash
        mid-write) is discarded, everything intact before it is kept —
        and leaves the backend ready to journal again.  A log in
        another wire version raises instead, and stays on disk as it
        was.
        """
        # Frames are cut one at a time (header first, then exactly the
        # declared payload), never in bulk: a mangled or half-written
        # record must not take the intact frames before it down with
        # it, and a partial frame at EOF is a torn tail, not silence.
        wire = _wire()
        data = self.path.read_bytes()
        if data[:4] == wire.MAGIC and len(data) > 4 and data[4] != wire.VERSION:
            # Not a torn tail: the whole log speaks another version, and
            # rewriting its "intact prefix" would empty it.
            self.close()
            raise JournalVersionError(
                f"durable log {self.path} is in wire version {data[4]}, "
                f"this build reads version {wire.VERSION}; it is left as "
                f"it is"
            )
        state: dict[str, list[bytes]] = {}
        records = offset = 0
        torn = False
        while offset < len(data):
            try:
                cut = None
                if len(data) - offset >= wire.HEADER.size:
                    cut = wire.split_frame(data, offset)
                if cut is None:  # a partial frame at EOF
                    raise wire.WireError("torn tail")
                op, crc, start, end = cut
                if crc != zlib.crc32(memoryview(data)[start:end], op):
                    raise wire.WireError("checksum mismatch")
                if op == _OP_REMOVE:
                    state.pop(data[start:end].decode(), None)
                elif op == _OP_PUT or op == _OP_APPEND:
                    key, at = wire.split_key(data, start, end)
                    if op == _OP_PUT:
                        state[key] = [data[at:end]]
                    elif key in state:  # a live peer appends to stored keys
                        state[key].append(data[at:end])
                else:
                    raise wire.WireError(f"opcode {op} in a journal")
            except (wire.WireError, UnicodeDecodeError):
                torn = True
                break
            records += 1
            offset = end
        self._records = records
        if torn:
            # Rewrite the log to the intact prefix's surviving state so
            # the discarded tail cannot resurrect on a later replay —
            # and so new appends land after the prefix, not after junk.
            self._write_log(
                (_OP_APPEND if rank else _OP_PUT, key, blob)
                for key, blobs in state.items()
                for rank, blob in enumerate(blobs)
            )
        return state

    def should_compact(self, live_keys: int) -> bool:
        """Whether journal debt warrants a :meth:`compact` pass now."""
        return self._records > max(_COMPACT_MIN, _COMPACT_FACTOR * live_keys)

    def compact(self, items: Iterable[tuple[str, bytes]]) -> None:
        """Rewrite the log to exactly *items*, one full blob per key
        (dead records dropped, appended rows folded)."""
        self._write_log((_OP_PUT, key, blob) for key, blob in items)

    def _write_log(self, records: Iterable[tuple[int, str, bytes]]) -> None:
        """Replace the log with *records*, ``(opcode, key, blob)`` each."""
        tmp_path = self.path.with_suffix(".log.tmp")
        count = 0
        with open(tmp_path, "wb") as tmp:
            for op, key, blob in records:
                tmp.write(_record(op, key, blob))
                count += 1
            tmp.flush()
            if self._sync:
                os.fsync(tmp.fileno())
        reopen = not self._file.closed
        if reopen:
            self._file.close()
        os.replace(tmp_path, self.path)
        self._records = count
        if reopen:
            self._file = open(self.path, "ab")

    def close(self) -> None:
        """Release the file handle; the log stays on disk."""
        if not self._file.closed:
            self._file.close()

    def wipe(self) -> None:
        """Close and delete the log (graceful departure)."""
        self.close()
        self.path.unlink(missing_ok=True)


def check_durability(
    durability: str | None,
    data_dir: str | os.PathLike | None = None,
    noun: str = "durability",
) -> None:
    """Refuse a *durability* other than ``None`` and ``"log"``, naming
    it an unknown *noun*, and a *data_dir* without a *durability*:
    nothing would be written there."""
    if durability is None:
        if data_dir is not None:
            raise ReproError(
                "data_dir has no effect without durability; pass "
                "durability='log' alongside it"
            )
    elif durability != "log":
        raise unknown_kind(
            UnknownDurabilityError, noun, durability, ("log",)
        )


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
    check_durability(durability, noun="durable backend")
    backend = AppendLogBackend(backend_path(data_dir, name))
    return PeerStore.recover(backend) if recover else PeerStore(backend)


def peer_data_dir(
    durability: str | None, data_dir: str | os.PathLike | None, prefix: str
) -> Path | None:
    """Where a substrate built with these options keeps its peers'
    backends: nowhere without *durability*, else
    :func:`resolve_data_dir`.  Refuses what :func:`check_durability`
    refuses."""
    check_durability(durability, data_dir, "durable backend")
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
