"""Exception hierarchy for the repro library.

Every library-raised exception derives from :class:`ReproError`, so
callers can catch one type at the API boundary.  Errors are raised as
early as the offending input is detected (fail fast), per the library's
style guide.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InvalidLabelError(ReproError, ValueError):
    """A kd-tree label string is malformed for the given dimensionality."""


class InvalidPointError(ReproError, ValueError):
    """A data key is outside the unit hypercube or has the wrong arity."""


class InvalidRegionError(ReproError, ValueError):
    """A query region is degenerate or outside the unit hypercube."""


class UnknownRuntimeError(ReproError, ValueError):
    """A runtime kind or overlay name is not one the runtime builds.

    Raised by :func:`repro.runtime.create_dht` and by
    :class:`~repro.common.config.IndexConfig` validation of the
    ``runtime=`` field.  Subclasses :class:`ValueError` because the
    offending name is a plain bad value, catchable without importing
    the library's hierarchy.
    """


class UnknownStoreError(ReproError, ValueError):
    """A record-store name is not one of ``repro.core.store.STORES``.

    Raised by :func:`repro.core.store.create_store` and by
    :class:`~repro.common.config.IndexConfig` validation of the
    ``store=`` field.  Subclasses :class:`ValueError` for the same
    reason as :class:`UnknownRuntimeError`: the offending name is a
    plain bad value.
    """


class UnknownDurabilityError(ReproError, ValueError):
    """A durability kind is not ``"log"``, the one durable backend.

    Raised by :func:`repro.dht.durable.check_durability`: from
    :func:`~repro.dht.durable.open_peer_store`, the substrates and
    :class:`~repro.runtime.RuntimeConfig` /
    :class:`~repro.common.config.IndexConfig` validation of the
    ``durability=`` field.  Subclasses :class:`ValueError` for the
    same reason as its sibling unknown-kind errors.
    """


def unknown_kind(error: type, noun: str, kind: object, kinds) -> ReproError:
    """*error* saying *kind* is not one of the *kinds* of *noun*."""
    return error(f"unknown {noun} {kind!r}; expected one of {tuple(kinds)}")


class CorruptValueError(ReproError, RuntimeError):
    """A stored byte blob could not be decoded back into an object.

    Raised instead of a bare :mod:`pickle` exception when a journaled
    blob replayed by :meth:`~repro.dht.storage.PeerStore.recover` is
    truncated or otherwise mangled — a torn durable-log write.
    Catching :class:`ReproError` at the API boundary therefore covers
    data corruption too.
    """


class IndexCorruptionError(ReproError, RuntimeError):
    """The distributed index reached a state that violates an invariant.

    Seeing this exception means a bug in the index layer (or a lossy DHT
    used where a lossless one was required), never a bad user input.
    """


class DhtKeyError(ReproError, KeyError):
    """A DHT operation referenced a key that does not exist."""


class NodeUnreachableError(ReproError, RuntimeError):
    """A simulated peer was contacted after it left or failed."""


class JournalVersionError(ReproError, RuntimeError):
    """A durable log was written in another wire version.

    Replay refuses it and leaves the file as it is: read as a torn
    tail, every record would be discarded and the log rewritten empty.
    """
