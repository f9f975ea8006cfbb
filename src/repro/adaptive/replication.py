"""Read replication of hot leaf buckets.

Theorem 6 balances *storage*; under Zipfian traffic a handful of leaf
buckets still absorb most reads, and the peers hosting them become the
throughput ceiling.  The remedy is the classic one (D3-Tree's dynamic
load balancer, PAPERS.md): copy a hot bucket to ``K`` extra DHT keys
and spread reads across the ``K + 1`` copies.

Replica naming is deterministic and locally computable, the same
property ``fmd`` gives primary names: replica *i* of the bucket stored
at key ``k`` lives at ``k + "#r" + i``.  Because ``#`` lies outside
the label alphabet (labels are ``0``/``1`` strings over the ``"ml:"``
namespace), a replica key can never collide with any present or future
bucket key, and each replica key hashes independently on the ring —
the copies land on distinct, deterministic peers without any
directory lookup.  Any client holding the bucket's label can therefore
recompute the full replica set from the label algebra alone
(``bucket_key(fmd(label))`` plus the suffix), exactly like primary
names.

Invalidation rides Theorem 5: a split or merge rewrites exactly one
surviving bucket *in place* (same name, same key) and removes or
creates the rest, so the plane re-homes replicas of exactly one key
per maintenance event — the ``rewrite_local`` intercept refreshes that
key's replicas, the ``remove`` intercept tears the dead key's replicas
down.

:class:`ReplicaDirectory` tracks which keys this plane replicated (and
how many copies were actually created) and picks the copy a read is
spread to with a seeded RNG, keeping runs deterministic.
"""

from __future__ import annotations

from repro.common.rng import derive_seed, make_rng

#: Separator between a primary bucket key and a replica ordinal.  Not
#: in the label alphabet, so replica keys are disjoint from bucket keys.
REPLICA_SEP = "#r"


def replica_key(key: str, ordinal: int) -> str:
    """The DHT key of replica *ordinal* (1-based) of primary *key*."""
    return f"{key}{REPLICA_SEP}{ordinal}"


def replica_keys(key: str, count: int) -> list[str]:
    """The replica keys ``key#r1 .. key#r<count>``."""
    return [replica_key(key, ordinal) for ordinal in range(1, count + 1)]


def is_replica_key(key: str) -> bool:
    """True for keys minted by :func:`replica_key`."""
    return REPLICA_SEP in key


def primary_of(key: str) -> str:
    """The primary key a (possibly replica) key belongs to."""
    return key.split(REPLICA_SEP, 1)[0]


class ReplicaDirectory:
    """Which keys this plane replicated, and the seeded read picker.

    Values are the number of replicas actually created (promotion may
    create fewer than ``K`` under faults).  A pure data structure: the
    plane owns all DHT traffic.
    """

    __slots__ = ("_counts", "_rng")

    def __init__(self, seed: int = 0) -> None:
        self._counts: dict[str, int] = {}
        self._rng = make_rng(derive_seed(seed, "replica-picker"))

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key: str) -> bool:
        return key in self._counts

    def count(self, key: str) -> int:
        """Replicas currently recorded for *key* (0 when none)."""
        return self._counts.get(key, 0)

    def keys(self) -> list[str]:
        """The currently replicated primary keys."""
        return list(self._counts)

    def add(self, key: str, count: int) -> None:
        """Record *count* (>= 1) created replicas of *key*."""
        self._counts[key] = count

    def drop(self, key: str) -> int:
        """Forget *key*; returns the replica count dropped (0 if none)."""
        return self._counts.pop(key, 0)

    def pick(self, key: str) -> str:
        """The key one read of *key* should target.

        Uniform over the primary and its replicas; the primary itself
        (ordinal 0) keeps its share of the traffic.  Draws from the
        directory's seeded RNG, so a fixed seed over a fixed read
        sequence reproduces the same spreading.
        """
        count = self._counts.get(key, 0)
        if not count:
            return key
        ordinal = self._rng.randrange(count + 1)
        if not ordinal:
            return key
        return replica_key(key, ordinal)
