"""Cost metering around index operations.

Wrap a phase of an experiment in a :class:`CostMeter` to read off how
many DHT-lookups and record transfers that phase consumed — the two
maintenance measures of Fig. 5 — without the phases having to reset the
underlying counters.

The delta covers the *entire* :meth:`~repro.dht.api.DhtStats.snapshot`
keyset, not a hand-picked subset: batch primitives (``batch_rounds``,
``batched_ops``), the retry wrapper (``retries``, ``backoff_waits``,
``backoff_time``) and fault injection (``faults_*``) are all metered.
An earlier revision hardcoded six classic fields, so phases issuing
batches or running over faulty substrates silently under-reported —
a counter added to ``DhtStats`` now shows up in every delta by
construction.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from repro.dht.api import Dht, DhtStats

#: The classic positional order, preserved for source compatibility:
#: ``CostDelta(1, 2, 3, 4, 5, 6)`` still means (lookups, records_moved,
#: gets, puts, removes, hops).
_CLASSIC_FIELDS = (
    "lookups",
    "records_moved",
    "gets",
    "puts",
    "removes",
    "hops",
)


class CostDelta(Mapping):
    """Counter increments across one metered phase.

    Behaves as an immutable mapping over every counter that moved (or
    was explicitly given), with attribute access for convenience:
    ``delta.lookups`` and ``delta["lookups"]`` agree, and any counter
    name valid on :class:`~repro.dht.api.DhtStats` reads as 0 when the
    phase never touched it.  Positional construction keeps the classic
    six-field order for source compatibility.
    """

    __slots__ = ("_values",)

    def __init__(self, *classic: float, **counters: float) -> None:
        if len(classic) > len(_CLASSIC_FIELDS):
            raise TypeError(
                f"at most {len(_CLASSIC_FIELDS)} positional counters "
                f"(the classic {_CLASSIC_FIELDS}), got {len(classic)}"
            )
        values = dict(zip(_CLASSIC_FIELDS, classic))
        for name, value in counters.items():
            if name in values:
                raise TypeError(f"counter {name!r} given twice")
            values[name] = value
        object.__setattr__(self, "_values", values)

    # -- mapping surface ------------------------------------------------

    def __getitem__(self, name: str) -> float:
        return self._values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    # -- attribute surface ----------------------------------------------

    def __getattr__(self, name: str) -> float:
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self._values[name]
        except KeyError:
            # Any real DhtStats counter the phase never moved reads 0;
            # unknown names are attribute errors as usual.
            if name in _known_counter_names():
                return 0
            raise AttributeError(name) from None

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("CostDelta is immutable")

    # -- value semantics ------------------------------------------------

    def __add__(self, other: "CostDelta") -> "CostDelta":
        if not isinstance(other, CostDelta):
            return NotImplemented
        merged = dict(self._values)
        for name, value in other._values.items():
            merged[name] = merged.get(name, 0) + value
        return CostDelta(**merged)

    def __eq__(self, other) -> bool:
        if isinstance(other, CostDelta):
            return self._nonzero() == other._nonzero()
        if isinstance(other, Mapping):
            return self._nonzero() == {
                name: value for name, value in other.items() if value
            }
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._nonzero().items()))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={value}" for name, value in sorted(self._values.items())
        )
        return f"CostDelta({inner})"

    def _nonzero(self) -> dict[str, float]:
        return {name: value for name, value in self._values.items() if value}


def _known_counter_names() -> frozenset[str]:
    global _KNOWN
    if _KNOWN is None:
        _KNOWN = frozenset(DhtStats().snapshot())
    return _KNOWN


_KNOWN: frozenset[str] | None = None


class CostMeter:
    """Context manager measuring DhtStats increments.

    Usage::

        with CostMeter(index.dht) as meter:
            index.insert(key)
        print(meter.delta.lookups, meter.delta.records_moved)

    The delta is computed over the full ``snapshot()`` keyset, so
    round, retry, backoff and fault counters are metered alongside the
    classic lookup/movement costs.
    """

    def __init__(self, dht: Dht) -> None:
        self._stats: DhtStats = dht.stats
        self._before: dict[str, int | float] | None = None
        self.delta: CostDelta | None = None

    def __enter__(self) -> "CostMeter":
        self._before = self._stats.snapshot()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        after = self._stats.snapshot()
        before = self._before or {}
        self.delta = CostDelta(**{
            name: value - before.get(name, 0)
            for name, value in after.items()
        })
