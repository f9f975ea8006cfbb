"""One open kind table: register, list, look up or fail typed.

Runtimes, record stores and durable backends are each selected by a
*kind* string that third parties may extend; every one of those tables
is an instance of :class:`Registry`, and every config field naming a
kind is validated by :meth:`Registry.lookup` against the live table.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping


class Registry:
    """``kind -> factory`` for one family (*noun*) of pluggable parts.

    ``table`` is the one dict behind it — hot paths read it directly;
    an unknown kind raises *error* naming the registered kinds.
    """

    def __init__(
        self, noun: str, error: type[Exception], table: Mapping[str, Callable]
    ) -> None:
        self.noun = noun
        self.error = error
        self.table: dict[str, Callable] = dict(table)

    def register(self, kind: str, factory: Callable) -> None:
        """Add (or replace) *kind*; see the owning module for the
        signature its factories are called with."""
        if not kind:
            raise self.error(f"{self.noun} kind must be a non-empty string")
        self.table[kind] = factory

    def kinds(self) -> tuple[str, ...]:
        """The registered kinds, in registration order."""
        return tuple(self.table)

    def lookup(self, kind: str, noun: str | None = None) -> Callable:
        """The factory registered for *kind*; the typed error otherwise
        (*noun* words the message for a caller that names the kind
        differently, e.g. a config field)."""
        factory = self.table.get(kind)
        if factory is None:
            raise self.error(
                f"unknown {noun or self.noun} {kind!r}; expected one of "
                f"{self.kinds()}"
            )
        return factory
