"""What is left of the execution plane: one name the perf harness pins.

Rounds are issued by :meth:`repro.dht.api.Dht.drive`; nothing in the
program calls this module.
"""

from __future__ import annotations

from repro.dht.api import Dht

__all__ = ["BatchedPlane"]


class BatchedPlane:
    """Caller-less since ``Dht.drive``: ``perf/spans.py:TARGETS`` spans
    ``get_round``, and the ``benchmark`` PR that re-points ``TARGETS``
    at the drivers deletes this class (ROADMAP item 1(a))."""

    def __init__(self, dht: Dht) -> None:
        self._dht = dht

    def get_round(self, keys):
        return self._dht.get_many_outcomes(keys)
