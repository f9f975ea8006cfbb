"""Online hotspot detection over per-bucket read counts.

The plane tallies every index read per bucket key in one plain dict,
and the :class:`HotspotDetector` samples that dict: each
:meth:`HotspotDetector.sample` diffs the cumulative counts against the
previous sample and maintains a sliding window of the last
``window_samples`` deltas.  A bucket whose share of window reads
reaches ``hot_share`` is flagged hot.  The counts only ever grow (no
code path resets them), so every delta is a count of new reads.
"""

from __future__ import annotations

from collections import deque

from repro.common.errors import ReproError


class HotspotDetector:
    """Flag buckets above a traffic-share threshold, online.

    Samples the cumulative per-key read counts in *counts* (read live,
    never copied by the caller) and keeps a sliding window of the last
    *window_samples* inter-sample deltas.  :meth:`sample` returns the
    current hot set: keys whose share of window reads is at least
    *hot_share*, provided the window carries at least *min_reads* reads
    in total.
    """

    def __init__(
        self,
        counts: dict[str, int],
        *,
        window_samples: int = 4,
        hot_share: float = 0.05,
        min_reads: int = 64,
    ) -> None:
        if window_samples < 1:
            raise ReproError(
                f"window_samples must be >= 1, got {window_samples}"
            )
        if not 0.0 < hot_share <= 1.0:
            raise ReproError(
                f"hot_share must be in (0, 1], got {hot_share}"
            )
        if min_reads < 0:
            raise ReproError(f"min_reads must be >= 0, got {min_reads}")
        self._counts = counts
        self._window_samples = window_samples
        self._hot_share = hot_share
        self._min_reads = min_reads
        self._previous: dict[str, int] = {}
        self._deltas: deque[dict[str, int]] = deque()
        self._window: dict[str, int] = {}
        self._window_total = 0

    @property
    def window_reads(self) -> int:
        """Reads in the current sliding window."""
        return self._window_total

    def share(self, key: str) -> float:
        """The window traffic share of *key* (0.0 for an empty window)."""
        if self._window_total <= 0:
            return 0.0
        return self._window.get(key, 0) / self._window_total

    def sample(self) -> frozenset[str]:
        """Take one sample; return the current hot key set."""
        previous = self._previous
        delta: dict[str, int] = {}
        for key, value in self._counts.items():
            grown = value - previous.get(key, 0)
            if grown > 0:
                delta[key] = grown
        self._previous = dict(self._counts)
        self._deltas.append(delta)
        for key, count in delta.items():
            self._window[key] = self._window.get(key, 0) + count
            self._window_total += count
        while len(self._deltas) > self._window_samples:
            expired = self._deltas.popleft()
            for key, count in expired.items():
                remaining = self._window.get(key, 0) - count
                if remaining <= 0:
                    self._window.pop(key, None)
                else:
                    self._window[key] = remaining
                self._window_total -= count
        if self._window_total < self._min_reads:
            return frozenset()
        threshold = self._hot_share * self._window_total
        return frozenset(
            key for key, count in self._window.items()
            if count >= threshold
        )
