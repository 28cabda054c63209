"""Named counts of what the engine did, and the bounded memos that count
their own hits, misses and evictions.

``COUNTS`` is one process-wide ``collections.Counter``; ``--stats`` prints
every entry as ``name: value``.  The engine's events are listed here, so
each is printed even while it is zero; every ``LruMemo`` adds its own three.
"""

from __future__ import annotations

from collections import Counter

COUNTS: Counter = Counter(dict.fromkeys((
    "levels built", "levels reused", "structure maps reused",
    "res chain maps built", "tr chain maps built", "weyl chain maps built",
    "weyl maps taken as identity", "weyl maps shared by coset",
    "zero degrees skipped", "zero degrees found",
), 0))

_MISSING = object()


class LruMemo:
    """Values by key, least recently used first, at most ``size`` of them;
    its hits, misses and evictions are the COUNTS entries ``<name> hits``,
    ``<name> misses`` and ``<name> evictions``, so the entries it holds are
    its misses minus its evictions."""

    def __init__(self, name: str, size: int):
        self.size = size
        self._hits, self._misses, self._evictions = keys = tuple(
            f"{name} {event}" for event in ("hits", "misses", "evictions"))
        for key in keys:
            COUNTS.setdefault(key, 0)
        self._entries: dict = {}

    def __len__(self) -> int:
        return len(self._entries)

    def recall(self, key, compute):
        """The value stored under key; otherwise compute() is stored and
        returned.  An exception from compute is not stored, so it is raised
        again on the next call, and counts as no miss."""
        value = self._entries.pop(key, _MISSING)
        if value is _MISSING:
            value = compute()
            COUNTS[self._misses] += 1
        else:
            COUNTS[self._hits] += 1
        self._entries[key] = value  # now the most recently used
        while len(self._entries) > self.size:
            del self._entries[next(iter(self._entries))]
            COUNTS[self._evictions] += 1
        return value

    def clear(self) -> None:
        """Drop every entry, each counted as an eviction."""
        COUNTS[self._evictions] += len(self._entries)
        self._entries.clear()
