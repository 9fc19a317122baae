"""LRU kernel-row cache.

§III-A argues the proposed distributed solver should avoid a kernel cache
entirely; the cache lives here for the *libsvm-style baseline*, which is
given "a compute node's entire memory as a kernel cache" (§V-A) — the
best case for the baseline.

Rows are keyed by sample index and bounded by a byte budget with
least-recently-used eviction; hit/miss counters feed the baseline's
performance model.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np


class KernelRowCache:
    """Byte-bounded LRU cache of full kernel rows."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes < 0:
            raise ValueError(f"negative capacity {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self._rows: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def used_bytes(self) -> int:
        return self._bytes

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, index: int) -> Optional[np.ndarray]:
        """Return the cached row (marking it most-recently-used) or None."""
        row = self._rows.get(index)
        if row is None:
            self.misses += 1
            return None
        self._rows.move_to_end(index)
        self.hits += 1
        return row

    def put(self, index: int, row: np.ndarray) -> None:
        """Insert a row, evicting LRU entries to respect the byte budget."""
        if index in self._rows:
            self._bytes -= self._rows[index].nbytes
            del self._rows[index]
        if row.nbytes > self.capacity_bytes:
            # row cannot fit at all: legal, just never cached
            return
        while self._bytes + row.nbytes > self.capacity_bytes and self._rows:
            _, old = self._rows.popitem(last=False)
            self._bytes -= old.nbytes
            self.evictions += 1
        self._rows[index] = row
        self._bytes += row.nbytes

    def simulate_misses(self, keys, row_nbytes: int) -> list:
        """Which of ``keys`` would miss if fetched via get/put in order?

        Pure lookahead for batched row production: replays the exact
        get-then-put-on-miss sequence (recency updates, evictions, the
        too-big-to-cache rule) against a shadow of the current state,
        every newly produced row taking ``row_nbytes``.  Nothing is
        mutated; counters are untouched.
        """
        nb = int(row_nbytes)
        sizes = {k: r.nbytes for k, r in self._rows.items()}  # LRU→MRU order
        used = self._bytes
        miss = []
        for k in keys:
            k = int(k)
            if k in sizes:
                sizes[k] = sizes.pop(k)  # move_to_end
                continue
            miss.append(k)
            if nb > self.capacity_bytes:
                continue
            while used + nb > self.capacity_bytes and sizes:
                used -= sizes.pop(next(iter(sizes)))
            sizes[k] = nb
            used += nb
        return miss

    def invalidate(self) -> None:
        self._rows.clear()
        self._bytes = 0

    def stats(self) -> dict:
        return {
            "entries": len(self._rows),
            "bytes": self._bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

