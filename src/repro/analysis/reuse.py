"""Reuse-distance (LRU stack distance) analysis of traces.

The classical trace-analysis counterpart to simulation: the *reuse
distance* of an access is the number of distinct blocks touched since the
previous access to the same block.  Under a fully-associative LRU cache of
capacity C, an access hits iff its reuse distance is < C — so the reuse
distance histogram yields analytic hit rates for *every* capacity at once.

Implemented with the Bennett–Kruskal algorithm: a Fenwick (binary indexed)
tree over access timestamps counts, in O(log n) per access, how many
*distinct* blocks were touched since the last access to the current block
(each block contributes only its most recent timestamp to the tree).

Uses in this repository:

* workload validation — the analytic fully-associative hit rates bound and
  explain the simulated set-associative ones (tests assert consistency);
* the ``ext-reuse`` experiment — an analytic cross-check of the Figure 9
  hit-rate profile that needs no cache simulation at all;
* working-set estimation for new workload recipes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_positive
from repro.workloads.trace import Trace

__all__ = ["ReuseProfile", "reuse_distances", "profile_trace"]

#: Histogram bucket for cold (first-touch) accesses.
COLD = -1


def reuse_distances(blocks: np.ndarray) -> np.ndarray:
    """Per-access LRU stack distances (``COLD`` for first touches).

    Bennett-Kruskal: maintain a Fenwick tree with a 1 at the timestamp of
    each block's most recent access.  The distance of an access at time t
    to a block last seen at time s is the number of 1s in (s, t), i.e. the
    count of distinct blocks touched in between.
    """
    n = len(blocks)
    dist = np.empty(n, dtype=np.int64)
    tree = np.zeros(n + 1, dtype=np.int64)

    def add(i: int, v: int) -> None:
        i += 1
        while i <= n:
            tree[i] += v
            i += i & (-i)

    def prefix(i: int) -> int:
        i += 1
        s = 0
        while i > 0:
            s += tree[i]
            i -= i & (-i)
        return int(s)

    last_seen: dict[int, int] = {}
    blk_list = blocks.tolist()
    for t, b in enumerate(blk_list):
        s = last_seen.get(b)
        if s is None:
            dist[t] = COLD
        else:
            # Distinct blocks strictly after s and strictly before t.
            dist[t] = prefix(t - 1) - prefix(s)
            add(s, -1)  # retire the stale timestamp
        add(t, 1)
        last_seen[b] = t
    return dist


@dataclass(frozen=True)
class ReuseProfile:
    """Reuse-distance histogram of one trace."""

    distances: np.ndarray      # int64[n], COLD for first touches
    num_accesses: int

    @property
    def cold_fraction(self) -> float:
        """Fraction of compulsory (first-touch) accesses."""
        return float((self.distances == COLD).mean()) if self.num_accesses else 0.0

    def hit_rate(self, capacity_blocks: int) -> float:
        """Analytic hit rate of a fully-associative LRU cache."""
        check_positive("capacity_blocks", capacity_blocks)
        if self.num_accesses == 0:
            return 0.0
        hits = ((self.distances >= 0) & (self.distances < capacity_blocks)).sum()
        return float(hits / self.num_accesses)

    def working_set_blocks(self, coverage: float = 0.9) -> int:
        """Smallest LRU capacity achieving ``coverage`` of the achievable
        (non-cold) hits — a robust working-set-size estimate."""
        finite = np.sort(self.distances[self.distances >= 0])
        if len(finite) == 0:
            return 0
        idx = min(len(finite) - 1, int(np.ceil(coverage * len(finite))) - 1)
        return int(finite[max(idx, 0)]) + 1


def profile_trace(trace: Trace) -> ReuseProfile:
    """Reuse-distance profile of one core's trace (block granularity)."""
    d = reuse_distances(trace.blocks)
    return ReuseProfile(distances=d, num_accesses=trace.num_refs)
