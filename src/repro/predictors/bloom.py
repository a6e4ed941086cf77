"""Bloom filters and the Counting Bloom Filter of the CBF scheme (§II).

A plain Bloom filter cannot handle deletions, so presence predictors over a
cache (whose content churns constantly) use the *counting* variant [7]:
each entry is a small saturating counter, incremented on insert and
decremented on delete.  Following [9] — the design the paper compares
against — we use a single hash function (xor-hash), and counters that
*disable* themselves once they saturate: a disabled entry can no longer be
trusted to reach zero, so it permanently answers "maybe present".  This
saturation pathology, together with the entry-width tax (4 bits per entry
vs ReDHiP's 1), is exactly why CBF underperforms at an equal area budget.
"""

from __future__ import annotations

import numpy as np

from repro.predictors.hashes import make_hash
from repro.util.bitops import ilog2
from repro.util.validation import check_pow2, check_range

__all__ = ["BloomFilter", "CountingBloomFilter"]


class BloomFilter:
    """Classic single-hash Bloom filter over block numbers.

    Insert-only; used in tests as the ground-truth "no false negatives"
    reference and by the hash-quality ablation.
    """

    def __init__(self, num_bits: int, hash_kind: str = "xor") -> None:
        check_pow2("num_bits", num_bits)
        self.p = ilog2(num_bits)
        self._hash = make_hash(hash_kind, self.p)
        self._bits = np.zeros(num_bits, dtype=bool)
        self.hash_kind = hash_kind

    def add(self, block: int) -> None:
        self._bits[self._hash(block)] = True

    def __contains__(self, block: int) -> bool:
        return bool(self._bits[self._hash(block)])

    def clear(self) -> None:
        self._bits[:] = False

    @property
    def occupancy(self) -> float:
        """Fraction of bits set (false-positive probability proxy)."""
        return np.count_nonzero(self._bits) / self._bits.size


class CountingBloomFilter:
    """Single-hash counting Bloom filter with saturate-and-disable counters.

    Parameters
    ----------
    num_entries:
        Power-of-two counter count.  At the paper's area budget (512 KB)
        with 4-bit counters this is 2**20 entries — one per LLC line, i.e. a
        load factor of 1.0, which drives the high false-positive rate seen
        in Figures 6/7.
    counter_bits:
        Width of each counter (4 in our CBF scheme; [9] found 3 sufficient
        for a 256 KB cache, larger caches need more).
    hash_kind:
        ``"xor"`` (default, per [9]) or ``"bits"``.
    """

    def __init__(self, num_entries: int, counter_bits: int = 4, hash_kind: str = "xor") -> None:
        check_pow2("num_entries", num_entries)
        check_range("counter_bits", counter_bits, 1, 8)
        self.p = ilog2(num_entries)
        self.counter_bits = counter_bits
        self.max_count = (1 << counter_bits) - 1
        self._hash = make_hash(hash_kind, self.p)
        self._counts = np.zeros(num_entries, dtype=np.uint8)
        self._disabled = np.zeros(num_entries, dtype=bool)
        self.hash_kind = hash_kind
        # Telemetry for the evaluation.
        self.saturations = 0
        self.inserts = 0
        self.deletes = 0

    @property
    def num_entries(self) -> int:
        return len(self._counts)

    @property
    def storage_bits(self) -> int:
        """Total SRAM bits (area-budget comparisons)."""
        return self.num_entries * self.counter_bits

    def insert(self, block: int) -> None:
        """Count one resident copy of ``block``'s hash class."""
        idx = self._hash(block)
        self.inserts += 1
        if self._disabled[idx]:
            return
        if self._counts[idx] == self.max_count:
            # Overflow: the counter can no longer track deletions reliably.
            self._disabled[idx] = True
            self.saturations += 1
            return
        self._counts[idx] += 1

    def delete(self, block: int) -> None:
        """Remove one resident copy (cache eviction)."""
        idx = self._hash(block)
        self.deletes += 1
        if self._disabled[idx]:
            return
        if self._counts[idx] == 0:
            # Deleting below zero means an insert was dropped (saturation
            # race) — treat the entry as untrustworthy as well.
            self._disabled[idx] = True
            self.saturations += 1
            return
        self._counts[idx] -= 1

    def __contains__(self, block: int) -> bool:
        """Conservative membership: disabled entries answer True."""
        idx = self._hash(block)
        return bool(self._disabled[idx]) or self._counts[idx] > 0

    def clear(self) -> None:
        self._counts[:] = 0
        self._disabled[:] = False

    def rebuild(self, resident_blocks) -> None:
        """Reconstruct counters from a full resident snapshot.

        A CBF *can* be recalibrated, but unlike ReDHiP's per-set OR trick it
        requires a full hash+increment per tag (the expensive process §III-B
        describes); the cost model in the ablation bench charges it
        accordingly.
        """
        self.clear()
        for block in resident_blocks:
            self.insert(block)

    @property
    def occupancy(self) -> float:
        """Fraction of entries answering "present" (FP-rate proxy)."""
        return np.count_nonzero((self._counts > 0) | self._disabled) / self._counts.size

    @property
    def disabled_fraction(self) -> float:
        return np.count_nonzero(self._disabled) / self._disabled.size
