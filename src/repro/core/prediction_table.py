"""The ReDHiP prediction table (§III-A).

A direct-mapped bitmap of ``2**p`` one-bit entries indexed by the bits-hash
of the block number (the low ``p`` bits, Figure 3).  Three deliberate
simplifications relative to prior presence predictors:

* **direct-mapped** — no tags, no associativity: the hash *is* the index;
* **1-bit entries** — a set bit means "some resident block aliases here";
  bits are set on LLC fills and *never cleared on evictions* (that is the
  recalibration engine's job);
* **bits-hash** — because the LLC set index is the low ``k`` bits of the
  block number and ``p > k``, all blocks aliasing to one table entry live
  in the same LLC set.  The 64 entries whose index shares a set index form
  one *line* (Figure 4): exactly the entries the paper's per-set OR-decoder
  rebuilds in a single cycle.

The bitmap is stored as a NumPy boolean array (one byte per logical bit —
a simulation convenience; :meth:`line_words` exposes the packed 64-bit-line
view of Figures 4/5 for inspection and tests).
"""

from __future__ import annotations

import numpy as np

from repro.util.bitops import ilog2, mask
from repro.util.validation import ConfigError, check_pow2

__all__ = ["PredictionTable", "pt_geometry"]


def pt_geometry(size_bytes: int, llc_set_bits: int) -> dict[str, int]:
    """Derive the table geometry of Figure 3 from a size budget.

    Returns ``p`` (index bits), ``k`` (the LLC's set-index bits),
    ``slots_per_set`` (``2**(p-k)`` — 64 in both the paper and scaled
    machines) and the line count.
    """
    check_pow2("size_bytes", size_bytes)
    num_bits = size_bytes * 8
    p = ilog2(num_bits)
    if p <= llc_set_bits:
        # The table would not even distinguish all cache sets; legal for
        # sweep lower bounds but structurally degenerate (paper: "almost
        # useless when the size goes below 64KB").
        slots = 0
    else:
        slots = 1 << (p - llc_set_bits)
    return {
        "num_bits": num_bits,
        "p": p,
        "k": llc_set_bits,
        "slots_per_set": slots,
        "lines": max(1, num_bits // 64),
    }


class PredictionTable:
    """Direct-mapped one-bit presence bitmap with bits-hash indexing."""

    def __init__(self, size_bytes: int, llc_set_bits: int) -> None:
        geo = pt_geometry(size_bytes, llc_set_bits)
        self.size_bytes = size_bytes
        self.p = geo["p"]
        self.k = llc_set_bits
        self.num_bits = geo["num_bits"]
        self.slots_per_set = geo["slots_per_set"]
        self._index_mask = np.uint64(mask(self.p))
        self._bits = np.zeros(self.num_bits, dtype=bool)

    # ------------------------------------------------------------- indexing
    def index_of(self, block: int) -> int:
        """bits-hash: the low ``p`` bits of the block number."""
        return block & ((1 << self.p) - 1)

    def indices_of(self, blocks: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`index_of`."""
        return (blocks & self._index_mask).astype(np.int64)

    # -------------------------------------------------------------- queries
    def test(self, block: int) -> bool:
        """Is the entry for ``block`` set (i.e. predicted present)?"""
        return bool(self._bits[block & ((1 << self.p) - 1)])

    def test_many(self, blocks: np.ndarray) -> np.ndarray:
        """Vectorized presence test (analysis utilities)."""
        return self._bits[self.indices_of(blocks)]

    # -------------------------------------------------------------- updates
    def set_bit(self, block: int) -> None:
        """Record an LLC fill.  Evictions never clear bits (§III-A)."""
        self._bits[block & ((1 << self.p) - 1)] = True

    def clear(self) -> None:
        self._bits[:] = False

    def load_from_counts(self, counts: np.ndarray) -> None:
        """Recalibrate: replace the bitmap with exact presence information.

        ``counts[i]`` is the number of LLC-resident blocks hashing to entry
        ``i`` (maintained by the recalibration engine's tag mirror).  The
        result is bit-for-bit identical to re-reading every LLC tag through
        the decoder/OR tree of Figure 4.
        """
        if counts.shape != self._bits.shape:
            raise ConfigError(
                f"counts shape {counts.shape} != table shape {self._bits.shape}"
            )
        np.greater(counts, 0, out=self._bits)

    def load_from_blocks(self, blocks) -> None:
        """Recalibrate from an explicit resident-block snapshot (the slow,
        from-first-principles path used by tests to validate the mirror)."""
        self._bits[:] = False
        for block in blocks:
            self._bits[block & ((1 << self.p) - 1)] = True

    # ------------------------------------------------------------- checking
    def verify_against_blocks(self, blocks, index_fn=None) -> list[str]:
        """Compare the bitmap against a from-scratch rebuild from ``blocks``.

        Returns problem descriptions (empty when the table is exactly the
        presence bitmap of ``blocks``).  Checked mode and the property
        tests use this as the recalibration oracle: immediately after a
        sweep the live table must be bit-for-bit identical to re-hashing
        every resident block.  ``index_fn`` overrides the bits-hash (the
        xor ablation indexes differently).
        """
        reference = np.zeros_like(self._bits)
        if index_fn is None:
            index_mask = (1 << self.p) - 1
            for block in blocks:
                reference[block & index_mask] = True
        else:
            for block in blocks:
                reference[index_fn(block)] = True
        mismatch = reference != self._bits
        if not mismatch.any():
            return []
        indices = np.flatnonzero(mismatch)
        extra = int((self._bits & ~reference).sum())
        missing = int((reference & ~self._bits).sum())
        return [
            f"table differs from rebuild of {len(blocks)} blocks at "
            f"{len(indices)} entries (first: {int(indices[0])}; "
            f"{extra} stale-set, {missing} missing)"
        ]

    def is_superset_of_blocks(self, blocks, index_fn=None) -> bool:
        """No-false-negative check: every block's entry must be set.

        Weaker than :meth:`verify_against_blocks` (stale set bits are
        allowed — they are ReDHiP's false positives) and valid at *any*
        point between sweeps, not just right after one.
        """
        if index_fn is None:
            index_mask = (1 << self.p) - 1
            return all(self._bits[block & index_mask] for block in blocks)
        return all(self._bits[index_fn(block)] for block in blocks)

    # ------------------------------------------------------------ telemetry
    @property
    def occupancy(self) -> float:
        """Fraction of bits set — the false-positive-rate proxy."""
        return np.count_nonzero(self._bits) / self._bits.size

    def bits_set(self) -> int:
        return int(self._bits.sum())

    def line_words(self) -> np.ndarray:
        """The packed 64-bit-line view of the table (Figures 4/5).

        Entry ``[s, w]`` is the ``w``-th 64-bit word of the line(s)
        associated with flat index range ``[64*(s*W+w), …)``; tests use this
        to check the set/line correspondence.

        Sub-64-bit tables (``pt_geometry`` deliberately admits degenerate
        sizes for sweep lower bounds) pack to fewer than 8 bytes, which a
        bare ``.view("<u8")`` rejects; the packed buffer is zero-padded to
        a whole word so every legal table yields at least one line word.
        """
        packed = np.packbits(self._bits, bitorder="little")
        if packed.size % 8:
            packed = np.concatenate(
                [packed, np.zeros(8 - packed.size % 8, dtype=np.uint8)]
            )
        return packed.view("<u8").copy()

    def snapshot(self) -> np.ndarray:
        """Copy of the raw bit array (for equivalence tests)."""
        return self._bits.copy()
