"""Event and outcome recording for the two-phase simulation flow.

The content simulator walks the interleaved multi-core trace once and emits:

* an **outcome stream** — for every access: owning core, block number,
  write flag, compute gap, and the level that served it (0 = main memory);
* an **LLC event stream** — chronological fills and evictions of the shared
  LLC, tagged with the index of the access that caused them.

Those two streams are everything a scheme evaluator needs: which structures
a scheme probes is a pure function of the outcome + the predictor's answer,
and every predictor's state (ReDHiP bitmap, CBF counters) is driven solely
by LLC fills/evictions and recalibration snapshots.

Streams are accumulated in Python lists (append is amortized O(1)) and
frozen into NumPy arrays at the end of the walk.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["EVENT_FILL", "EVENT_EVICT", "L1MissView", "OutcomeStream",
           "OutcomeRecorder"]

#: LLC event opcodes.
EVENT_FILL = 1
EVENT_EVICT = 2

#: hit_level value meaning "served by main memory".
MEMORY_LEVEL = 0


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class L1MissView:
    """A stream's L1 misses, in access order: everything a scheme acts on.

    Every scheme decides and charges only at L1 misses (an L1 hit costs
    the L1 delay under every scheme), so the replay kernels and the
    evaluation flows work over these ``k`` misses rather than all ``n``
    accesses.  The arrays are read-only; :attr:`at` maps miss ordinal
    ``j`` back to its access index.
    """

    at: np.ndarray          # intp[k]    access index of each L1 miss
    hit_level: np.ndarray   # int8[k]    2..L, or 0 for memory
    hit_rank: np.ndarray    # int8[k]
    block: np.ndarray       # uint64[k]
    core_gap_sums: np.ndarray  # float64[c] compute gaps per core, c = max core + 1

    def __len__(self) -> int:
        return len(self.at)

    def gap_sums(self, cores: int) -> np.ndarray:
        """Per-core compute-gap sums over *all* accesses, as ``cores``
        entries (a core that issued nothing sums to 0).  They do not
        depend on the scheme, so every evaluation of the stream shares
        them."""
        sums = np.zeros(cores, dtype=np.float64)
        k = min(cores, len(self.core_gap_sums))
        sums[:k] = self.core_gap_sums[:k]
        return sums


@dataclass(frozen=True)
class OutcomeStream:
    """Frozen result of one content-simulation walk."""

    core: np.ndarray        # uint16[n]  owning core of each access
    block: np.ndarray       # uint64[n]  block number (addr >> 6)
    write: np.ndarray       # bool[n]
    gap: np.ndarray         # uint32[n]  non-memory instructions before access
    hit_level: np.ndarray   # int8[n]    1..L, or 0 for memory
    hit_rank: np.ndarray    # int8[n]    LRU rank at the serving level, -1 on miss
    llc_when: np.ndarray    # int64[m]   access index of each LLC event
    llc_op: np.ndarray      # int8[m]    EVENT_FILL / EVENT_EVICT
    llc_block: np.ndarray   # uint64[m]
    num_levels: int
    final_llc_blocks: np.ndarray  # uint64[r] LLC residents after the walk

    @property
    def num_accesses(self) -> int:
        return int(len(self.block))

    @property
    def l1_miss_mask(self) -> np.ndarray:
        """Boolean mask of accesses that missed in L1 (consult the PT)."""
        return self.hit_level != 1

    @cached_property
    def l1_misses(self) -> L1MissView:
        """The cached :class:`L1MissView` — derived on first use, never
        persisted (the stream cache stores only the dataclass fields)."""
        at = np.flatnonzero(self.hit_level != 1)
        return L1MissView(
            at=_frozen(at),
            hit_level=_frozen(self.hit_level[at]),
            hit_rank=_frozen(self.hit_rank[at]),
            block=_frozen(self.block[at]),
            core_gap_sums=_frozen(np.bincount(
                self.core, weights=self.gap.astype(np.float64))),
        )

    def level_lookups(self, level: int) -> int:
        """Demand lookups a conventional (no-prediction) walk performs at
        ``level``: the access reached it iff it missed all shallower levels."""
        if level == 1:
            return self.num_accesses
        reached = (self.hit_level >= level) | (self.hit_level == MEMORY_LEVEL)
        return int(reached.sum())

    def level_hits(self, level: int) -> int:
        return int((self.hit_level == level).sum())

    def fingerprint(self) -> str:
        """Stable content hash of the full outcome + LLC event sequence.

        Identifies a content trajectory per (workload, machine, policy,
        refs, seed, replacement): two walks agree iff their streams are
        byte-identical.  Dtypes and byte order are pinned so the digest is
        reproducible across platforms and sessions; checked mode, the
        golden regression tests and the parallel-equivalence tests all
        compare these.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(np.int64(self.num_levels).tobytes())
        for arr, dtype in (
            (self.core, "<u2"),
            (self.block, "<u8"),
            (self.write, "u1"),
            (self.gap, "<u4"),
            (self.hit_level, "i1"),
            (self.hit_rank, "i1"),
            (self.llc_when, "<i8"),
            (self.llc_op, "i1"),
            (self.llc_block, "<u8"),
            (self.final_llc_blocks, "<u8"),
        ):
            digest.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
        return digest.hexdigest()

    def base_hit_rates(self) -> dict[int, float]:
        """Per-level hit rates of the base case (Figure 9)."""
        rates = {}
        for lvl in range(1, self.num_levels + 1):
            lookups = self.level_lookups(lvl)
            rates[lvl] = self.level_hits(lvl) / lookups if lookups else 0.0
        return rates


class OutcomeRecorder:
    """Accumulates the streams during a content walk and freezes them."""

    def __init__(self, num_levels: int) -> None:
        self.num_levels = num_levels
        self._core: list[int] = []
        self._block: list[int] = []
        self._write: list[bool] = []
        self._gap: list[int] = []
        self._hit_level: list[int] = []
        self._hit_rank: list[int] = []
        self._llc_when: list[int] = []
        self._llc_op: list[int] = []
        self._llc_block: list[int] = []

    # The hierarchy calls these two during fills/evictions of the LLC.
    def llc_fill(self, block: int) -> None:
        self._llc_when.append(len(self._block))
        self._llc_op.append(EVENT_FILL)
        self._llc_block.append(block)

    def llc_evict(self, block: int) -> None:
        self._llc_when.append(len(self._block))
        self._llc_op.append(EVENT_EVICT)
        self._llc_block.append(block)

    def record(self, core: int, block: int, write: bool, gap: int,
               hit_level: int, hit_rank: int = -1) -> None:
        """Record the outcome of one access (called once per access)."""
        self._core.append(core)
        self._block.append(block)
        self._write.append(write)
        self._gap.append(gap)
        self._hit_level.append(hit_level)
        self._hit_rank.append(hit_rank)

    def freeze(self, final_llc_blocks) -> OutcomeStream:
        """Convert the accumulated lists into a frozen stream."""
        return OutcomeStream(
            core=np.asarray(self._core, dtype=np.uint16),
            block=np.asarray(self._block, dtype=np.uint64),
            write=np.asarray(self._write, dtype=bool),
            gap=np.asarray(self._gap, dtype=np.uint32),
            hit_level=np.asarray(self._hit_level, dtype=np.int8),
            hit_rank=np.asarray(self._hit_rank, dtype=np.int8),
            llc_when=np.asarray(self._llc_when, dtype=np.int64),
            llc_op=np.asarray(self._llc_op, dtype=np.int8),
            llc_block=np.asarray(self._llc_block, dtype=np.uint64),
            num_levels=self.num_levels,
            final_llc_blocks=np.asarray(sorted(final_llc_blocks), dtype=np.uint64),
        )
