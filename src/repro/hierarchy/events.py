"""Event and outcome recording for the two-phase simulation flow.

The content simulator walks the interleaved multi-core trace once.  Both
walk implementations record, for every access, the owning core, block
number, write flag, compute gap, and the level that served it (0 = main
memory), plus the **LLC event stream** — chronological fills and
evictions of the shared LLC, tagged with the index of the access that
caused them.  That per-access :class:`AccessRecord` is what the content
fingerprint digests and what checked mode diffs between the two walks.

Every scheme decides and charges only at L1 misses (an L1 hit costs the
L1 delay under every scheme), so the walk then reduces the record to an
:class:`OutcomeStream`: the L1 misses, per-core totals, the LLC events
and the final LLC contents.  That reduced record is everything an
evaluator needs — which structures a scheme probes is a pure function of
the outcome + the predictor's answer, and every predictor's state
(ReDHiP bitmap, CBF counters) is driven solely by LLC fills/evictions and
recalibration snapshots.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["EVENT_FILL", "EVENT_EVICT", "RECORD_FIELDS", "AccessRecord",
           "OutcomeStream", "OutcomeRecorder"]

#: LLC event opcodes.
EVENT_FILL = 1
EVENT_EVICT = 2

#: hit_level value meaning "served by main memory".
MEMORY_LEVEL = 0

#: The arrays an :class:`OutcomeStream` persists, with their pinned
#: on-disk dtypes, in the order :meth:`OutcomeStream.record_digest`
#: hashes them.
RECORD_FIELDS = (
    ("at", "<i8"),
    ("hit_level", "i1"),
    ("hit_rank", "i1"),
    ("block", "<u8"),
    ("pc", "<u8"),
    ("core", "<u2"),
    ("local", "<i8"),
    ("core_accesses", "<i8"),
    ("core_gap_sums", "<f8"),
    ("cpis", "<f8"),
    ("llc_when", "<i8"),
    ("llc_op", "i1"),
    ("llc_block", "<u8"),
    ("final_llc_blocks", "<u8"),
)

#: The per-access fields the content fingerprint digests, pinned dtypes.
_ACCESS_FIELDS = (
    ("core", "<u2"),
    ("block", "<u8"),
    ("write", "u1"),
    ("gap", "<u4"),
    ("hit_level", "i1"),
    ("hit_rank", "i1"),
    ("llc_when", "<i8"),
    ("llc_op", "i1"),
    ("llc_block", "<u8"),
    ("final_llc_blocks", "<u8"),
)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class AccessRecord:
    """Per-access result of one content walk, before reduction.

    Both walks produce this; checked mode compares two of them array by
    array, and :meth:`fingerprint` digests it.  Nothing downstream of the
    walk reads it: :meth:`reduce` turns it into the :class:`OutcomeStream`
    every evaluator consumes.
    """

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

    def fingerprint(self) -> str:
        """Stable content hash of the full outcome + LLC event sequence.

        Identifies a content trajectory per (workload, machine, policy,
        refs, seed, replacement): two walks agree iff their records are
        byte-identical.  Dtypes and byte order are pinned so the digest is
        reproducible across platforms and sessions; checked mode, the
        golden regression tests and the parallel-equivalence tests all
        compare these (through :meth:`OutcomeStream.fingerprint`).
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(np.int64(self.num_levels).tobytes())
        for name, dtype in _ACCESS_FIELDS:
            digest.update(
                np.ascontiguousarray(getattr(self, name), dtype=dtype).tobytes())
        return digest.hexdigest()

    def reduce(self, cpis: np.ndarray,
               origin: "Callable[[np.ndarray], tuple]") -> "OutcomeStream":
        """The L1-miss record of this walk.

        ``cpis`` holds one CPI per core (its length is the core count).
        ``origin(at)`` returns, for the access indices ``at``, each
        access's program counter and its index among its own core's
        accesses — what the workload's merge order knows.  The
        fingerprint is computed here, over the full arrays, and carried
        by the stream.
        """
        cpis = np.asarray(cpis, dtype=np.float64)
        cores = len(cpis)
        at = np.flatnonzero(self.hit_level != 1)
        pc, local = origin(at)
        return OutcomeStream(
            at=_frozen(at.astype(np.int64, copy=False)),
            hit_level=_frozen(self.hit_level[at]),
            hit_rank=_frozen(self.hit_rank[at]),
            block=_frozen(self.block[at]),
            pc=_frozen(np.asarray(pc, dtype=np.uint64)),
            core=_frozen(self.core[at].astype(np.uint16)),
            local=_frozen(np.asarray(local, dtype=np.int64)),
            core_accesses=_frozen(
                np.bincount(self.core, minlength=cores).astype(np.int64, copy=False)),
            core_gap_sums=_frozen(np.bincount(
                self.core, weights=self.gap.astype(np.float64),
                minlength=cores)),
            cpis=_frozen(cpis),
            llc_when=_frozen(self.llc_when),
            llc_op=_frozen(self.llc_op),
            llc_block=_frozen(self.llc_block),
            num_levels=self.num_levels,
            final_llc_blocks=_frozen(self.final_llc_blocks),
            content_fingerprint=self.fingerprint(),
        )


@dataclass(frozen=True, eq=False)
class OutcomeStream:
    """The L1-miss record of one content walk: everything a scheme reads.

    Every scheme decides and charges only at L1 misses, so the replay
    kernels and the evaluation flows work over these ``k`` misses (in
    access order) rather than all ``n`` accesses; an L1 hit costs the L1
    delay and nothing else.  Per core the record keeps the totals the
    timing fold needs.  This is also exactly what the stream cache
    persists (:data:`RECORD_FIELDS`).
    """

    at: np.ndarray          # int64[k]   access index of each L1 miss
    hit_level: np.ndarray   # int8[k]    2..L, or 0 for memory
    hit_rank: np.ndarray    # int8[k]    LRU rank at the serving level, -1 on miss
    block: np.ndarray       # uint64[k]
    pc: np.ndarray          # uint64[k]  program counter of the access
    core: np.ndarray        # uint16[k]  owning core
    local: np.ndarray       # int64[k]   index among its core's accesses
    core_accesses: np.ndarray  # int64[c]   accesses per core
    core_gap_sums: np.ndarray  # float64[c] compute gaps per core
    cpis: np.ndarray        # float64[c]  application CPI per core
    llc_when: np.ndarray    # int64[m]   access index of each LLC event
    llc_op: np.ndarray      # int8[m]    EVENT_FILL / EVENT_EVICT
    llc_block: np.ndarray   # uint64[m]
    num_levels: int
    final_llc_blocks: np.ndarray  # uint64[r] LLC residents after the walk
    content_fingerprint: str      # AccessRecord.fingerprint() of the walk

    @property
    def num_accesses(self) -> int:
        return int(self.core_accesses.sum())

    @property
    def num_misses(self) -> int:
        return len(self.at)

    def fingerprint(self) -> str:
        """The content fingerprint of the full walk this record reduces
        (:meth:`AccessRecord.fingerprint`), fixed at walk time."""
        return self.content_fingerprint

    def record_digest(self) -> str:
        """Hash of exactly what the stream cache persists: every
        :data:`RECORD_FIELDS` array (with its length), the level count
        and the content fingerprint.  A loaded entry must reproduce the
        digest stored beside it."""
        digest = hashlib.blake2b(digest_size=16)
        digest.update(np.int64(self.num_levels).tobytes())
        digest.update(self.content_fingerprint.encode())
        for name, dtype in RECORD_FIELDS:
            arr = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            digest.update(np.int64(len(arr)).tobytes())
            digest.update(arr)      # the contiguous buffer itself, no copy
        return digest.hexdigest()

    def level_lookups(self, level: int) -> int:
        """Demand lookups a conventional (no-prediction) walk performs at
        ``level``: the access reached it iff it missed all shallower levels."""
        if level == 1:
            return self.num_accesses
        h = self.hit_level
        return int(np.count_nonzero((h >= level) | (h == MEMORY_LEVEL)))

    def level_hits(self, level: int) -> int:
        if level == 1:
            return self.num_accesses - self.num_misses
        return int(np.count_nonzero(self.hit_level == level))

    def base_hit_rates(self) -> dict[int, float]:
        """Per-level hit rates of the base case (Figure 9)."""
        rates = {}
        for lvl in range(1, self.num_levels + 1):
            lookups = self.level_lookups(lvl)
            rates[lvl] = self.level_hits(lvl) / lookups if lookups else 0.0
        return rates


class OutcomeRecorder:
    """Accumulates one walk's per-access record and freezes it."""

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

    def freeze(self, final_llc_blocks) -> AccessRecord:
        """Convert the accumulated lists into a frozen record."""
        return AccessRecord(
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
