"""Vectorized content walk: set-bucketed, chunk-batched inclusive replay.

:class:`repro.sim.content.ContentSimulator` walks the merged multi-core
trace one reference at a time — a Python method call plus six list appends
per access.  For the paper-default configuration (inclusive policy, LRU
replacement, no coherence) that walk decomposes exactly, because of how
set indexing works:

* **Set-partition independence.**  Every level indexes sets with the low
  bits of the block number (Figure 3), and every ``num_sets`` is a power
  of two, so the *smallest* level's set mask is a submask of every other
  level's.  Partition the accesses by ``block & (min_num_sets - 1)`` and
  two accesses in different partitions touch different sets at *every*
  level — including the shared LLC, whose back-invalidations therefore
  never cross partitions either.  Each partition is an independent
  sequential sub-walk; any processing order that preserves per-partition
  order yields identical per-set LRU states, identical outcomes and
  identical events.

* **Vectorized intra-set conflict resolution.**  One stable sort of each
  chunk by ``(partition, core)`` (a radix sort on the narrow group key)
  keeps every group in access order.  Consider an access whose *previous
  access by the same core in the same partition* touched the same block.
  That predecessor left the block at rank 0 of the core's L1 set, the
  core itself issued nothing in the partition since, and no access
  *outside* the partition can reach that set — so the access is an L1
  MRU hit with exactly one exception: an intervening same-partition
  access by another core may have evicted the block from the shared LLC,
  whose inclusion back-invalidation kills the L1 copy.  The candidates
  (the bulk of any workload with locality — spatial runs, hot sets,
  duplicated-trace round-robin interleaving) are resolved with array ops
  and never enter the Python loop; a per-``(partition, core)`` carry
  extends the test across chunk boundaries.

* **Residual replay in access order.**  The remaining accesses replay in
  global access order (it preserves every partition's order) through an
  inlined per-set LRU — one MRU-first list per set, indexed by set
  number — identical in effect to
  :meth:`CacheHierarchy._access_inclusive`, minus dirty-bit bookkeeping,
  which provably never influences the outcome stream.

* **Eviction-hazard repair.**  The replay tracks the hot block of every
  ``(partition, core)`` pair.  When an LLC eviction's back-invalidation
  sweep removes a pair's hot block from that core's L1 (a *hazard*), the
  pair's next access in the chunk is looked up by binary search in the
  group's slice of the sorted order.  If it is still a candidate it is
  *demoted*: pushed on a heap keyed by its chunk-local index and replayed
  at its place in access order, as the memory miss it really is, and its
  candidate flag is cleared so it is demoted at most once.  If the pair
  has no later access in the chunk, the cross-chunk carry is invalidated
  instead.  Hazards are load-bearing: they make the optimistic skip
  *exact* rather than approximate.

* **Lockstep regime.**  A core's private levels see only its own
  accesses; cores couple only through the LLC's hit-or-miss answer
  (which fills the private levels identically either way) and its
  back-invalidations.  Until an LLC eviction finds its victim in an
  owner's private levels — a *live victim*; per-core inclusion means it
  suffices to look in the deepest one — each core's private outcomes
  are a function of its own block sequence.  XOR by a constant keeps
  set equality and tag identity at every level, so cores whose
  sequences agree up to one constant (one SPEC copy per core, as in
  §IV) form a *class*, found once by a vectorized XOR test, and each
  class walks its private levels once as a *template*: the candidate
  rule plus a residual loop without the LLC (:class:`_Template`).  The
  accesses that reach the LLC then replay in global order — in closed
  form while no LLC set has overflowed (:class:`_ColdLLC`: a miss is a
  block's first request, a hit's rank counts the set's other blocks
  since its previous one), then in a scalar loop that checks every
  eviction's plausible owners against their template's residency by one
  bisect.  At the first live victim the exact loop above takes over at
  that very access, each core's private state materialized from its
  class's snapshot (:class:`_Lockstep`).  Once the fullest LLC set has
  at most two free ways, the regime takes batches of
  ``_LIVE_BATCH`` references instead of whole chunks, so the switch
  wastes at most a batch of template walking.  Live victims come late: at
  20k refs/core on ``scaled`` only GemsFDTD (1, at 96 % of the walk),
  mcf (14, from 49 %) and soplex (18, from 60 %) of Figure 6's eleven
  workloads meet any; at 80k they start at 12–87 % of the walk, 0–2600
  per walk (lbm never evicts from its LLC).

The replay records only the LLC evictions.  Every memory miss fills the
LLC exactly once, at its own access, so the fills are derived from the
outcomes after the walk and merged with the evictions by one sort on
``(access index, fill before evict)``.  The resulting
:class:`AccessRecord` is *byte-identical* to the sequential walk's —
``tests/test_vector_content.py`` fuzzes this over random geometries,
families and chunk sizes, and checked mode asserts it on every run.

``REPRO_NO_VECTOR_WALK=1`` forces the sequential path everywhere
(mirroring ``REPRO_NO_VECTOR_REPLAY``); :func:`eligible` gates the other
policies/replacements onto the sequential path automatically.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from heapq import heappop, heappush
from itertools import chain

import numpy as np

from repro import checking
from repro.energy.params import BLOCK_BITS
from repro.hierarchy.events import EVENT_EVICT, EVENT_FILL, AccessRecord
from repro.hierarchy.inclusion import InclusionPolicy
from repro.sim.config import SimConfig
from repro.util.validation import ConfigError
from repro.workloads.shared import merge_order
from repro.workloads.trace import Trace, Workload

__all__ = [
    "NO_VECTOR_WALK_ENV",
    "assert_streams_equal",
    "eligible",
    "vector_walk_disabled",
    "walk_vectorized",
]

#: Escape hatch: force the sequential content walk everywhere.
NO_VECTOR_WALK_ENV = "REPRO_NO_VECTOR_WALK"

_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Lockstep batch, in references, once the LLC nears its first eviction
#: (an eighth of the default stream chunk).
_LIVE_BATCH = 8192

#: Record fields compared by the dual-path equivalence assertion, in the
#: order divergences are reported (per-access fields first).
_STREAM_FIELDS = (
    "core", "block", "write", "gap", "hit_level", "hit_rank",
    "llc_when", "llc_op", "llc_block", "final_llc_blocks",
)


def vector_walk_disabled() -> bool:
    """Has the environment vetoed the vectorized walk?"""
    return os.environ.get(NO_VECTOR_WALK_ENV, "").strip().lower() in _TRUTHY


def eligible(config: SimConfig) -> bool:
    """Can this configuration take the set-bucketed walk?

    Exactly the paper-default content model: inclusive policy, true-LRU
    replacement, no coherence protocol (write-invalidate snooping reaches
    across cores *within* a set partition in ways the batched carry does
    not model).  Power-of-two set counts are guaranteed by the machine
    validators but re-checked here because partition independence is
    soundness, not performance.
    """
    if config.policy is not InclusionPolicy.INCLUSIVE:
        return False
    if config.replacement != "lru":
        return False
    if config.coherent:
        return False
    return all(
        lvl.num_sets > 0 and lvl.num_sets & (lvl.num_sets - 1) == 0
        for lvl in config.machine.levels
    )


class _Geometry:
    """One machine's set masks and associativities, as the loops use them.

    Index ``lv`` of ``masks``/``assocs`` is private level ``lv + 1``; the
    LLC is separate.  ``pmask`` is the smallest level's set mask, the
    partition key of the candidate rule.
    """

    def __init__(self, machine) -> None:
        self.num_levels = machine.num_levels
        self.ncores = machine.cores
        self.masks = [machine.level(lv).num_sets - 1
                      for lv in range(1, self.num_levels)]
        self.assocs = [machine.level(lv).assoc
                       for lv in range(1, self.num_levels)]
        self.llc_mask = machine.llc.num_sets - 1
        self.llc_assoc = machine.llc.assoc
        self.pmask = min(lvl.num_sets for lvl in machine.levels) - 1
        self.nparts = self.pmask + 1
        # Sort keys at their narrowest width: for 8- and 16-bit keys
        # (every registry machine) NumPy's stable sort is a radix sort.
        self.part_dtype = np.min_scalar_type(self.pmask)


def _fill_chains(geo: _Geometry, sets: list) -> tuple:
    """Per fill start, the private levels to fill (deepest first) with
    the levels above each one, for one core's ``sets`` (private levels,
    L1 first).  Start ``s`` skips the ``s`` deepest levels — an access
    that hit level ``lv`` starts at ``num_levels - lv``; an access that
    reached the LLC starts at 0.  Same notification order as the
    sequential hierarchy: each level's victim is swept from the levels
    above it, top-down from the fill level."""
    above = [[(sets[lv2], geo.masks[lv2]) for lv2 in range(lv - 1, -1, -1)]
             for lv in range(geo.num_levels - 1)]
    fill = [(sets[lv], geo.masks[lv], geo.assocs[lv], above[lv])
            for lv in range(geo.num_levels - 2, -1, -1)]
    return tuple(tuple(fill[s:]) for s in range(geo.num_levels))


def _group_repeats(key: np.ndarray, block: np.ndarray,
                   carry_block: np.ndarray, carry_valid: np.ndarray):
    """The candidate rule over one batch, in ``key`` grouping.

    An access is a candidate when the previous access of its group (in
    the batch, or the group's carry from earlier batches) touched the
    same block.  Advances the carry to the batch's group tails and
    returns ``(cand, order, sorted_keys)``: the candidate mask in batch
    order and the stable grouping the hazard lookup searches.
    """
    m = len(key)
    order = np.argsort(key, kind="stable")
    k2 = key[order]
    b2 = block[order]
    same_group = np.empty(m, dtype=bool)
    same_group[0] = False
    np.equal(k2[1:], k2[:-1], out=same_group[1:])
    cand2 = np.zeros(m, dtype=bool)
    cand2[1:] = same_group[1:] & (b2[1:] == b2[:-1])
    first = ~same_group
    fk = k2[first]
    cand2[first] = carry_valid[fk] & (carry_block[fk] == b2[first])
    last = np.empty(m, dtype=bool)
    last[-1] = True
    np.not_equal(k2[1:], k2[:-1], out=last[:-1])
    lk = k2[last]
    carry_block[lk] = b2[last]
    carry_valid[lk] = True
    cand = np.empty(m, dtype=bool)
    cand[order] = cand2
    return cand, order, k2


class _Template:
    """The private levels L1..L-1 of one class of cores, walked once.

    The state is in the class leader's block coordinates; member ``c``
    holds every block XOR its constant.  ``level``/``rank`` receive the
    private outcome of every rank walked (level 0: the access reaches
    the LLC) and ``scalar`` whether the residual loop resolved it.

    A block enters the deepest private level exactly at the ranks whose
    access reaches the LLC, so only the level's victims are recorded
    (``victims``: rank and block).  :meth:`resident` indexes both, per
    block, the first time it is asked.
    """

    def __init__(self, geo: _Geometry, trace: Trace, level: np.ndarray,
                 rank: np.ndarray, scalar: np.ndarray) -> None:
        self.geo = geo
        self.trace = trace
        self.level = level
        self.rank = rank
        self.scalar = scalar
        # Deepest-level victims by rank; None in snapshots.
        self.victims: "tuple[list, list] | None" = ([], [])
        # Per block, the ranks it entered and left the deepest level,
        # alternately — indexed up to rank ``logged`` on demand.
        self.log: dict = {}
        self.logged = 0
        self.pos = 0
        self.sets = [[[] for _ in range(mask + 1)] for mask in geo.masks]
        self.carry_block = np.zeros(geo.nparts, dtype=np.uint64)
        self.carry_valid = np.zeros(geo.nparts, dtype=bool)
        self.fill_from: "tuple | None" = None   # built on the first walk

    def copy(self) -> "_Template":
        """A snapshot: same outcome arrays, private state copied, no
        victim record (re-walking from a snapshot rewrites identical
        outcomes)."""
        twin = object.__new__(_Template)
        twin.__dict__.update(self.__dict__)
        twin.victims = None
        twin.log = {}
        twin.sets = [[lst[:] for lst in lvl] for lvl in self.sets]
        twin.carry_block = self.carry_block.copy()
        twin.carry_valid = self.carry_valid.copy()
        twin.fill_from = None
        return twin

    def walk_to(self, hi: int) -> int:
        """Walk ranks ``pos..hi-1``; returns how many were walked."""
        lo = self.pos
        if hi <= lo:
            return 0
        self.pos = hi
        geo = self.geo
        tb = self.trace.addr[lo:hi] >> np.uint64(BLOCK_BITS)   # its blocks
        key = (tb & np.uint64(geo.pmask)).astype(geo.part_dtype)
        cand, _, _ = _group_repeats(key, tb, self.carry_block, self.carry_valid)
        level = self.level[lo:hi]
        rank = self.rank[lo:hi]
        level[cand] = 1
        rank[cand] = 0
        np.logical_not(cand, out=self.scalar[lo:hi])
        res = np.flatnonzero(~cand)
        hl: list[int] = []
        hr: list[int] = []
        hl_app, hr_app = hl.append, hr.append
        l1 = self.sets[0]
        l1_mask = geo.masks[0]
        num_levels = geo.num_levels
        deeper = [(self.sets[lv], geo.masks[lv], lv + 1)
                  for lv in range(1, num_levels - 1)]
        if self.fill_from is None:
            self.fill_from = _fill_chains(geo, self.sets)
        fill_from = self.fill_from
        deep_sets, deep_mask, deep_assoc, deep_above = fill_from[0][0]
        if self.victims is None:
            vr_app = vb_app = None
        else:
            vr_app, vb_app = (v.append for v in self.victims)
        for j, b in zip((res + lo).tolist(), tb[res].tolist()):
            lst = l1[b & l1_mask]
            if b in lst:
                if lst[0] == b:
                    hl_app(1)
                    hr_app(0)
                else:
                    r = lst.index(b)
                    del lst[r]
                    lst.insert(0, b)
                    hl_app(1)
                    hr_app(r)
                continue
            for sets, mask, lvl in deeper:
                lst2 = sets[b & mask]
                if b in lst2:
                    if lst2[0] == b:
                        r = 0
                    else:
                        r = lst2.index(b)
                        del lst2[r]
                        lst2.insert(0, b)
                    hl_app(lvl)
                    hr_app(r)
                    chain = fill_from[num_levels - lvl]
                    break
            else:
                # Reaches the LLC.  Whether it hits there or in memory,
                # the private levels fill the same way; the deepest
                # one's victim is recorded.
                hl_app(0)
                hr_app(-1)
                lst2 = deep_sets[b & deep_mask]
                lst2.insert(0, b)
                if len(lst2) > deep_assoc:
                    vb = lst2.pop()
                    if vr_app is not None:
                        vr_app(j)
                        vb_app(vb)
                    for l3, mask2 in deep_above:
                        l4 = l3[vb & mask2]
                        if vb in l4:
                            l4.remove(vb)
                        else:
                            break  # inclusive: absent => absent above
                chain = fill_from[1]
            for dd, mask, assoc, above in chain:
                lst2 = dd[b & mask]
                lst2.insert(0, b)
                if len(lst2) > assoc:
                    vb = lst2.pop()
                    for l3, mask2 in above:
                        l4 = l3[vb & mask2]
                        if vb in l4:
                            l4.remove(vb)
                        else:
                            break
        if len(res):
            level[res] = hl
            rank[res] = hr
        return hi - lo

    def resident(self, block: int, k: int) -> bool:
        """Was ``block`` in the deepest private level before rank ``k``?
        (``k`` at most :attr:`pos`.)"""
        if self.logged < self.pos:
            self._index()
        ev = self.log.get(block)
        return ev is not None and bisect_left(ev, k) & 1 == 1

    def _index(self) -> None:
        """Extend :attr:`log` over ranks ``logged..pos-1``: the fills
        (accesses that reached the LLC) merged with the victims by rank
        (one rank never fills and evicts the same block)."""
        lo, hi = self.logged, self.pos
        fills = np.flatnonzero(self.level[lo:hi] == 0) + lo
        ranks, blocks = self.victims
        first = bisect_left(ranks, lo)
        at = np.concatenate((fills, np.asarray(ranks[first:], dtype=np.int64)))
        blk = np.concatenate((
            self.trace.addr[fills] >> np.uint64(BLOCK_BITS),
            np.asarray(blocks[first:], dtype=np.uint64)))
        order = np.argsort(at, kind="stable")
        log = self.log
        for j, b in zip(at[order].tolist(), blk[order].tolist()):
            ev = log.get(b)
            if ev is None:
                log[b] = [j]
            else:
                ev.append(j)
        self.logged = hi

    def translated(self, xor: int) -> list:
        """The private state as a member with constant ``xor`` holds it:
        every block XOR ``xor``, every set index permuted to match."""
        out = []
        for mask, lvl in zip(self.geo.masks, self.sets):
            dm = xor & mask
            sets = [None] * (mask + 1)
            for s, lst in enumerate(lvl):
                sets[s ^ dm] = [b ^ xor for b in lst]
            out.append(sets)
        return out


def _group_blocks(blocks: np.ndarray):
    """Group a request sequence by block (``np.unique`` with every
    output, without its stable sort of 64-bit keys).

    Returns ``(uniq, ids, starts, key)``: the distinct blocks in order,
    each request's index into them, and the requests sorted by (block,
    time) as keys ``id * n + time``, whose run of block ``k`` starts at
    ``starts[k]``.
    """
    n = len(blocks)
    order = np.argsort(blocks)
    sb = blocks[order]
    new = np.empty(n, dtype=bool)
    new[:1] = True
    np.not_equal(sb[1:], sb[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    run = np.cumsum(new) - 1
    # The keys are unique, so an unstable sort puts each block's
    # requests in time order.
    key = np.sort(run * n + order)
    ids = np.empty(n, dtype=np.int64)
    ids[key % n] = run
    return sb[starts], ids, starts, key


class _ColdLLC:
    """The shared LLC before its first eviction, as dense per-set tables.

    Until some set receives its ``assoc + 1``-th distinct block nothing
    is evicted, so a request is a memory miss iff it is its block's
    first, and a hit's LRU rank is the number of other blocks of its set
    requested since the block's previous request.  The tables keep each
    set's blocks (in arrival order), their last request and their owner
    masks, so a batch of requests costs the same whatever came before.
    """

    def __init__(self, geo: _Geometry) -> None:
        shape = (geo.llc_mask + 1, geo.llc_assoc)
        self.geo = geo
        self.block = np.zeros(shape, dtype=np.uint64)
        self.last = np.full(shape, -1, dtype=np.int64)   # global index
        self.owner = np.zeros(shape, dtype=np.uint64)
        self.count = np.zeros(shape[0], dtype=np.int64)

    def fullest(self) -> int:
        """Blocks in the fullest set."""
        return int(self.count.max())

    def batch(self, when: np.ndarray, blocks: np.ndarray,
              cores: np.ndarray) -> "tuple[int, np.ndarray, np.ndarray]":
        """Resolve the requests (``when``: their global indices, in
        order) up to the first one that overflows a set, and fold those
        into the tables.  Returns ``(stop, level, rank)``: the outcomes of
        the first ``stop`` requests."""
        geo = self.geo
        assoc = geo.llc_assoc
        n = len(blocks)
        if not n:
            return 0, np.empty(0, dtype=np.int8), np.empty(0, dtype=np.int8)
        uniq, ids, starts, key = _group_blocks(blocks)
        by_block = key % n                   # requests by (block, time)
        first = by_block[starts]
        sets = (uniq & np.uint64(geo.llc_mask)).astype(np.int64)
        ways = np.arange(assoc)
        match = ((self.block[sets] == uniq[:, None])
                 & (ways < self.count[sets][:, None]))
        known = match.any(axis=1)
        way = match.argmax(axis=1)
        # New blocks take their set's next free ways in order of first
        # request; the first one to find none overflows the set.
        new = np.flatnonzero(~known)
        new = new[np.argsort(sets[new] * n + first[new])]
        new_sets = sets[new]
        slot = (self.count[new_sets] + np.arange(len(new))
                - np.searchsorted(new_sets, new_sets))
        over = slot >= assoc
        stop = int(first[new][over].min()) if over.any() else n

        req = np.arange(stop)
        hit = (first[ids[:stop]] != req) | known[ids[:stop]]
        level = np.where(hit, geo.num_levels, 0).astype(np.int8)
        rank = np.full(stop, -1, dtype=np.int8)
        hits = np.flatnonzero(hit)
        if len(hits):
            u = ids[hits]
            hs = sets[u]
            # Previous request in (block, time) order; a block's first
            # request in the batch takes its tabled last request instead.
            prev = np.zeros(n, dtype=np.int64)
            prev[by_block[1:]] = by_block[:-1]
            since = np.where(first[u] == hits, self.last[hs, way[u]],
                             when[prev[hits]])
            # Candidates: the set's tabled blocks, then its new ones.  A
            # candidate's last request before the hit is its latest one
            # in the batch, else its tabled one.
            tab_id = np.full(self.block.shape, -1, dtype=np.int64)
            tab_id[sets[known], way[known]] = np.flatnonzero(known)
            g0 = np.searchsorted(new_sets, hs)
            cols = g0[:, None] + ways
            in_set = cols < np.searchsorted(new_sets, hs, side="right")[:, None]
            new_id = (np.where(in_set, new[np.minimum(cols, len(new) - 1)], -1)
                      if len(new) else np.full(cols.shape, -1))
            cand = np.concatenate((tab_id[hs], new_id), axis=1)
            tabled = np.where(ways < self.count[hs][:, None], self.last[hs], -1)
            latest = np.concatenate((tabled, np.full(cols.shape, -1)), axis=1)
            pos = np.searchsorted(key, cand * n + hits[:, None])
            before = key[np.maximum(pos - 1, 0)]
            in_batch = (cand >= 0) & (pos > 0) & (before // n == cand)
            latest = np.where(in_batch, when[before % n], latest)
            # The hit's own block last came at ``since``: never counted.
            rank[hits] = np.count_nonzero(latest > since[:, None], axis=1)

        # Fold the resolved requests in: each block's last request and
        # owners before ``stop``.
        resolved = by_block < stop
        last_req = np.maximum.reduceat(np.where(resolved, by_block, -1),
                                       starts)
        bits = np.where(resolved, np.left_shift(
            np.uint64(1), cores[by_block].astype(np.uint64)), np.uint64(0))
        own = np.bitwise_or.reduceat(bits, starts)
        old = np.flatnonzero(known & (last_req >= 0))
        self.last[sets[old], way[old]] = when[last_req[old]]
        self.owner[sets[old], way[old]] |= own[old]
        arrived = first[new] < stop          # so its slot is free
        add, add_sets, add_slot = new[arrived], new_sets[arrived], slot[arrived]
        self.block[add_sets, add_slot] = uniq[add]
        self.last[add_sets, add_slot] = when[last_req[add]]
        self.owner[add_sets, add_slot] = own[add]
        self.count += np.bincount(add_sets, minlength=len(self.count))
        return stop, level, rank

    def materialize(self, llc_sets: list, owners: dict) -> None:
        """Hand the contents to the scalar loop: each set MRU-first."""
        used = np.arange(self.geo.llc_assoc) < self.count[:, None]
        order = np.argsort(np.where(used, -self.last, 1), axis=1)
        rows = np.take_along_axis(self.block, order, axis=1).tolist()
        for s, k in enumerate(self.count.tolist()):
            llc_sets[s] = rows[s][:k]
        owners.update(zip(self.block[used].tolist(),
                          self.owner[used].tolist()))

    def contents(self) -> np.ndarray:
        """Every block held, sorted."""
        return np.sort(self.block[np.arange(self.geo.llc_assoc)
                                  < self.count[:, None]])


def _classes(workload: Workload) -> "tuple[list, list, list]":
    """Partition the cores into classes of XOR-equivalent traces.

    Core ``c`` joins the class of the first earlier core ``l`` (its
    leader) whose block sequence XOR one constant equals ``c``'s.
    Returns ``(leaders, cls, xor)``: ``leaders[k]`` leads class ``k``,
    core ``c`` is in class ``cls[c]``, and ``xor[c]`` maps the leader's
    blocks to ``c``'s.
    """
    traces = workload.traces
    leaders: list[int] = []
    cls: list[int] = []
    xor: list[int] = []
    for c, tc in enumerate(traces):
        for k, lead in enumerate(leaders):
            tl = traces[lead]
            if tl.num_refs != tc.num_refs:
                continue
            # A short prefix rejects unrelated traces before the full
            # comparison builds both block arrays.
            head = tc.head(64).blocks ^ tl.head(64).blocks
            if not np.all(head == head[:1]):
                continue
            d = head[:1]
            if np.array_equal(tl.blocks ^ d, tc.blocks):
                cls.append(k)
                xor.append(int(d[0]) if len(d) else 0)
                break
        else:
            cls.append(len(leaders))
            xor.append(0)
            leaders.append(c)
    return leaders, cls, xor


class _State:
    """The walk's shared state: the cache contents, the outcome arrays
    and the LLC evictions, plus what the exact loop carries from chunk
    to chunk.  ``priv`` stays ``None`` until the exact loop takes over
    (the lockstep regime keeps private state per class, not per core).
    """

    def __init__(self, geo: _Geometry, n: int) -> None:
        self.geo = geo
        self.priv: "list | None" = None     # priv[lv][c][set] -> MRU-first
        self.llc_sets: list[list[int]] = [[] for _ in range(geo.llc_mask + 1)]
        # Owner bitmask per LLC-resident block: a conservative superset
        # of the cores whose private caches may hold it.  Set on LLC fill
        # (sole owner) and LLC hit (new sharer); private hits imply the
        # bit is already set, and the whole entry dies with the LLC
        # eviction — inclusion guarantees no private copy survives that.
        # Lets the eviction sweep probe only plausible cores.
        self.owners: dict = {}
        self.hit_level = np.empty(n, dtype=np.int8)
        self.hit_rank = np.empty(n, dtype=np.int8)
        ngroups = geo.nparts * geo.ncores     # (partition, core) pairs
        # Cross-chunk carry per (partition, core): block of the pair's
        # last access, provided no LLC eviction has killed its L1 copy
        # since.
        self.carry_block = np.zeros(ngroups, dtype=np.uint64)
        self.carry_valid = np.zeros(ngroups, dtype=bool)
        # Hot block per pair, maintained by the residual replay
        # (candidates by construction never change it).  -1 = no access.
        self.hot: list[int] = [-1] * ngroups
        # LLC evictions (when = global index of the causing access); the
        # fills are derived from the outcomes after the walk.
        self.ev_when: list[int] = []
        self.ev_block: list[int] = []
        self.skipped = 0
        self.demoted = 0
        self.hazards = 0


class _Lockstep:
    """The lockstep regime: templates, then the shared LLC, per batch.

    Until the first live inclusion victim, a core's private outcomes
    depend on its own block sequence alone (see the module docstring),
    so each class of XOR-equivalent cores walks its private levels once,
    as a template, and only the accesses that reach the LLC are replayed
    in global order.  :meth:`batch` stops at the first live victim;
    :meth:`materialize` then hands every core's private state to the
    exact loop.
    """

    def __init__(self, st: _State, workload: Workload) -> None:
        geo = st.geo
        self.st = st
        self.geo = geo
        leaders, self.cls, self.xor = _classes(workload)
        ncores = geo.ncores
        offs = np.zeros(len(leaders) + 1, dtype=np.int64)
        np.cumsum([workload.traces[lead].num_refs for lead in leaders],
                  out=offs[1:])
        # Every template's outcomes, flat: class k's rank j is at
        # offs[k] + j.
        self.level = np.empty(int(offs[-1]), dtype=np.int8)
        self.rank = np.empty(int(offs[-1]), dtype=np.int8)
        self.scalar = np.empty(int(offs[-1]), dtype=bool)
        self.templates = [
            _Template(geo, workload.traces[lead],
                      *(a[offs[k]:offs[k + 1]]
                        for a in (self.level, self.rank, self.scalar)))
            for k, lead in enumerate(leaders)
        ]
        # Per class, a snapshot at or below every member's rank at the
        # batch start: what a switch materializes from.
        self.snaps = [t.copy() for t in self.templates]
        self.members = [[c for c in range(ncores) if self.cls[c] == k]
                        for k in range(len(leaders))]
        self.off_of_core = offs[np.asarray(self.cls, dtype=np.int64)]
        self.is_leader = np.zeros(ncores, dtype=bool)
        self.is_leader[leaders] = True
        self.done = np.zeros(ncores, dtype=np.int64)  # accesses per core
        # Each access's index in its core's trace (the stream interleaves
        # the traces in this order).
        self.trace_index = merge_order(workload)[1]
        self.at: list[int] = []     # per-core ranks at the switch access
        # The LLC until its first eviction (owner masks are uint64,
        # hence the core bound).
        self.cold = _ColdLLC(geo) if ncores <= 64 else None
        self.classes = len(leaders)
        self.template_refs = 0
        self.llc_pass_refs = 0
        self.checked = 0

    def batch(self, cc: np.ndarray, cb: np.ndarray, base_idx: int) -> int:
        """Resolve one batch (a chunk or a slice of one) up to its first
        live victim's access, and return that access's batch-local index
        (-1: the whole batch)."""
        geo = self.geo
        st = self.st
        ncores = geo.ncores
        num_levels = geo.num_levels
        llc_mask = geo.llc_mask
        llc_assoc = geo.llc_assoc
        llc_sets = st.llc_sets
        owners = st.owners
        templates = self.templates
        cls = self.cls
        xor = self.xor
        allbits = (1 << ncores) - 1
        m = len(cb)

        # ---- per-core rank of every access: its index in its trace
        rank_of = self.trace_index[base_idx:base_idx + m]
        before = self.done.copy()
        self.done += np.bincount(cc, minlength=ncores)
        positions: dict = {}      # core -> its batch positions, on demand

        # ---- pass 1: each template through the private levels, up to
        # its furthest member; the next snapshot at its slowest member
        next_snaps = list(self.snaps)
        for k, t in enumerate(templates):
            reach = self.done[self.members[k]]
            lo_next = int(reach.min())
            if lo_next >= t.pos:
                self.template_refs += t.walk_to(lo_next)
                next_snaps[k] = t.copy()
            self.template_refs += t.walk_to(int(reach.max()))
        flat = self.off_of_core[cc] + rank_of
        plv = self.level[flat]
        prk = self.rank[flat]
        to_llc = np.flatnonzero(plv == 0)

        # ---- pass 2: the accesses that reach the shared LLC, in
        # global order, checking every eviction for a live victim
        cold = 0
        if self.cold is not None:
            # The LLC has never evicted: closed form up to the first set
            # overflow, then the loop below takes over.
            cold, cold_level, cold_rank = self.cold.batch(
                to_llc + base_idx, cb[to_llc], cc[to_llc])
            if cold < len(to_llc):
                self.cold.materialize(llc_sets, owners)
                self.cold = None
        rest = to_llc[cold:]
        ew_app, eb_app = st.ev_when.append, st.ev_block.append
        ll: list[int] = []
        lr: list[int] = []
        ll_app, lr_app = ll.append, lr.append
        switch = -1
        for q, c, b in zip(rest.tolist(), cc[rest].tolist(),
                           cb[rest].tolist()):
            lst = llc_sets[b & llc_mask]
            if b in lst:
                if lst[0] == b:
                    lr_app(0)
                else:
                    r = lst.index(b)
                    del lst[r]
                    lst.insert(0, b)
                    lr_app(r)
                ll_app(num_levels)
                owners[b] = owners.get(b, 0) | (1 << c)
                continue
            if len(lst) >= llc_assoc:
                # The fill evicts lst[-1]: live if some plausible owner
                # still holds it in its deepest private level.
                vb = lst[-1]
                om = owners.get(vb, allbits)
                self.checked += 1
                live = False
                while om:
                    low = om & -om
                    om -= low
                    c2 = low.bit_length() - 1
                    # c2's rank at this access: how many it issued before.
                    if c2 == c:
                        k2 = int(rank_of[q])
                    else:
                        at_c2 = positions.get(c2)
                        if at_c2 is None:
                            at_c2 = positions[c2] = np.flatnonzero(cc == c2)
                        k2 = int(before[c2]) + int(np.searchsorted(at_c2, q))
                    if templates[cls[c2]].resident(vb ^ xor[c2], k2):
                        live = True
                        break
                if live:
                    switch = q
                    break
                lst.pop()
                owners.pop(vb, None)
                ew_app(q + base_idx)
                eb_app(vb)
            lst.insert(0, b)
            owners[b] = 1 << c
            ll_app(0)
            lr_app(-1)

        stop = m if switch < 0 else switch
        hit_level = st.hit_level
        hit_rank = st.hit_rank
        hit_level[base_idx:base_idx + stop] = plv[:stop]
        hit_rank[base_idx:base_idx + stop] = prk[:stop]
        if cold:
            hit_level[to_llc[:cold] + base_idx] = cold_level
            hit_rank[to_llc[:cold] + base_idx] = cold_rank
        served = rest[:len(ll)]
        hit_level[served + base_idx] = ll
        hit_rank[served + base_idx] = lr
        self.llc_pass_refs += cold + len(ll)
        # Resolved by a scalar loop: the LLC pass's accesses, and the
        # leaders' accesses at ranks the template's residual loop walked.
        scalar = self.scalar[flat[:stop]] & self.is_leader[cc[:stop]]
        scalar[served] = True
        st.skipped += stop - int(np.count_nonzero(scalar))
        if switch < 0:
            self.snaps = next_snaps
        else:
            self.at = (before + np.bincount(cc[:switch], minlength=ncores)
                       ).tolist()
        return switch

    def materialize(self) -> None:
        """Each core's private levels, L1 carry and hot blocks as they
        stand at the switch access: its class snapshot walked on to the
        core's rank, XOR-translated.  The templates are released."""
        geo = self.geo
        st = self.st
        ncores = geo.ncores
        pmask = geo.pmask
        at = self.at
        st.priv = [[None] * ncores for _ in range(geo.num_levels - 1)]
        for k, mem in enumerate(self.members):
            walker = self.snaps[k].copy()
            for c in sorted(mem, key=at.__getitem__):
                walker.walk_to(at[c])
                d = self.xor[c]
                for lv, sets in enumerate(walker.translated(d)):
                    st.priv[lv][c] = sets
                valid = np.flatnonzero(walker.carry_valid)
                fl = (valid ^ (d & pmask)) * ncores + c
                blk = walker.carry_block[valid] ^ np.uint64(d)
                st.carry_block[fl] = blk
                st.carry_valid[fl] = True
                for f, v in zip(fl.tolist(), blk.tolist()):
                    st.hot[f] = v
        self.templates = self.snaps = []


def _exact_chunk(st: _State, cc: np.ndarray, cb: np.ndarray,
                 base_idx: int) -> None:
    """The exact loop over one chunk: candidates, residual replay with
    the LLC, eviction-hazard repair (see the module docstring)."""
    geo = st.geo
    ncores = geo.ncores
    num_levels = geo.num_levels
    masks = geo.masks
    pmask = geo.pmask
    llc_mask = geo.llc_mask
    llc_assoc = geo.llc_assoc
    priv = st.priv
    llc_sets = st.llc_sets
    owners = st.owners
    hot = st.hot
    carry_valid = st.carry_valid
    hit_level = st.hit_level
    hit_rank = st.hit_rank
    ew_app, eb_app = st.ev_when.append, st.ev_block.append
    allbits = (1 << ncores) - 1
    l1_of_core = priv[0]
    l1_mask = masks[0]
    # Probe chain below L1 for each core: (sets, mask, level) for
    # L2..LLC (the hit level is precomputed so the loop carries no
    # counter).
    deeper = [
        [(priv[lv][c], masks[lv], lv + 1) for lv in range(1, num_levels - 1)]
        + [(llc_sets, llc_mask, num_levels)]
        for c in range(ncores)
    ]
    # LLC-eviction inclusion sweep per core: the private levels top-down.
    back_all = [
        [(priv[lv][c], masks[lv]) for lv in range(num_levels - 2, -1, -1)]
        for c in range(ncores)
    ]
    fill_from = [
        _fill_chains(geo, [priv[lv][c] for lv in range(num_levels - 1)])
        for c in range(ncores)
    ]
    # ---- candidate detection in (partition, core) grouping
    gkey = (cb & np.uint64(pmask)).astype(np.int64) * ncores + cc
    ngroups = geo.nparts * ncores
    cand, order2, k2 = _group_repeats(
        gkey.astype(np.min_scalar_type(ngroups - 1)), cb,
        st.carry_block, carry_valid)
    # Group boundaries in order2, for the (rare) hazard lookup.
    gstart = np.searchsorted(k2.astype(np.int64),
                             np.arange(ngroups + 1)).tolist()

    # ---- pre-write candidate outcomes (L1 MRU hits), vectorized
    sk = np.flatnonzero(cand) + base_idx
    hit_level[sk] = 1
    hit_rank[sk] = 0
    skipped = len(sk)
    demoted_total = 0
    hazards = 0

    # ---- residual replay in access order, merged with demoted
    # candidates (a heap of chunk-local indices)
    res = np.flatnonzero(~cand)
    r_pos = res.tolist()
    r_core = cc[res].tolist()
    r_block = cb[res].tolist()
    # gkey IS the flat (partition, core) index — reuse it as the hot
    # slot; precompute the L1 set key while vectorized.
    r_hot = gkey[res].tolist()
    r_l1k = (cb[res] & np.uint64(l1_mask)).tolist()
    hl: list[int] = []
    hr: list[int] = []
    hl_app, hr_app = hl.append, hr.append
    pending: list[int] = []        # heap of demoted positions
    num_res = len(r_pos)
    i = 0

    while i < num_res or pending:
        if pending and (i >= num_res or pending[0] < r_pos[i]):
            q = heappop(pending)
            c = int(cc[q])
            b = int(cb[q])
            hot[int(gkey[q])] = b
            l1key = b & l1_mask
            from_heap = True
        else:
            q = r_pos[i]
            c = r_core[i]
            b = r_block[i]
            hot[r_hot[i]] = b
            l1key = r_l1k[i]
            i += 1
            from_heap = False

        lst = l1_of_core[c][l1key]
        hitlev = -1
        if b in lst:
            hitlev = 1
            if lst[0] == b:
                rank = 0
            else:
                rank = lst.index(b)
                del lst[rank]
                lst.insert(0, b)
        if hitlev < 0:
            hitlev = 0
            rank = -1
            for sets, mask, lvl in deeper[c]:
                lst2 = sets[b & mask]
                if b in lst2:
                    hitlev = lvl
                    if lst2[0] == b:
                        rank = 0
                    else:
                        rank = lst2.index(b)
                        del lst2[rank]
                        lst2.insert(0, b)
                    break
            if hitlev == 0:
                # Memory miss: LLC fill first, evicting (and back-
                # invalidating) a victim when the set overflows — same
                # notification order as CacheHierarchy._fill_llc.
                lst2 = llc_sets[b & llc_mask]
                lst2.insert(0, b)
                owners[b] = 1 << c   # fresh fill: sole plausible owner
                if len(lst2) > llc_assoc:
                    vb = lst2.pop()
                    ew_app(q + base_idx)
                    eb_app(vb)
                    om = owners.pop(vb, allbits)
                    while om:
                        low = om & -om
                        om -= low
                        c2 = low.bit_length() - 1
                        for l3, mask in back_all[c2]:
                            l4 = l3[vb & mask]
                            if vb in l4:
                                l4.remove(vb)
                            else:
                                # Private levels are strictly inclusive
                                # per core (fills always reach down to
                                # the hit level, upper victims are
                                # swept): absent from this level =>
                                # absent above it.
                                break
                        else:
                            # Eviction hazard: the sweep just removed vb
                            # from c2's L1.  If vb is the pair's hot
                            # block, the pair must not skip its next
                            # access: demote that access if it is a
                            # candidate (once), or kill the cross-chunk
                            # carry if the pair has no later access in
                            # this chunk.  Since the pair's last access,
                            # only this sweep can remove vb from that
                            # L1, so no hazard is missed.
                            fl = (vb & pmask) * ncores + c2
                            if hot[fl] != vb:
                                continue
                            hazards += 1
                            gs = gstart[fl]
                            ge = gstart[fl + 1]
                            j = gs + int(np.searchsorted(
                                order2[gs:ge], q, side="right"))
                            if j == ge:
                                carry_valid[fl] = False
                            else:
                                p = int(order2[j])
                                if cand[p]:
                                    cand[p] = False
                                    heappush(pending, p)
                                    demoted_total += 1
                start = 0
            else:
                if hitlev == num_levels:
                    # LLC hit: this core becomes a plausible owner (it is
                    # about to fill its private levels).
                    owners[b] = owners.get(b, 0) | (1 << c)
                start = num_levels - hitlev
            # Fill private levels top..1, back-invalidating each level's
            # victim from the levels above it (this core).
            for dd, mask, assoc, above in fill_from[c][start]:
                lst2 = dd[b & mask]
                lst2.insert(0, b)
                if len(lst2) > assoc:
                    vb = lst2.pop()
                    for l3, mask2 in above:
                        l4 = l3[vb & mask2]
                        if vb in l4:
                            l4.remove(vb)
                        else:
                            break  # inclusive: absent => absent above
        if from_heap:
            hit_level[q + base_idx] = hitlev
            hit_rank[q + base_idx] = rank
            skipped -= 1
        else:
            hl_app(hitlev)
            hr_app(rank)

    if num_res:
        r_gidx = res + base_idx
        hit_level[r_gidx] = hl
        hit_rank[r_gidx] = hr
    st.skipped += skipped
    st.demoted += demoted_total
    st.hazards += hazards


def walk_vectorized(
    config: SimConfig,
    workload: Workload,
    max_accesses: "int | None" = None,
    chunk_refs: "int | None" = None,
) -> "tuple[AccessRecord, dict]":
    """The batched equivalent of ``ContentSimulator._walk``.

    Returns ``(record, stats)`` where ``stats`` carries the chunk, skip,
    demotion, hazard and lockstep counts the telemetry reports.  The
    record is byte-identical to the sequential walk's for every eligible
    configuration.
    """
    if not eligible(config):
        raise ConfigError(
            f"config (policy={config.policy.value}, "
            f"replacement={config.replacement!r}, coherent={config.coherent}) "
            "is not set-bucketable; use the sequential walk"
        )
    machine = config.machine
    if workload.cores != machine.cores:
        raise ConfigError(
            f"workload has {workload.cores} traces but machine "
            f"{machine.name!r} has {machine.cores} cores"
        )
    geo = _Geometry(machine)
    kwargs = {} if chunk_refs is None else {"chunk_refs": chunk_refs}
    stream_it = workload.block_stream(max_refs=max_accesses, **kwargs)
    n = stream_it.num_refs
    st = _State(geo, n)
    lock = _Lockstep(st, workload)
    exact_from = -1

    chunks = 0
    core_parts: list[np.ndarray] = []
    block_parts: list[np.ndarray] = []
    write_parts: list[np.ndarray] = []
    gap_parts: list[np.ndarray] = []
    for chunk in stream_it:
        chunks += 1
        core_parts.append(chunk.core)
        block_parts.append(chunk.block)
        write_parts.append(chunk.write)
        gap_parts.append(chunk.gap)
        cc, cb, base_idx = chunk.core, chunk.block, chunk.start
        if exact_from < 0:
            switch = -1
            lo = 0
            while lo < len(cb) and switch < 0:
                # A live victim needs an LLC eviction.  Once the fullest
                # set has at most two free ways, smaller batches bound
                # how far the templates run past the switch and how far
                # it re-walks from a snapshot.
                free = (0 if lock.cold is None
                        else geo.llc_assoc - lock.cold.fullest())
                hi = len(cb) if free > 2 else lo + _LIVE_BATCH
                switch = lock.batch(cc[lo:hi], cb[lo:hi], base_idx + lo)
                if switch >= 0:
                    switch += lo
                lo = hi
            if switch < 0:
                continue
            # First live victim: the exact loop takes over at its access.
            lock.materialize()
            exact_from = base_idx + switch
            cc, cb, base_idx = cc[switch:], cb[switch:], exact_from
        _exact_chunk(st, cc, cb, base_idx)

    if core_parts:
        core_all = np.concatenate(core_parts)
        block_all = np.concatenate(block_parts)
        write_all = np.concatenate(write_parts)
        gap_all = np.concatenate(gap_parts)
    else:
        core_all = np.empty(0, dtype=np.int64)
        block_all = np.empty(0, dtype=np.uint64)
        write_all = np.empty(0, dtype=bool)
        gap_all = np.empty(0, dtype=np.uint32)
    if lock.cold is None:
        final_llc = np.sort(np.fromiter(
            chain.from_iterable(st.llc_sets), dtype=np.uint64))
    else:
        final_llc = lock.cold.contents()   # no eviction ever
    stats = {
        "chunks": chunks,
        "skipped": st.skipped,
        "residual": n - st.skipped,
        "demoted": st.demoted,
        "hazards": st.hazards,
        "partitions": geo.nparts,
        "classes": lock.classes,
        "template_refs": lock.template_refs,
        "llc_pass_refs": lock.llc_pass_refs,
        "live_victims_checked": lock.checked,
        "exact_from": exact_from,
    }
    del lock   # frees the templates before the record is assembled

    # Every memory miss fills the LLC at its own access, and an eviction
    # follows the fill that caused it: one sort on the (unique) keys
    # (when, fill < evict) restores exactly the sequential recorder's
    # order.
    fill_when = np.flatnonzero(st.hit_level == 0)
    evict_when = np.asarray(st.ev_when, dtype=np.int64)
    ev_order = np.argsort(
        np.concatenate((2 * fill_when, 2 * evict_when + 1)))
    llc_when = np.concatenate((fill_when, evict_when))[ev_order]
    llc_op = np.concatenate((
        np.full(len(fill_when), EVENT_FILL, dtype=np.int8),
        np.full(len(evict_when), EVENT_EVICT, dtype=np.int8),
    ))[ev_order]
    llc_block = np.concatenate((
        block_all[fill_when], np.asarray(st.ev_block, dtype=np.uint64)))[ev_order]

    record = AccessRecord(
        core=core_all.astype(np.uint16),
        block=block_all,
        write=write_all,
        gap=gap_all.astype(np.uint32),
        hit_level=st.hit_level,
        hit_rank=st.hit_rank,
        llc_when=llc_when,
        llc_op=llc_op,
        llc_block=llc_block,
        num_levels=geo.num_levels,
        final_llc_blocks=final_llc,
    )
    return record, stats


def _first_divergence(a: np.ndarray, b: np.ndarray) -> int:
    """Index of the first differing element (arrays of equal length)."""
    diff = np.nonzero(a != b)[0]
    return int(diff[0]) if len(diff) else -1


def assert_streams_equal(
    vector: AccessRecord,
    sequential: AccessRecord,
    config: SimConfig,
    workload_name: str,
) -> None:
    """Checked-mode oracle: the two walks must agree byte for byte.

    On divergence, writes a replay bundle (like every other invariant in
    :mod:`repro.checking`) and raises :class:`InvariantViolation
    <repro.checking.InvariantViolation>` pointing at the first divergent
    access, so ``repro replay`` can re-run exactly the offending window.
    """
    problems: list[str] = []
    ref_index: "int | None" = None
    if vector.num_levels != sequential.num_levels:
        problems.append(
            f"num_levels {vector.num_levels} != {sequential.num_levels}"
        )
    for name in _STREAM_FIELDS:
        va = getattr(vector, name)
        sa = getattr(sequential, name)
        if len(va) != len(sa):
            problems.append(f"{name}: length {len(va)} != {len(sa)}")
            continue
        if not np.array_equal(va, sa):
            at = _first_divergence(va, sa)
            problems.append(
                f"{name}[{at}]: vector {va[at]!r} != sequential {sa[at]!r}"
            )
            if ref_index is None:
                if name in ("llc_when", "llc_op", "llc_block"):
                    # Point the replay at the access causing the event.
                    ref_index = int(sequential.llc_when[at]) if at < len(
                        sequential.llc_when) else None
                elif name != "final_llc_blocks":
                    ref_index = at
    if not problems:
        return
    ctx = checking.CheckContext.for_run(config, workload_name, runner="content")
    ctx.fail(
        "vector-walk-equivalence",
        "vectorized content walk diverged from sequential walk: "
        + "; ".join(problems),
        ref_index=ref_index if ref_index is not None else max(
            vector.num_accesses, sequential.num_accesses, 1) - 1,
    )
