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
  instead.  Hazards are rare (a handful per figure run) but load-bearing:
  they make the optimistic skip *exact* rather than approximate.

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
from heapq import heappop, heappush
from itertools import chain

import numpy as np

from repro import checking
from repro.hierarchy.events import EVENT_EVICT, EVENT_FILL, AccessRecord
from repro.hierarchy.inclusion import InclusionPolicy
from repro.sim.config import SimConfig
from repro.util.validation import ConfigError
from repro.workloads.trace import Workload

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


def walk_vectorized(
    config: SimConfig,
    workload: Workload,
    max_accesses: "int | None" = None,
    chunk_refs: "int | None" = None,
) -> "tuple[AccessRecord, dict]":
    """The batched equivalent of ``ContentSimulator._walk``.

    Returns ``(record, stats)`` where ``stats`` carries the chunk, skip,
    demotion and hazard counts the telemetry span tags report.  The
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

    num_levels = machine.num_levels
    ncores = machine.cores
    # Private levels 1..L-1 (index 0..L-2 below); the LLC is shared.
    masks = [machine.level(lv).num_sets - 1 for lv in range(1, num_levels)]
    assocs = [machine.level(lv).assoc for lv in range(1, num_levels)]
    llc_mask = machine.llc.num_sets - 1
    llc_assoc = machine.llc.assoc
    pmask = min(lvl.num_sets for lvl in machine.levels) - 1
    nparts = pmask + 1
    ngroups = nparts * ncores          # (partition, core) pairs, flat

    kwargs = {} if chunk_refs is None else {"chunk_refs": chunk_refs}
    stream_it = workload.block_stream(max_refs=max_accesses, **kwargs)
    n = stream_it.num_refs

    hit_level = np.empty(n, dtype=np.int8)
    hit_rank = np.empty(n, dtype=np.int8)

    # Per-set LRU state: one MRU-first list per set, indexed by set
    # number (dense, so the hot loop never tests for a missing set).
    priv: list[list[list[list[int]]]] = [
        [[[] for _ in range(masks[lv] + 1)] for _ in range(ncores)]
        for lv in range(num_levels - 1)
    ]
    llc_sets: list[list[int]] = [[] for _ in range(llc_mask + 1)]
    l1_of_core = priv[0]
    l1_mask = masks[0]
    # Probe chain below L1 for each core: (sets, mask, level) for L2..LLC
    # (the hit level is precomputed so the loop carries no counter).
    deeper = [
        [(priv[lv][c], masks[lv], lv + 1) for lv in range(1, num_levels - 1)]
        + [(llc_sets, llc_mask, num_levels)]
        for c in range(ncores)
    ]
    # Back-invalidation chains, hoisted: per core the private levels
    # top-down (LLC-eviction inclusion sweep), and per (core, fill level)
    # the levels above it (private-victim sweep) — same notification
    # order as the sequential hierarchy.
    back_all = [
        [(priv[lv][c], masks[lv]) for lv in range(num_levels - 2, -1, -1)]
        for c in range(ncores)
    ]
    back_above = [
        [
            [(priv[lv2][c], masks[lv2]) for lv2 in range(lv - 1, -1, -1)]
            for lv in range(num_levels - 1)
        ]
        for c in range(ncores)
    ]
    fill_of_core = [
        [(priv[lv][c], masks[lv], assocs[lv], back_above[c][lv])
         for lv in range(num_levels - 2, -1, -1)]
        for c in range(ncores)
    ]
    # Fill-chain suffixes per (core, start), precomputed so the hot loop
    # never slices (a list allocation per access otherwise).
    fill_from = [
        [tuple(fill_of_core[c][s:]) for s in range(num_levels)]
        for c in range(ncores)
    ]

    # Owner bitmask per LLC-resident block: a conservative superset of
    # the cores whose private caches may hold it.  Set on LLC fill (sole
    # owner) and LLC hit (new sharer); L1/L2/L3 hits imply the bit is
    # already set, and the whole entry dies with the LLC eviction —
    # inclusion guarantees no private copy survives that.  Lets the
    # eviction back-invalidation sweep probe only plausible cores.
    owners: dict = {}
    allbits = (1 << ncores) - 1

    # Cross-chunk carry per (partition, core): block of the pair's last
    # access, provided no LLC eviction has killed its L1 copy since.
    carry_block = np.zeros(ngroups, dtype=np.uint64)
    carry_valid = np.zeros(ngroups, dtype=bool)
    # Hot block per pair, maintained by the residual replay (candidates
    # by construction never change it).  -1 = no access yet.
    hot: list[int] = [-1] * ngroups

    # LLC evictions (when = global index of the causing access); the
    # fills are derived from the outcomes after the walk.
    ev_when: list[int] = []
    ev_block: list[int] = []
    ew_app, eb_app = ev_when.append, ev_block.append

    chunks = 0
    skipped = 0
    demoted_total = 0
    hazards = 0
    core_parts: list[np.ndarray] = []
    block_parts: list[np.ndarray] = []
    write_parts: list[np.ndarray] = []
    gap_parts: list[np.ndarray] = []

    np_pmask = np.uint64(pmask)
    group_ids = np.arange(ngroups + 1)
    # Sort the group keys at their narrowest width: for 8- and 16-bit
    # keys (every registry machine) NumPy's stable sort is a radix sort.
    sort_dtype = np.min_scalar_type(ngroups - 1)
    for chunk in stream_it:
        chunks += 1
        core_parts.append(chunk.core)
        block_parts.append(chunk.block)
        write_parts.append(chunk.write)
        gap_parts.append(chunk.gap)
        m = chunk.num_refs
        base_idx = chunk.start

        # ---- candidate detection in (partition, core) grouping; the
        # stable sort keeps each group in chronological order
        cc = chunk.core
        cb = chunk.block
        gkey = (cb & np_pmask).astype(np.int64) * ncores + cc
        order2 = np.argsort(gkey.astype(sort_dtype), kind="stable")
        k2 = gkey[order2]
        b2 = cb[order2]
        same_group = np.empty(m, dtype=bool)
        same_group[0] = False
        np.equal(k2[1:], k2[:-1], out=same_group[1:])
        cand2 = np.zeros(m, dtype=bool)
        cand2[1:] = same_group[1:] & (b2[1:] == b2[:-1])
        first2 = ~same_group
        fk = k2[first2]
        cand2[first2] = carry_valid[fk] & (carry_block[fk] == b2[first2])

        # ---- advance cross-chunk carry to this chunk's group tails
        last2 = np.empty(m, dtype=bool)
        last2[-1] = True
        np.not_equal(k2[1:], k2[:-1], out=last2[:-1])
        lk = k2[last2]
        carry_block[lk] = b2[last2]
        carry_valid[lk] = True
        # Group boundaries in order2, for the (rare) hazard lookup.
        gstart = np.searchsorted(k2, group_ids).tolist()

        # ---- pre-write candidate outcomes (L1 MRU hits), vectorized
        cand = np.zeros(m, dtype=bool)
        cand[order2] = cand2
        sk = np.nonzero(cand)[0] + base_idx
        hit_level[sk] = 1
        hit_rank[sk] = 0
        skipped += len(sk)

        # ---- residual replay in access order, merged with demoted
        # candidates (a heap of chunk-local indices)
        res = np.nonzero(~cand)[0]
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
                    # invalidating) a victim when the set overflows —
                    # same notification order as CacheHierarchy._fill_llc.
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
                                    # Private levels are strictly
                                    # inclusive per core (fills always
                                    # reach down to the hit level, upper
                                    # victims are swept): absent from
                                    # this level => absent above it.
                                    break
                            else:
                                # Eviction hazard: the sweep just removed
                                # vb from c2's L1.  If vb is the pair's
                                # hot block, the pair must not skip its
                                # next access: demote that access if it
                                # is a candidate (once), or kill the
                                # cross-chunk carry if the pair has no
                                # later access in this chunk.  Since the
                                # pair's last access, only this sweep can
                                # remove vb from that L1, so no hazard
                                # is missed.
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
                        # LLC hit: this core becomes a plausible owner
                        # (it is about to fill its private levels).
                        owners[b] = owners.get(b, 0) | (1 << c)
                    start = num_levels - hitlev
                # Fill private levels top..1, back-invalidating each
                # level's victim from the levels above it (this core).
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
            hit_level[r_gidx] = np.asarray(hl, dtype=np.int8)
            hit_rank[r_gidx] = np.asarray(hr, dtype=np.int8)

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

    # Every memory miss fills the LLC at its own access, and an eviction
    # follows the fill that caused it: one sort on the (unique) keys
    # (when, fill < evict) restores exactly the sequential recorder's
    # order.
    fill_when = np.flatnonzero(hit_level == 0)
    evict_when = np.asarray(ev_when, dtype=np.int64)
    ev_order = np.argsort(
        np.concatenate((2 * fill_when, 2 * evict_when + 1)))
    llc_when = np.concatenate((fill_when, evict_when))[ev_order]
    llc_op = np.concatenate((
        np.full(len(fill_when), EVENT_FILL, dtype=np.int8),
        np.full(len(evict_when), EVENT_EVICT, dtype=np.int8),
    ))[ev_order]
    llc_block = np.concatenate((
        block_all[fill_when], np.asarray(ev_block, dtype=np.uint64)))[ev_order]

    record = AccessRecord(
        core=core_all.astype(np.uint16),
        block=block_all,
        write=write_all,
        gap=gap_all.astype(np.uint32),
        hit_level=hit_level,
        hit_rank=hit_rank,
        llc_when=llc_when,
        llc_op=llc_op,
        llc_block=llc_block,
        num_levels=num_levels,
        final_llc_blocks=np.sort(
            np.fromiter(chain.from_iterable(llc_sets), dtype=np.uint64)),
    )
    stats = {
        "chunks": chunks,
        "skipped": skipped,
        "residual": n - skipped,
        "demoted": demoted_total,
        "hazards": hazards,
        "partitions": nparts,
    }
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
