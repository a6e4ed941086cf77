"""The multi-core, multi-level cache hierarchy (Figure 2).

Private L1…L(n-1) per core plus one shared LLC, with the three inclusion
policies of §III-C.  The hierarchy is a pure *content* model: it tracks what
is resident where and reports, for every access, the level that served it.
Latency and energy are attributed later by the scheme evaluators — this
separation is what allows one content walk to serve every scheme (see
DESIGN.md, "Two-phase simulation").

Block numbers are byte addresses shifted right by the 6 block-offset bits.
Level numbers are 1-based (1 = L1); level 0 denotes main memory.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.energy.params import MachineConfig
from repro.hierarchy.inclusion import InclusionPolicy
from repro.hierarchy.replacement import BaseCache, make_cache
from repro.util.validation import ConfigError

__all__ = ["CacheHierarchy"]

#: Signature of content-change callbacks: (level, block) -> None.
LevelCallback = Callable[[int, int], None]


class CacheHierarchy:
    """Content model of the deep cache hierarchy.

    Parameters
    ----------
    machine:
        Structural parameters (sizes, associativities, core count).
    policy:
        Inclusion policy; see :class:`repro.hierarchy.inclusion.InclusionPolicy`.
    replacement:
        ``"lru"`` (paper default), ``"random"`` or ``"plru"``.
    on_fill / on_evict:
        Optional callbacks invoked when content changes at levels >= 2
        (level, block).  The content simulator wires these to the outcome
        recorder; integrated predictors subscribe directly.
    """

    def __init__(
        self,
        machine: MachineConfig,
        policy: InclusionPolicy | str = InclusionPolicy.INCLUSIVE,
        replacement: str = "lru",
        on_fill: Optional[LevelCallback] = None,
        on_evict: Optional[LevelCallback] = None,
        seed: int = 0,
    ) -> None:
        self.machine = machine
        self.policy = InclusionPolicy.parse(policy)
        self.num_levels = machine.num_levels
        self.cores = machine.cores
        self.on_fill = on_fill
        self.on_evict = on_evict

        # private[level-1][core] for levels 1..n-1; llc shared.
        self.private: list[list[BaseCache]] = []
        for lvl in machine.levels[:-1]:
            row = [
                make_cache(lvl, replacement, name=f"{lvl.name}.c{c}", seed=seed + c)
                for c in range(self.cores)
            ]
            self.private.append(row)
        self.llc: BaseCache = make_cache(machine.llc, replacement, name=machine.llc.name, seed=seed)

        #: Recency rank (0 = MRU) of the block at the level that served the
        #: most recent access; -1 when it came from memory.  Consumed by the
        #: way-prediction scheme's outcome recording.
        self.last_hit_rank = -1

        #: NINE policy: count of accesses that would have been false
        #: negatives for a single LLC-side prediction table (block served
        #: by a private level while absent from the LLC).
        self.superset_violations = 0

        if self.policy is InclusionPolicy.INCLUSIVE:
            self.access = self._access_inclusive
        elif self.policy is InclusionPolicy.HYBRID:
            self.access = self._access_hybrid
        elif self.policy is InclusionPolicy.NINE:
            self.access = self._access_nine
        else:
            self.access = self._access_exclusive

    # ------------------------------------------------------------------ util
    def cache_at(self, core: int, level: int) -> BaseCache:
        """The cache serving ``core`` at 1-based ``level``."""
        if level == self.num_levels:
            return self.llc
        return self.private[level - 1][core]

    def _notify_fill(self, level: int, block: int) -> None:
        if self.on_fill is not None and level >= 2:
            self.on_fill(level, block)

    def _notify_evict(self, level: int, block: int) -> None:
        if self.on_evict is not None and level >= 2:
            self.on_evict(level, block)

    # ------------------------------------------------------ inclusive policy
    def _back_invalidate_private(self, core: int, below_level: int, block: int) -> bool:
        """Invalidate ``block`` from this core's levels < ``below_level``.

        Returns True if any removed copy was dirty (the caller propagates
        dirtiness to the level that still holds the block).
        """
        dirty = False
        for lvl in range(below_level - 1, 0, -1):
            present, was_dirty = self.private[lvl - 1][core].invalidate(block)
            dirty |= present and was_dirty
        return dirty

    def _back_invalidate_all_cores(self, below_level: int, block: int) -> None:
        """LLC eviction: remove every upper-level copy (all cores)."""
        for core in range(self.cores):
            self._back_invalidate_private(core, below_level, block)

    def _fill_private_inclusive(self, core: int, level: int, block: int) -> None:
        """Fill one private level, handling victim back-invalidation and
        dirty propagation to the (inclusive) next level down."""
        cache = self.private[level - 1][core]
        victim = cache.insert(block)
        self._notify_fill(level, block)
        if victim is None:
            return
        vb, vdirty = victim
        self._notify_evict(level, vb)
        # Upper copies of the victim violate inclusion now; drop them.
        vdirty |= self._back_invalidate_private(core, level, vb)
        if vdirty:
            below = self.cache_at(core, level + 1)
            if below.contains(vb):
                below.mark_dirty(vb)
            # else: the copy below was concurrently evicted; data goes to
            # memory, which is a free data store in this model.

    def _fill_llc(self, block: int) -> None:
        victim = self.llc.insert(block)
        self._notify_fill(self.num_levels, block)
        if victim is not None:
            vb, _vdirty = victim
            self._notify_evict(self.num_levels, vb)
            self._back_invalidate_all_cores(self.num_levels, vb)

    def _access_inclusive(self, core: int, block: int, write: bool = False) -> int:
        l1 = self.private[0][core]
        if l1.probe(block):
            self.last_hit_rank = l1.last_hit_rank
            if write:
                l1.mark_dirty(block)
            return 1
        hit_level = 0
        self.last_hit_rank = -1
        for level in range(2, self.num_levels + 1):
            cache = self.cache_at(core, level)
            if cache.probe(block):
                hit_level = level
                self.last_hit_rank = cache.last_hit_rank
                break
        if hit_level == 0:
            self._fill_llc(block)
            top = self.num_levels - 1
        else:
            top = hit_level - 1
        for level in range(top, 0, -1):
            self._fill_private_inclusive(core, level, block)
        if write:
            l1.mark_dirty(block)
        return hit_level

    # ----------------------------------------------------------- NINE policy
    def _fill_private_nine(self, core: int, level: int, block: int) -> None:
        """Fill one private level without inclusion housekeeping: victims
        are simply dropped (their data still lives wherever else it is;
        dirty victims write through to memory, which is free here)."""
        cache = self.private[level - 1][core]
        victim = cache.insert(block)
        self._notify_fill(level, block)
        if victim is not None:
            self._notify_evict(level, victim[0])

    def _access_nine(self, core: int, block: int, write: bool = False) -> int:
        """Non-inclusive/non-exclusive: like inclusive fills, but the LLC
        never back-invalidates, so upper copies can outlive the LLC line.
        Tracks every would-be ReDHiP false negative (the point of the
        policy's presence in this codebase)."""
        l1 = self.private[0][core]
        if l1.probe(block):
            self.last_hit_rank = l1.last_hit_rank
            if write:
                l1.mark_dirty(block)
            return 1
        hit_level = 0
        self.last_hit_rank = -1
        for level in range(2, self.num_levels + 1):
            cache = self.cache_at(core, level)
            if cache.probe(block):
                hit_level = level
                self.last_hit_rank = cache.last_hit_rank
                break
        if 2 <= hit_level < self.num_levels and not self.llc.contains(block):
            self.superset_violations += 1
        if hit_level == 0:
            victim = self.llc.insert(block)
            self._notify_fill(self.num_levels, block)
            if victim is not None:
                self._notify_evict(self.num_levels, victim[0])
                # No back-invalidation: this is what breaks the invariant.
            top = self.num_levels - 1
        else:
            top = hit_level - 1
        for level in range(top, 0, -1):
            self._fill_private_nine(core, level, block)
        if write:
            l1.mark_dirty(block)
        return hit_level

    # --------------------------------------------------------- hybrid policy
    def _install_chain_private(self, core: int, block: int, dirty: bool, last_level: int) -> None:
        """Install at L1 and trickle victims down through private levels up
        to ``last_level``; the final victim is dropped (hybrid: it is still
        in the LLC) with dirtiness folded into the LLC copy."""
        carry: Optional[tuple[int, bool]] = (block, dirty)
        for level in range(1, last_level + 1):
            if carry is None:
                return
            cb, cd = carry
            carry = self.private[level - 1][core].insert(cb, dirty=cd)
            self._notify_fill(level, cb)
            if carry is not None:
                self._notify_evict(level, carry[0])
        if carry is not None:
            vb, vdirty = carry
            if vdirty and self.llc.contains(vb):
                self.llc.mark_dirty(vb)

    def _access_hybrid(self, core: int, block: int, write: bool = False) -> int:
        l1 = self.private[0][core]
        if l1.probe(block):
            self.last_hit_rank = l1.last_hit_rank
            if write:
                l1.mark_dirty(block)
            return 1
        last_private = self.num_levels - 1
        hit_level = 0
        dirty = False
        self.last_hit_rank = -1
        for level in range(2, last_private + 1):
            cache = self.private[level - 1][core]
            if cache.probe(block):
                self.last_hit_rank = cache.last_hit_rank
                _, dirty = cache.invalidate(block)  # exclusive move to L1
                self._notify_evict(level, block)
                hit_level = level
                break
        if hit_level == 0:
            if self.llc.probe(block):
                hit_level = self.num_levels
                self.last_hit_rank = self.llc.last_hit_rank
            else:
                self._fill_llc(block)
        self._install_chain_private(core, block, dirty, last_private)
        if write:
            l1.mark_dirty(block)
        return hit_level

    # ------------------------------------------------------ exclusive policy
    def _install_chain_exclusive(self, core: int, block: int, dirty: bool) -> None:
        """Install at L1; victims trickle through every level including the
        LLC.  The LLC victim leaves the chip (memory absorbs it)."""
        carry: Optional[tuple[int, bool]] = (block, dirty)
        for level in range(1, self.num_levels):
            if carry is None:
                return
            cb, cd = carry
            carry = self.private[level - 1][core].insert(cb, dirty=cd)
            self._notify_fill(level, cb)
            if carry is not None:
                self._notify_evict(level, carry[0])
        if carry is not None:
            vb, vd = carry
            spill = self.llc.insert(vb, dirty=vd)
            self._notify_fill(self.num_levels, vb)
            if spill is not None:
                self._notify_evict(self.num_levels, spill[0])

    def _access_exclusive(self, core: int, block: int, write: bool = False) -> int:
        l1 = self.private[0][core]
        if l1.probe(block):
            self.last_hit_rank = l1.last_hit_rank
            if write:
                l1.mark_dirty(block)
            return 1
        hit_level = 0
        dirty = False
        self.last_hit_rank = -1
        for level in range(2, self.num_levels + 1):
            cache = self.cache_at(core, level)
            if cache.probe(block):
                self.last_hit_rank = cache.last_hit_rank
                _, dirty = cache.invalidate(block)  # move toward the core
                self._notify_evict(level, block)
                hit_level = level
                break
        self._install_chain_exclusive(core, block, dirty)
        if write:
            l1.mark_dirty(block)
        return hit_level

    # -------------------------------------------------------------- prefetch
    def prefetch_fill(self, core: int, block: int) -> int:
        """Bring ``block`` into the core's L1 on behalf of the prefetcher.

        The classic stride prefetcher [8] the paper implements is an
        L1-side mechanism: a successful prefetch turns the next strided
        demand into an L1 *hit* (this is what makes its gains additive
        with ReDHiP's, which only accelerates L1 misses).  The request
        probes L2 → LLC like a demand miss, fetches from memory if absent,
        and fills every level down to L1 — evicting victims on the way,
        which is the cache-pollution cost §V-C describes.  Returns the
        level where the block was found (0 = memory).  Only supported for
        the inclusive policy, which is what Figures 14/15 use.

        Blocks already in the core's L1 return 1 and change nothing (the
        prefetcher's duplicate filter normally catches these first).
        """
        if self.policy is not InclusionPolicy.INCLUSIVE:
            raise ConfigError("prefetching is only modelled for the inclusive policy")
        if self.private[0][core].contains(block):
            return 1
        hit_level = 0
        for level in range(2, self.num_levels + 1):
            if self.cache_at(core, level).probe(block):
                hit_level = level
                break
        if hit_level == 0:
            self._fill_llc(block)
            top = self.num_levels - 1
        else:
            top = hit_level - 1
        for level in range(top, 0, -1):  # fill all the way into L1
            self._fill_private_inclusive(core, level, block)
        return hit_level

    # ------------------------------------------------------------ inspection
    def llc_resident_blocks(self) -> list[int]:
        """Snapshot of LLC residents (recalibration / oracle source)."""
        return list(self.llc.resident_blocks())

    def on_chip(self, core: int, block: int) -> bool:
        """Is ``block`` resident anywhere reachable by ``core``?"""
        if any(self.private[lvl][core].contains(block) for lvl in range(self.num_levels - 1)):
            return True
        return self.llc.contains(block)

    def check_block_inclusion(self, block: int) -> list[str]:
        """Verify the policy invariant for one block only.

        The per-access fast path of checked mode (:mod:`repro.checking`):
        after an access completes, only the blocks it filled or evicted can
        have changed residency, so checking those suffices between the
        periodic full :meth:`check_inclusion` sweeps.  Cost is a handful of
        ``contains`` probes per call.
        """
        problems: list[str] = []
        if self.policy is InclusionPolicy.NINE:
            return problems  # NINE guarantees nothing — that is its point
        if self.policy is InclusionPolicy.INCLUSIVE:
            for core in range(self.cores):
                for level in range(1, self.num_levels):
                    if self.private[level - 1][core].contains(block):
                        for deeper in range(level + 1, self.num_levels + 1):
                            if not self.cache_at(core, deeper).contains(block):
                                problems.append(
                                    f"core{core} L{level} block {block:#x} "
                                    f"missing at L{deeper}"
                                )
        elif self.policy is InclusionPolicy.HYBRID:
            for core in range(self.cores):
                holders = [
                    level
                    for level in range(1, self.num_levels)
                    if self.private[level - 1][core].contains(block)
                ]
                if holders and not self.llc.contains(block):
                    problems.append(
                        f"core{core} L{holders[0]} block {block:#x} missing at LLC"
                    )
                if len(holders) > 1:
                    problems.append(
                        f"core{core} block {block:#x} at levels {holders} "
                        f"(hybrid allows one private copy)"
                    )
        else:  # EXCLUSIVE
            for core in range(self.cores):
                holders = [
                    level
                    for level in range(1, self.num_levels)
                    if self.private[level - 1][core].contains(block)
                ]
                if self.llc.contains(block):
                    holders.append(self.num_levels)
                if len(holders) > 1:
                    problems.append(
                        f"core{core} block {block:#x} at levels {holders} (exclusive)"
                    )
        return problems

    def check_inclusion(self) -> list[str]:
        """Verify the inclusion invariants; returns violation descriptions.

        Used by tests and by the optional paranoid mode of the simulators.
        For ``INCLUSIVE``: every private copy must exist at every deeper
        level.  For ``HYBRID``: every private copy must exist in the LLC and
        in at most one private level.  For ``EXCLUSIVE``: every block must
        be resident at most once per core-visible chain.
        """
        problems: list[str] = []
        if self.policy is InclusionPolicy.NINE:
            return problems  # NINE guarantees nothing — that is its point
        if self.policy is InclusionPolicy.INCLUSIVE:
            for core in range(self.cores):
                for level in range(1, self.num_levels):
                    for block in self.cache_at(core, level).resident_blocks():
                        for deeper in range(level + 1, self.num_levels + 1):
                            if not self.cache_at(core, deeper).contains(block):
                                problems.append(
                                    f"core{core} L{level} block {block:#x} missing at L{deeper}"
                                )
        elif self.policy is InclusionPolicy.HYBRID:
            for core in range(self.cores):
                seen: dict[int, int] = {}
                for level in range(1, self.num_levels):
                    for block in self.cache_at(core, level).resident_blocks():
                        if not self.llc.contains(block):
                            problems.append(
                                f"core{core} L{level} block {block:#x} missing at LLC"
                            )
                        if block in seen:
                            problems.append(
                                f"core{core} block {block:#x} at both L{seen[block]} and L{level}"
                            )
                        seen[block] = level
        else:  # EXCLUSIVE
            for core in range(self.cores):
                seen = {}
                for level in range(1, self.num_levels):
                    for block in self.cache_at(core, level).resident_blocks():
                        if block in seen:
                            problems.append(
                                f"core{core} block {block:#x} at both L{seen[block]} and L{level}"
                            )
                        seen[block] = level
                        if self.llc.contains(block):
                            problems.append(
                                f"core{core} block {block:#x} at L{level} and LLC (exclusive)"
                            )
        return problems
