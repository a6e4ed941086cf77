"""Phase 1: the content simulation.

Walks a multi-core workload through the cache hierarchy once and records
the outcome stream (which level served each access) plus the LLC event
stream (fills/evictions).  Because prediction schemes never change what is
*filled* — only what is *probed* — this single walk is scheme-independent
for a given (workload, machine, inclusion policy); every scheme evaluator
then replays the streams (see :mod:`repro.sim.evaluate`).

Core interleaving follows §IV's timing model: each core advances by its
compute gaps (at its application CPI) plus a nominal per-access memory
cost, and accesses are merged in virtual-time order.  The nominal cost is
a constant — the *exact* per-access latency is scheme-dependent and would
create a circular dependency; the paper's own trace-driven methodology has
the same property ("the relative order of memory references is precise
enough to simulate realistic cache behaviors").

Two walk implementations produce the per-access record:

* the **vectorized** set-bucketed walk (:mod:`repro.sim.vector_content`),
  taken by default whenever the configuration is eligible (inclusive +
  LRU + non-coherent) — it consumes the workload's chunked block stream
  directly and is bit-identical to the sequential walk;
* the **sequential** per-reference walk over the real
  :class:`CacheHierarchy`, kept as the reference implementation, the
  fallback for non-default configurations, and the checked-mode oracle.
  It consumes the same block stream through the per-reference adapter
  (:func:`repro.workloads.shared.iter_refs`).

``REPRO_NO_VECTOR_WALK=1`` (or ``ContentSimulator(cfg,
vectorized=False)``) forces the sequential path; checked mode runs both
and asserts byte-identical per-access records before returning.

Both walks produce the full per-access :class:`AccessRecord`; one
reduction step (:meth:`ContentSimulator.run`) fingerprints it, attaches
each L1 miss's program counter from the workload's merge order, and
returns the :class:`OutcomeStream` of L1 misses every evaluator reads.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro import checking, faults, telemetry
from repro.hierarchy.events import AccessRecord, OutcomeRecorder, OutcomeStream
from repro.hierarchy.hierarchy import CacheHierarchy
from repro.sim import vector_content
from repro.sim.config import SimConfig
from repro.util.validation import ConfigError
from repro.workloads.shared import (
    NOMINAL_ACCESS_CYCLES,
    iter_refs,
    merge_order,
)
from repro.workloads.trace import Workload

__all__ = ["ContentSimulator", "NOMINAL_ACCESS_CYCLES", "merge_order"]


class ContentSimulator:
    """Runs the content walk and reduces it to the L1-miss record.

    ``vectorized`` selects the walk implementation: ``None`` (default)
    auto-selects — the set-bucketed walk when the configuration is
    eligible and ``REPRO_NO_VECTOR_WALK`` is unset, the sequential walk
    otherwise; ``True``/``False`` force one path (forcing ``True`` on an
    ineligible configuration raises at run time).
    """

    def __init__(self, config: SimConfig, vectorized: "bool | None" = None) -> None:
        self.config = config
        self.vectorized = vectorized

    def _use_vector(self) -> bool:
        if self.vectorized is not None:
            return self.vectorized
        return (
            vector_content.eligible(self.config)
            and not vector_content.vector_walk_disabled()
        )

    def run(self, workload: Workload, max_accesses: int | None = None) -> OutcomeStream:
        """Walk ``workload`` through the hierarchy; return its L1-miss record.

        ``max_accesses`` truncates the merged multi-core order — the
        replay path (:func:`repro.checking.replay`) uses it to re-run only
        the window up to a recorded violation.  A truncated walk is a
        prefix of the full one (the merge order is deterministic), but its
        fingerprint naturally differs from the full stream's.
        """
        record = self.walk(workload, max_accesses)
        return record.reduce(workload.cpis, partial(_miss_origin, workload))

    def walk(self, workload: Workload,
             max_accesses: int | None = None) -> AccessRecord:
        """The full per-access record of one walk (see :meth:`run`)."""
        checked = checking.enabled(self.config)
        use_vector = self._use_vector()
        with telemetry.span(
            "content_walk",
            workload=workload.name,
            machine=self.config.machine.name,
            policy=self.config.policy.value,
            checked=checked,
            path="vector" if use_vector else "sequential",
        ) as span:
            record = None
            if use_vector:
                record = self._walk_vector(workload, max_accesses, span)
            if record is None or checked or not use_vector:
                sequential = self._walk(workload, max_accesses)
                if record is None:
                    telemetry.count("content.sequential_walks")
                    record = sequential
                else:
                    # Checked mode: the sequential walk doubles as the
                    # oracle — any divergence writes a replay bundle and
                    # raises before the record escapes.
                    vector_content.assert_streams_equal(
                        record, sequential, self.config, workload.name
                    )
                    telemetry.count("content.dual_walks")
        telemetry.count("content.walks")
        telemetry.count("content.accesses", record.num_accesses)
        return record

    def _walk_vector(
        self, workload: Workload, max_accesses: int | None, span
    ) -> "AccessRecord | None":
        """One vectorized walk; ``None`` when an injected fault forces the
        sequential fallback (the ``content.vector_walk`` chaos site)."""
        try:
            fired = faults.check("content.vector_walk", key=workload.name)
            if fired is not None and fired.kind == "exception":
                raise faults.InjectedFault(
                    5, f"injected vector-walk failure for {workload.name!r}"
                )
            record, stats = vector_content.walk_vectorized(
                self.config, workload, max_accesses=max_accesses
            )
        except faults.InjectedFault as exc:
            faults.handled(
                "content.vector_walk", "sequential_fallback",
                workload=workload.name, error=str(exc),
            )
            span.tag(path="sequential", fallback="injected_fault")
            return None
        span.tag(
            chunks=stats["chunks"],
            skipped=stats["skipped"],
            demoted=stats["demoted"],
            hazards=stats["hazards"],
            classes=stats["classes"],
            template_refs=stats["template_refs"],
            llc_pass_refs=stats["llc_pass_refs"],
            live_victims_checked=stats["live_victims_checked"],
            exact_from=stats["exact_from"],
        )
        telemetry.count("content.vector_walks")
        telemetry.count("content.vector_chunks", stats["chunks"])
        telemetry.count("content.vector_skipped", stats["skipped"])
        telemetry.count("content.classes", stats["classes"])
        telemetry.count("content.template_refs", stats["template_refs"])
        telemetry.count("content.llc_pass_refs", stats["llc_pass_refs"])
        telemetry.count("content.live_victims_checked",
                        stats["live_victims_checked"])
        if stats["exact_from"] >= 0:
            # Walks that met a live inclusion victim, and the accesses
            # the exact loop walked from it on.
            telemetry.count("content.switches")
            telemetry.count("content.exact_refs",
                            record.num_accesses - stats["exact_from"])
        return record

    def _walk(self, workload: Workload, max_accesses: int | None) -> AccessRecord:
        cfg = self.config
        if workload.cores != cfg.machine.cores:
            raise ConfigError(
                f"workload has {workload.cores} traces but machine "
                f"{cfg.machine.name!r} has {cfg.machine.cores} cores"
            )
        recorder = OutcomeRecorder(num_levels=cfg.machine.num_levels)
        llc_level = cfg.machine.num_levels

        checker = None
        if checking.enabled(cfg):
            ctx = checking.CheckContext.for_run(cfg, workload.name, runner="content")
            checker = checking.HierarchyChecker(ctx)

            def on_fill(level: int, block: int) -> None:
                if level == llc_level:
                    recorder.llc_fill(block)
                checker.on_fill(level, block)

            def on_evict(level: int, block: int) -> None:
                if level == llc_level:
                    recorder.llc_evict(block)
                checker.on_evict(level, block)

        else:

            def on_fill(level: int, block: int) -> None:
                if level == llc_level:
                    recorder.llc_fill(block)

            def on_evict(level: int, block: int) -> None:
                if level == llc_level:
                    recorder.llc_evict(block)

        hierarchy_cls = CacheHierarchy
        if cfg.coherent:
            from repro.hierarchy.coherence import CoherentHierarchy

            hierarchy_cls = CoherentHierarchy
        hier = hierarchy_cls(
            cfg.machine,
            policy=cfg.policy,
            replacement=cfg.replacement,
            on_fill=on_fill,
            on_evict=on_evict,
            seed=cfg.seed,
        )

        if checker is not None:
            checker.bind(hier)

        # The merged multi-core order arrives as the same chunked block
        # stream the vectorized walk consumes, through the per-reference
        # adapter — one code path producing the interleaving.
        refs = iter_refs(workload.block_stream(max_refs=max_accesses))

        access = hier.access
        record = recorder.record
        if checker is None:
            for _ref, core, block, write, gap in refs:
                hit_level = access(core, block, write)
                record(core, block, write, gap, hit_level, hier.last_hit_rank)
        else:
            # Checked variant of the same loop (kept separate so the
            # unchecked path pays nothing, not even a branch per access).
            after_access = checker.after_access
            ref = -1
            for ref, core, block, write, gap in refs:
                hit_level = access(core, block, write)
                record(core, block, write, gap, hit_level, hier.last_hit_rank)
                after_access(ref)
            checker.final(ref)

        record = recorder.freeze(hier.llc_resident_blocks())
        self._last_hierarchy = hier  # kept for tests/inspection
        return record


def _miss_origin(workload: Workload, at: np.ndarray) -> tuple:
    """Program counter and core-local index of each access in ``at``.

    The walk itself is PC-blind; the level predictor's PC^block index
    needs the PCs of the L1 misses, gathered once here through the same
    memoized merge order the walk consumed.  Each core's accesses appear
    in that order in trace order, so an access's index within its trace
    is its index among its core's accesses.
    """
    merged_core, merged_idx = merge_order(workload)
    core, local = merged_core[at], merged_idx[at]
    pc = np.empty(len(at), dtype=np.uint64)
    for c, trace in enumerate(workload.traces):
        mine = core == c
        pc[mine] = trace.pc[local[mine]]
    return pc, local
