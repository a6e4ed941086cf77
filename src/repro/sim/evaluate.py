"""Phase 2: scheme evaluation over a frozen outcome stream.

Given the scheme-independent content trajectory from
:mod:`repro.sim.content`, this module decides *which* levels each access
reaches under one scheme and what the predictor answered; every latency
and energy charge for those decisions is applied by the charging kernel
(:mod:`repro.sim.charging` — see its docstring for the full policy, which
the integrated simulator shares).

A predicted LLC miss skips every level below L1: no probes, no latency
beyond L1 + table, straight to (free) memory.  False negatives are
structurally impossible for the shipped predictors; the evaluator enforces
this with a hard error, because a silent false negative would mean serving
stale data in real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter

import numpy as np

from repro import checking, telemetry
from repro.energy.accounting import EnergyLedger
from repro.energy.params import MachineConfig
from repro.energy.timing import TimingResult
from repro.hierarchy.events import EVENT_FILL, OutcomeStream
from repro.predictors.base import PresencePredictor, SchemeSpec
from repro.sim import vector_replay
from repro.sim.charging import PROBE_PHASED, ChargingKernel
from repro.util.validation import ReproError
from repro.workloads.trace import Workload

__all__ = [
    "SchemeResult",
    "evaluate_scheme",
    "replay_predictor",
    "replay_level_predictor",
    "replay_ehc",
]


@dataclass
class SchemeResult:
    """Aggregated outcome of one (workload, scheme) evaluation."""

    scheme: str
    workload: str
    machine: str
    timing: TimingResult
    ledger: EnergyLedger
    static_nj: float
    hit_rates: dict[int, float]
    level_lookups: dict[int, int]
    level_hits: dict[int, int]
    l1_misses: int = 0
    skips: int = 0                 # predicted-miss accesses sent to memory
    false_positives: int = 0       # predicted present but absent everywhere
    true_misses: int = 0           # accesses served by memory
    recal_stall_cycles: float = 0.0
    predictor_stats: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def exec_cycles(self) -> float:
        return self.timing.exec_cycles

    @property
    def dynamic_nj(self) -> float:
        return self.ledger.total_nj

    @property
    def total_nj(self) -> float:
        return self.dynamic_nj + self.static_nj

    @property
    def skip_coverage(self) -> float:
        """Fraction of true LLC misses the scheme skipped (Oracle = 1.0)."""
        return self.skips / self.true_misses if self.true_misses else 0.0

    def speedup_over(self, base: "SchemeResult") -> float:
        return self.timing.speedup_over(base.timing)

    def dynamic_ratio(self, base: "SchemeResult") -> float:
        return self.dynamic_nj / base.dynamic_nj if base.dynamic_nj else 1.0

    def total_ratio(self, base: "SchemeResult") -> float:
        return self.total_nj / base.total_nj if base.total_nj else 1.0

    def perf_energy_metric(self, base: "SchemeResult") -> float:
        """Figure 8's metric: speedup x total-energy-saving product.

        Both factors expressed as (1 + gain): a scheme with 8 % speedup and
        22 % total energy saving scores 1.08 x 1.22 ~ 1.32.
        """
        return self.speedup_over(base) * (2.0 - self.total_ratio(base))


def replay_predictor(
    stream: OutcomeStream, predictor: PresencePredictor
) -> tuple[np.ndarray, np.ndarray, float]:
    """Sequentially replay L1-miss lookups against the LLC event stream.

    Returns the per-access prediction array (only meaningful where the
    access missed L1), the per-access *consulted* array (False where a
    gated predictor answered without touching its table), and the total
    recalibration stall cycles.  Event ordering matches hardware:
    fills/evictions caused by access *i* are applied after access *i*'s
    lookup (the lookup races ahead of the fill).
    """
    h = stream.hit_level
    n = len(h)
    predicted = np.ones(n, dtype=bool)
    consulted = np.zeros(n, dtype=bool)
    miss_mask = h != 1
    miss_idx = np.nonzero(miss_mask)[0].tolist()
    miss_blocks = stream.block[miss_mask].tolist()

    when = stream.llc_when.tolist()
    ops = stream.llc_op.tolist()
    eblocks = stream.llc_block.tolist()
    m = len(when)

    lookup = predictor.predict_present
    fill = predictor.on_llc_fill
    evict = predictor.on_llc_evict
    note = predictor.note_l1_miss

    stall = 0.0
    ei = 0
    out = []
    consults = []
    for pos, i in enumerate(miss_idx):
        while ei < m and when[ei] < i:
            if ops[ei] == EVENT_FILL:
                fill(eblocks[ei])
            else:
                evict(eblocks[ei])
            ei += 1
        out.append(lookup(miss_blocks[pos]))
        consults.append(predictor.last_consulted)
        stall += note()
    while ei < m:  # drain so predictor telemetry covers the full run
        if ops[ei] == EVENT_FILL:
            fill(eblocks[ei])
        else:
            evict(eblocks[ei])
        ei += 1
    predicted[miss_mask] = np.asarray(out, dtype=bool) if out else False
    consulted[miss_mask] = np.asarray(consults, dtype=bool) if consults else False
    return predicted, consulted, stall


def _per_access_pcs(stream: OutcomeStream, workload: Workload) -> np.ndarray:
    """Per-access program counters in the merged multi-core order.

    The outcome stream deliberately carries no PCs (the content walk is
    PC-blind); the level predictor's PC^block index reconstructs them
    from the workload traces through the same memoized merge order both
    simulation paths share.
    """
    from repro.sim.content import merge_order

    merged_core, merged_idx = merge_order(workload)
    n = stream.num_accesses
    traces = workload.traces
    offsets = np.cumsum([0] + [len(trace.pc) for trace in traces[:-1]])
    pcs = np.concatenate([trace.pc for trace in traces]).astype(np.uint64, copy=False)
    return pcs[offsets[merged_core[:n]] + merged_idx[:n]]


def replay_level_predictor(
    stream: OutcomeStream, predictor, pcs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Replay level-prediction lookups over the event stream.

    Returns per-access predicted levels (0 = memory/no prediction),
    per-access confidence flags, and the total recalibration stall
    cycles.  Runs the batched kernel
    (:func:`~repro.sim.vector_replay.replay_levelpred_vectorized`) unless
    the predictor is ineligible or ``REPRO_NO_VECTOR_REPLAY`` is set;
    the scalar loop is the reference both paths must agree with.
    """
    if vector_replay.use_vector(predictor):
        return vector_replay.replay_levelpred_vectorized(stream, predictor, pcs)
    return _replay_level_predictor_scalar(stream, predictor, pcs)


def _replay_level_predictor_scalar(
    stream: OutcomeStream, predictor, pcs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Sequential level-prediction replay (the checked-mode oracle).

    Event interleaving matches :func:`replay_predictor`: events caused by
    earlier accesses land before access *i*'s lookup, access *i*'s own
    events land before the next miss's lookup, and the train step
    observes the true outcome between the lookup and the time advance —
    the same order the integrated loop performs.
    """
    h = stream.hit_level
    n = len(h)
    pred_level = np.zeros(n, dtype=np.int64)
    confident = np.zeros(n, dtype=bool)
    miss_mask = h != 1
    miss_idx = np.nonzero(miss_mask)[0].tolist()
    miss_blocks = stream.block[miss_mask].tolist()
    miss_pcs = pcs[miss_mask].tolist()
    miss_h = h[miss_mask].tolist()

    when = stream.llc_when.tolist()
    ops = stream.llc_op.tolist()
    eblocks = stream.llc_block.tolist()
    m = len(when)

    predict = predictor.predict
    train = predictor.train
    fill = predictor.on_llc_fill
    evict = predictor.on_llc_evict
    note = predictor.note_l1_miss

    stall = 0.0
    ei = 0
    levels_out = []
    conf_out = []
    for pos, i in enumerate(miss_idx):
        while ei < m and when[ei] < i:
            if ops[ei] == EVENT_FILL:
                fill(eblocks[ei])
            else:
                evict(eblocks[ei])
            ei += 1
        level, conf = predict(miss_pcs[pos], miss_blocks[pos])
        levels_out.append(level)
        conf_out.append(conf)
        train(miss_pcs[pos], miss_blocks[pos], miss_h[pos])
        stall += note()
    while ei < m:  # drain so predictor telemetry covers the full run
        if ops[ei] == EVENT_FILL:
            fill(eblocks[ei])
        else:
            evict(eblocks[ei])
        ei += 1
    if levels_out:
        pred_level[miss_mask] = np.asarray(levels_out, dtype=np.int64)
        confident[miss_mask] = np.asarray(conf_out, dtype=bool)
    return pred_level, confident, stall


def replay_ehc(
    stream: OutcomeStream, predictor
) -> tuple[np.ndarray, float]:
    """Replay expected-hit-count lookups over the events.

    Returns the per-access predicted-dead flags (meaningful at L1
    misses) and the total recalibration stall cycles.  Runs the batched
    kernel (:func:`~repro.sim.vector_replay.replay_ehc_vectorized`)
    unless the predictor is ineligible or ``REPRO_NO_VECTOR_REPLAY`` is
    set; the scalar loop is the reference both paths must agree with.
    """
    if vector_replay.use_vector(predictor):
        return vector_replay.replay_ehc_vectorized(stream, predictor)
    return _replay_ehc_scalar(stream, predictor)


def _replay_ehc_scalar(
    stream: OutcomeStream, predictor
) -> tuple[np.ndarray, float]:
    """Sequential expected-hit-count replay (the checked-mode oracle).

    Per miss the order is: prior events, dead-block lookup, LLC-hit
    observation (when the walk will hit at the LLC), time advance — then
    the miss's own events before the next lookup, exactly as the
    integrated loop does.
    """
    h = stream.hit_level
    n = len(h)
    num_levels = stream.num_levels
    dead = np.zeros(n, dtype=bool)
    miss_mask = h != 1
    miss_idx = np.nonzero(miss_mask)[0].tolist()
    miss_blocks = stream.block[miss_mask].tolist()
    miss_h = h[miss_mask].tolist()

    when = stream.llc_when.tolist()
    ops = stream.llc_op.tolist()
    eblocks = stream.llc_block.tolist()
    m = len(when)

    predict = predictor.predict_dead
    observe = predictor.observe_hit
    fill = predictor.on_llc_fill
    evict = predictor.on_llc_evict
    note = predictor.note_l1_miss

    stall = 0.0
    ei = 0
    out = []
    for pos, i in enumerate(miss_idx):
        while ei < m and when[ei] < i:
            if ops[ei] == EVENT_FILL:
                fill(eblocks[ei])
            else:
                evict(eblocks[ei])
            ei += 1
        out.append(predict(miss_blocks[pos]))
        if miss_h[pos] == num_levels:
            observe(miss_blocks[pos])
        stall += note()
    while ei < m:
        if ops[ei] == EVENT_FILL:
            fill(eblocks[ei])
        else:
            evict(eblocks[ei])
        ei += 1
    if out:
        dead[miss_mask] = np.asarray(out, dtype=bool)
    return dead, stall


#: Predictor state each batched kernel must leave exactly as its scalar
#: loop would, per scheme kind (dotted attribute paths).
_REPLAY_STATE = {
    "predictor": ("table._bits", "mirror._counts", "table_updates",
                  "engine.l1_misses", "engine.sweeps"),
    "levelpred": ("table._bits", "mirror._counts", "tags", "levels", "conf",
                  "table_updates", "_last", "engine.l1_misses",
                  "engine.sweeps"),
    "ehc": ("expected", "cur", "mirror._counts", "table_updates",
            "engine.l1_misses", "engine.sweeps"),
}


def _assert_replay_equivalent(
    stream: OutcomeStream,
    scheme: SchemeSpec,
    machine: MachineConfig,
    predictor,
    outputs: tuple,
    sequential,
) -> None:
    """Checked mode: a batched replay must match a sequential re-run.

    Builds a second fresh predictor, replays it with ``sequential`` (the
    scalar loop, called as ``sequential(stream, predictor)``), and
    compares every observable the evaluation consumes — each per-access
    output array, the stall cycles, the final predictor state listed in
    :data:`_REPLAY_STATE`, and the telemetry dict.  Any divergence is a
    bug in the batched kernel (or a predictor that wrongly passed
    :func:`vector_replay.eligible`).
    """
    reference = scheme.build_predictor(machine)
    expected = sequential(stream, reference)
    problems = []
    for k, (got, want) in enumerate(zip(outputs, expected)):
        if isinstance(got, np.ndarray):
            if not np.array_equal(got, want):
                bad = np.nonzero(got != want)[0]
                problems.append(
                    f"output {k}: {len(bad)} access(es) differ "
                    f"(first at access {int(bad[0])})"
                )
        elif got != want:
            problems.append(f"stall {got} != sequential {want}")
    for path in _REPLAY_STATE[scheme.kind]:
        got, want = attrgetter(path)(predictor), attrgetter(path)(reference)
        if isinstance(got, np.ndarray):
            if not np.array_equal(got, want):
                problems.append(f"final {path} differs")
        elif got != want:
            problems.append(f"final {path} {got!r} != sequential {want!r}")
    if predictor.stats() != reference.stats():
        problems.append(
            f"telemetry differs: {predictor.stats()} != {reference.stats()}"
        )
    if problems:
        raise ReproError(
            f"vectorized replay diverged from sequential for scheme "
            f"{scheme.name!r}: " + "; ".join(problems)
        )


def _replay_path(replay_span, predictor) -> bool:
    """Tag the replay span and count the path the replay will take."""
    vector = vector_replay.use_vector(predictor)
    path = "vector" if vector else "sequential"
    replay_span.tag(path=path)
    telemetry.count(f"replay.{path}")
    return vector


def evaluate_scheme(
    stream: OutcomeStream,
    machine: MachineConfig,
    scheme: SchemeSpec,
    workload: Workload,
    fill_energy_weight: float = 0.0,
    memory_latency: float = 0.0,
    memory_energy_nj: float = 0.0,
    mlp: float = 1.0,
    dram=None,
    checked: "bool | None" = None,
) -> SchemeResult:
    """Attribute latency and energy of ``scheme`` over the content stream.

    ``memory_latency``/``memory_energy_nj`` default to the paper's free
    data store; when non-zero, every memory-served access is charged the
    same way under every scheme (prediction changes which *caches* are
    probed, never whether memory is reached), which dilutes relative gains
    — the sensitivity the ``ext-memory`` experiment studies.

    Plain ReDHiP, LevelPred and EHC predictors replay through the batched
    NumPy kernels (:mod:`repro.sim.vector_replay`) unless
    ``REPRO_NO_VECTOR_REPLAY`` is set; ``checked`` (default: the
    ``REPRO_CHECKED`` environment) replays *both* paths and raises if they
    diverge in any observable — the equivalence oracle for the kernels.
    """
    # The zoo schemes walk (or skip) levels in patterns the binary
    # predicted-present flow below cannot express; they get dedicated
    # accounting paths that consume the same kernel and the same frozen
    # stream, so the existing flow stays byte-for-byte untouched.
    if scheme.kind in ("levelpred", "oracle_level"):
        return _evaluate_levelpred(
            stream, machine, scheme, workload,
            fill_energy_weight=fill_energy_weight,
            memory_latency=memory_latency,
            memory_energy_nj=memory_energy_nj,
            mlp=mlp, dram=dram, checked=checked,
        )
    if scheme.kind == "ehc":
        return _evaluate_ehc(
            stream, machine, scheme, workload,
            fill_energy_weight=fill_energy_weight,
            memory_latency=memory_latency,
            memory_energy_nj=memory_energy_nj,
            mlp=mlp, dram=dram, checked=checked,
        )

    kernel = ChargingKernel.for_scheme(machine, scheme)
    ledger = EnergyLedger()
    h = stream.hit_level
    n = stream.num_accesses
    num_levels = stream.num_levels
    miss_mask = h != 1
    l1_misses = int(miss_mask.sum())
    true_misses = int((h == 0).sum())

    # ---- prediction ------------------------------------------------------
    predictor = None
    stall = 0.0
    consulted = np.zeros(n, dtype=bool)
    if checked is None:
        checked = checking.enabled(None)
    if scheme.kind == "predictor":
        predictor = scheme.build_predictor(machine)
        with telemetry.span(
            "replay", scheme=scheme.name, workload=workload.name
        ) as replay_span:
            if _replay_path(replay_span, predictor):
                predicted, consulted, stall = vector_replay.replay_redhip_vectorized(
                    stream, predictor
                )
                if checked:
                    with telemetry.span("replay_equivalence_check"):
                        _assert_replay_equivalent(
                            stream, scheme, machine, predictor,
                            (predicted, consulted, stall), replay_predictor,
                        )
            else:
                predicted, consulted, stall = replay_predictor(stream, predictor)
        fn = int((~predicted & (h >= 2)).sum())
        if fn:
            raise ReproError(
                f"scheme {scheme.name!r} produced {fn} false negatives — "
                "it would serve stale data in hardware"
            )
    elif scheme.kind == "oracle":
        predicted = h != 0
    else:
        predicted = np.ones(n, dtype=bool)

    skips = int((~predicted & (h == 0) & miss_mask).sum())
    false_positives = int((predicted & (h == 0)).sum()) if scheme.skips_on_predicted_miss else 0

    # The accounting stages below are pure NumPy over frozen arrays; the
    # span makes their share of the wall time visible in `repro stats`.
    with telemetry.span("energy_accounting", scheme=scheme.name,
                        workload=workload.name):
        # ---- latency + probe energy ------------------------------------------
        lat = kernel.charge_l1_bulk(ledger, n)

        if scheme.consults_table:
            # Gated predictors answer some misses without a table consult;
            # only real consults pay the lookup delay and energy.
            kernel.charge_lookup_bulk(ledger, lat, consulted)

        # Per-level reach/hit masks, computed once here; the kernel turns
        # them into latency and per-category energy charges.
        level_tallies: dict[int, tuple[int, int]] = {}
        for level in range(2, num_levels + 1):
            reach = (h == 0) | (h >= level)
            if scheme.skips_on_predicted_miss:
                reach = reach & predicted
            hits = reach & (h == level)
            misses = reach & (h != level)
            n_reach = int(reach.sum())
            n_hits = int(hits.sum())
            level_tallies[level] = (n_reach, n_hits)
            kernel.charge_level_bulk(
                ledger, lat, level, hits, misses, n_reach, n_hits,
                hit_rank=stream.hit_rank,
            )

        # ---- main memory (the paper's free data store unless configured) -----
        kernel.charge_memory_bulk(
            ledger, lat, h == 0, stream.block, true_misses,
            memory_latency=memory_latency, memory_energy_nj=memory_energy_nj,
            dram=dram,
        )

        # ---- fills (optional accounting, identical across schemes) -----------
        kernel.charge_fills_bulk(ledger, h, true_misses, fill_energy_weight)

        # ---- memory-level parallelism (1.0 = the paper's serialized model) ---
        lat = kernel.mlp_adjust(lat, mlp)

        # ---- predictor maintenance -------------------------------------------
        predictor_stats: dict = {}
        if predictor is not None:
            kernel.charge_predictor_maintenance(
                ledger, getattr(predictor, "table_updates", 0),
                predictor.maintenance_energy_nj(),
            )
            predictor_stats = predictor.stats()

        # ---- timing ------------------------------------------------------------
        timing = kernel.run_timing(
            core_ids=stream.core.astype(np.int64),
            gaps=stream.gap,
            latencies=lat,
            cpis=workload.cpis,
            stall_cycles=stall,
        )
        static_nj = kernel.static_energy_nj(
            timing.exec_cycles, include_pt=scheme.consults_table
        )

        # ---- per-level accounting under this scheme ---------------------------
        level_lookups = {1: n}
        level_hits = {1: n - l1_misses}
        for level, (n_reach, n_hits) in level_tallies.items():
            level_lookups[level] = n_reach
            level_hits[level] = n_hits
        hit_rates = {
            lvl: (level_hits[lvl] / level_lookups[lvl] if level_lookups[lvl] else 0.0)
            for lvl in level_lookups
        }

        return SchemeResult(
            scheme=scheme.name,
            workload=workload.name,
            machine=machine.name,
            timing=timing,
            ledger=ledger,
            static_nj=static_nj,
            hit_rates=hit_rates,
            level_lookups=level_lookups,
            level_hits=level_hits,
            l1_misses=l1_misses,
            skips=skips,
            false_positives=false_positives,
            true_misses=true_misses,
            recal_stall_cycles=stall,
            predictor_stats=predictor_stats,
        )


def _evaluate_levelpred(
    stream: OutcomeStream,
    machine: MachineConfig,
    scheme: SchemeSpec,
    workload: Workload,
    *,
    fill_energy_weight: float,
    memory_latency: float,
    memory_energy_nj: float,
    mlp: float,
    dram,
    checked: "bool | None",
) -> SchemeResult:
    """Level prediction (``levelpred``) and its oracle (``oracle_level``).

    Access flow per L1 miss: a confident presence miss skips every level
    (ReDHiP's move); a confident level prediction pays exactly one probe
    at the predicted level, plus — on a mispredict — the full serial
    recovery walk from L2; no confident prediction walks serially.  The
    oracle variant probes exactly the true hit level with no table.
    """
    kernel = ChargingKernel.for_scheme(machine, scheme)
    ledger = EnergyLedger()
    h = stream.hit_level
    n = stream.num_accesses
    num_levels = stream.num_levels
    miss_mask = h != 1
    l1_misses = int(miss_mask.sum())
    true_misses = int((h == 0).sum())
    if checked is None:
        checked = checking.enabled(None)

    predictor = None
    stall = 0.0
    if scheme.kind == "levelpred":
        predictor = scheme.build_predictor(machine)
        pcs = _per_access_pcs(stream, workload)
        with telemetry.span(
            "replay", scheme=scheme.name, workload=workload.name
        ) as replay_span:
            vector = _replay_path(replay_span, predictor)
            telemetry.count("replay.levelpred")
            pred_level, confident, stall = replay_level_predictor(
                stream, predictor, pcs
            )
            if vector and checked:
                with telemetry.span("replay_equivalence_check"):
                    _assert_replay_equivalent(
                        stream, scheme, machine, predictor,
                        (pred_level, confident, stall),
                        partial(_replay_level_predictor_scalar, pcs=pcs),
                    )
        skip_mask = miss_mask & confident & (pred_level == 0)
        fn = int((skip_mask & (h >= 2)).sum())
        if fn:
            raise ReproError(
                f"scheme {scheme.name!r} produced {fn} false negatives — "
                "it would serve stale data in hardware"
            )
        single_mask = miss_mask & confident & (pred_level >= 2)
        unconfident_mask = miss_mask & ~confident
        false_positives = int((miss_mask & ~skip_mask & (h == 0)).sum())
    else:  # oracle_level: perfect level knowledge, no hardware
        pred_level = h.astype(np.int64)
        skip_mask = miss_mask & (h == 0)
        single_mask = miss_mask & (h >= 2)
        unconfident_mask = np.zeros(n, dtype=bool)
        false_positives = 0

    mispredict_mask = single_mask & (h != pred_level)
    correct_mask = single_mask & ~mispredict_mask
    walk_mask = unconfident_mask | mispredict_mask
    skips = int(skip_mask.sum())

    with telemetry.span("energy_accounting", scheme=scheme.name,
                        workload=workload.name):
        lat = kernel.charge_l1_bulk(ledger, n)
        if scheme.consults_table:
            kernel.charge_lookup_bulk(ledger, lat, miss_mask)

        # Two charge passes per level: the serial-walk probes (unconfident
        # walks + mispredict recovery walks) and the single predicted-level
        # probes.  A mispredicting access can legitimately probe the same
        # level twice — once as its confident single, once again inside
        # its recovery walk — which is why the passes stay separate.
        level_tallies: dict[int, tuple[int, int]] = {}
        for level in range(2, num_levels + 1):
            walk_reach = walk_mask & ((h == 0) | (h >= level))
            walk_hits = walk_reach & (h == level)
            walk_misses = walk_reach & (h != level)
            singles_here = single_mask & (pred_level == level)
            single_hits = singles_here & correct_mask
            single_misses = singles_here & mispredict_mask
            n_walk = int(walk_reach.sum())
            n_walk_hits = int(walk_hits.sum())
            n_singles = int(singles_here.sum())
            n_single_hits = int(single_hits.sum())
            kernel.charge_level_bulk(
                ledger, lat, level, walk_hits, walk_misses, n_walk,
                n_walk_hits, hit_rank=stream.hit_rank,
            )
            kernel.charge_level_bulk(
                ledger, lat, level, single_hits, single_misses, n_singles,
                n_single_hits, hit_rank=stream.hit_rank,
            )
            level_tallies[level] = (n_walk + n_singles,
                                    n_walk_hits + n_single_hits)

        kernel.charge_memory_bulk(
            ledger, lat, h == 0, stream.block, true_misses,
            memory_latency=memory_latency, memory_energy_nj=memory_energy_nj,
            dram=dram,
        )
        kernel.charge_fills_bulk(ledger, h, true_misses, fill_energy_weight)
        lat = kernel.mlp_adjust(lat, mlp)

        predictor_stats: dict = {}
        if predictor is not None:
            kernel.charge_predictor_maintenance(
                ledger, getattr(predictor, "table_updates", 0),
                predictor.maintenance_energy_nj(),
            )
            predictor_stats = predictor.stats()

        timing = kernel.run_timing(
            core_ids=stream.core.astype(np.int64),
            gaps=stream.gap,
            latencies=lat,
            cpis=workload.cpis,
            stall_cycles=stall,
        )
        static_nj = kernel.static_energy_nj(
            timing.exec_cycles, include_pt=scheme.consults_table
        )

        level_lookups = {1: n}
        level_hits = {1: n - l1_misses}
        for level, (n_reach, n_hits) in level_tallies.items():
            level_lookups[level] = n_reach
            level_hits[level] = n_hits
        hit_rates = {
            lvl: (level_hits[lvl] / level_lookups[lvl] if level_lookups[lvl] else 0.0)
            for lvl in level_lookups
        }

    if checked and scheme.kind == "levelpred":
        checking.check_levelpred_conservation(
            ctx=checking.evaluation_context(machine.name, workload.name,
                                            scheme.name),
            l1_misses=l1_misses,
            skips=skips,
            correct_singles=int(correct_mask.sum()),
            mispredicts=int(mispredict_mask.sum()),
            unconfident=int(unconfident_mask.sum()),
            walks=int(walk_mask.sum()),
            walk_reach_l2=int((walk_mask & ((h == 0) | (h >= 2))).sum()),
        )

    return SchemeResult(
        scheme=scheme.name,
        workload=workload.name,
        machine=machine.name,
        timing=timing,
        ledger=ledger,
        static_nj=static_nj,
        hit_rates=hit_rates,
        level_lookups=level_lookups,
        level_hits=level_hits,
        l1_misses=l1_misses,
        skips=skips,
        false_positives=false_positives,
        true_misses=true_misses,
        recal_stall_cycles=stall,
        predictor_stats=predictor_stats,
    )


def _evaluate_ehc(
    stream: OutcomeStream,
    machine: MachineConfig,
    scheme: SchemeSpec,
    workload: Workload,
    *,
    fill_energy_weight: float,
    memory_latency: float,
    memory_energy_nj: float,
    mlp: float,
    dram,
    checked: "bool | None",
) -> SchemeResult:
    """Expected-hit-count evaluation: full walk, but LLC probes for
    predicted-dead blocks degrade to phased (tag-then-data) mode.

    No level is ever skipped, so ``skips``/``false_positives`` stay 0 and
    there is no false-negative hazard — the prediction only chooses how
    the LLC probe is issued.
    """
    kernel = ChargingKernel.for_scheme(machine, scheme)
    ledger = EnergyLedger()
    h = stream.hit_level
    n = stream.num_accesses
    num_levels = stream.num_levels
    miss_mask = h != 1
    l1_misses = int(miss_mask.sum())
    true_misses = int((h == 0).sum())
    if checked is None:
        checked = checking.enabled(None)

    predictor = scheme.build_predictor(machine)
    with telemetry.span(
        "replay", scheme=scheme.name, workload=workload.name
    ) as replay_span:
        vector = _replay_path(replay_span, predictor)
        telemetry.count("replay.ehc")
        dead, stall = replay_ehc(stream, predictor)
        if vector and checked:
            with telemetry.span("replay_equivalence_check"):
                _assert_replay_equivalent(
                    stream, scheme, machine, predictor, (dead, stall),
                    _replay_ehc_scalar,
                )

    with telemetry.span("energy_accounting", scheme=scheme.name,
                        workload=workload.name):
        lat = kernel.charge_l1_bulk(ledger, n)
        kernel.charge_lookup_bulk(ledger, lat, miss_mask)

        level_tallies: dict[int, tuple[int, int]] = {}
        for level in range(2, num_levels + 1):
            reach = (h == 0) | (h >= level)
            hits = reach & (h == level)
            misses = reach & (h != level)
            n_reach = int(reach.sum())
            n_hits = int(hits.sum())
            level_tallies[level] = (n_reach, n_hits)
            if level == num_levels:
                # Predicted-dead blocks fire the LLC in phased mode; the
                # rest keep the plan's discipline.  Two charge passes,
                # disjoint masks.
                live = reach & ~dead
                gated = reach & dead
                kernel.charge_level_bulk(
                    ledger, lat, level, hits & ~dead, misses & ~dead,
                    int(live.sum()), int((hits & ~dead).sum()),
                    hit_rank=stream.hit_rank,
                )
                kernel.charge_level_bulk(
                    ledger, lat, level, hits & dead, misses & dead,
                    int(gated.sum()), int((hits & dead).sum()),
                    hit_rank=stream.hit_rank, mode=PROBE_PHASED,
                )
            else:
                kernel.charge_level_bulk(
                    ledger, lat, level, hits, misses, n_reach, n_hits,
                    hit_rank=stream.hit_rank,
                )

        kernel.charge_memory_bulk(
            ledger, lat, h == 0, stream.block, true_misses,
            memory_latency=memory_latency, memory_energy_nj=memory_energy_nj,
            dram=dram,
        )
        kernel.charge_fills_bulk(ledger, h, true_misses, fill_energy_weight)
        lat = kernel.mlp_adjust(lat, mlp)

        kernel.charge_predictor_maintenance(
            ledger, getattr(predictor, "table_updates", 0),
            predictor.maintenance_energy_nj(),
        )
        predictor_stats = predictor.stats()

        timing = kernel.run_timing(
            core_ids=stream.core.astype(np.int64),
            gaps=stream.gap,
            latencies=lat,
            cpis=workload.cpis,
            stall_cycles=stall,
        )
        static_nj = kernel.static_energy_nj(
            timing.exec_cycles, include_pt=scheme.consults_table
        )

        level_lookups = {1: n}
        level_hits = {1: n - l1_misses}
        for level, (n_reach, n_hits) in level_tallies.items():
            level_lookups[level] = n_reach
            level_hits[level] = n_hits
        hit_rates = {
            lvl: (level_hits[lvl] / level_lookups[lvl] if level_lookups[lvl] else 0.0)
            for lvl in level_lookups
        }

    if checked:
        checking.check_ehc_counters(
            predictor,
            checking.evaluation_context(machine.name, workload.name,
                                        scheme.name),
        )

    return SchemeResult(
        scheme=scheme.name,
        workload=workload.name,
        machine=machine.name,
        timing=timing,
        ledger=ledger,
        static_nj=static_nj,
        hit_rates=hit_rates,
        level_lookups=level_lookups,
        level_hits=level_hits,
        l1_misses=l1_misses,
        skips=0,
        false_positives=0,
        true_misses=true_misses,
        recal_stall_cycles=stall,
        predictor_stats=predictor_stats,
    )
