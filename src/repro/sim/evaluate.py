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
from operator import attrgetter

import numpy as np

from repro import checking, telemetry
from repro.core.redhip import ReDHiPController
from repro.energy.accounting import EnergyLedger
from repro.energy.params import MachineConfig
from repro.energy.timing import TimingResult
from repro.hierarchy.events import EVENT_FILL, OutcomeStream
from repro.predictors.base import PresencePredictor, SchemeSpec
from repro.predictors.cbf_scheme import CBFPredictor
from repro.predictors.ehc import EHCController
from repro.predictors.levelpred import LevelPredController
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
    """Replay L1-miss lookups against the LLC event stream.

    Returns, per L1 miss (in :class:`OutcomeStream` order), the
    presence prediction and whether the lookup *consulted* the table
    (False where a gated predictor answered without touching it), plus
    the total recalibration stall cycles.  Event ordering matches
    hardware: fills/evictions caused by access *i* are applied after
    access *i*'s lookup (the lookup races ahead of the fill).  Eligible
    predictors run their batched kernel (:mod:`repro.sim.vector_replay`)
    unless ``REPRO_NO_VECTOR_REPLAY`` is set; everything else, and the
    checked-mode reference, is :func:`_replay_predictor_scalar`.
    """
    if vector_replay.use_vector(predictor):
        if type(predictor) is CBFPredictor:
            return vector_replay.replay_cbf_vectorized(stream, predictor)
        return vector_replay.replay_redhip_vectorized(stream, predictor)
    return _replay_predictor_scalar(stream, predictor)


def _scalar_misses(stream: OutcomeStream, predictor):
    """The event walk every scalar oracle shares: yields ``(block,
    hit_level)`` per L1 miss after applying to ``predictor`` the LLC
    events of every earlier access, then drains the remaining events so
    predictor telemetry covers the full run."""
    when = stream.llc_when.tolist()
    ops = stream.llc_op.tolist()
    eblocks = stream.llc_block.tolist()
    m = len(when)
    fill = predictor.on_llc_fill
    evict = predictor.on_llc_evict

    ei = 0
    for i, block, level in zip(stream.at.tolist(), stream.block.tolist(),
                               stream.hit_level.tolist()):
        while ei < m and when[ei] < i:
            if ops[ei] == EVENT_FILL:
                fill(eblocks[ei])
            else:
                evict(eblocks[ei])
            ei += 1
        yield block, level
    for ei in range(ei, m):
        if ops[ei] == EVENT_FILL:
            fill(eblocks[ei])
        else:
            evict(eblocks[ei])


def _replay_predictor_scalar(
    stream: OutcomeStream, predictor: PresencePredictor
) -> tuple[np.ndarray, np.ndarray, float]:
    """Sequential presence replay (the checked-mode oracle): one Python
    call per L1 miss and per LLC event, in :func:`replay_predictor`'s
    event order."""
    lookup = predictor.predict_present
    note = predictor.note_l1_miss
    stall = 0.0
    out = []
    consults = []
    for block, _level in _scalar_misses(stream, predictor):
        out.append(lookup(block))
        consults.append(predictor.last_consulted)
        stall += note()
    return np.array(out, dtype=bool), np.array(consults, dtype=bool), stall


def replay_level_predictor(
    stream: OutcomeStream, predictor
) -> tuple[np.ndarray, np.ndarray, float]:
    """Replay level-prediction lookups over the event stream.

    The predictor indexes by each L1 miss's program counter
    (:attr:`OutcomeStream.pc`) XOR its block.  Returns per-L1-miss
    predicted levels (0 = memory/no prediction) and confidence flags,
    and the total recalibration stall cycles.  Runs the batched kernel
    (:func:`~repro.sim.vector_replay.replay_levelpred_vectorized`) unless
    the predictor is ineligible or ``REPRO_NO_VECTOR_REPLAY`` is set;
    the scalar loop is the reference both paths must agree with.
    """
    if vector_replay.use_vector(predictor):
        return vector_replay.replay_levelpred_vectorized(stream, predictor)
    return _replay_level_predictor_scalar(stream, predictor)


def _replay_level_predictor_scalar(
    stream: OutcomeStream, predictor
) -> tuple[np.ndarray, np.ndarray, float]:
    """Sequential level-prediction replay (the checked-mode oracle).

    Event interleaving matches :func:`replay_predictor`: events caused by
    earlier accesses land before access *i*'s lookup, access *i*'s own
    events land before the next miss's lookup, and the train step
    observes the true outcome between the lookup and the time advance —
    the same order the integrated loop performs.
    """
    predict = predictor.predict
    train = predictor.train
    note = predictor.note_l1_miss
    stall = 0.0
    levels_out = []
    conf_out = []
    # The walk goes first in the zip so its trailing drain still runs.
    for (block, level), pc in zip(_scalar_misses(stream, predictor),
                                  stream.pc.tolist()):
        predicted, conf = predict(pc, block)
        levels_out.append(predicted)
        conf_out.append(conf)
        train(pc, block, level)
        stall += note()
    return (np.array(levels_out, dtype=np.int64),
            np.array(conf_out, dtype=bool), stall)


def replay_ehc(
    stream: OutcomeStream, predictor
) -> tuple[np.ndarray, float]:
    """Replay expected-hit-count lookups over the events.

    Returns the per-L1-miss predicted-dead flags and the total
    recalibration stall cycles.  Runs the batched kernel
    (:func:`~repro.sim.vector_replay.replay_ehc_vectorized`) unless the
    predictor is ineligible or ``REPRO_NO_VECTOR_REPLAY`` is set; the
    scalar loop is the reference both paths must agree with.
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
    num_levels = stream.num_levels
    predict = predictor.predict_dead
    observe = predictor.observe_hit
    note = predictor.note_l1_miss
    stall = 0.0
    out = []
    for block, level in _scalar_misses(stream, predictor):
        out.append(predict(block))
        if level == num_levels:
            observe(block)
        stall += note()
    return np.array(out, dtype=bool), stall


#: Predictor state each batched kernel must leave exactly as its scalar
#: loop would, per predictor class (dotted attribute paths).
_REPLAY_STATE = {
    ReDHiPController: ("table._bits", "mirror._counts", "table_updates",
                       "engine.l1_misses", "engine.sweeps"),
    CBFPredictor: ("filter._counts", "filter._disabled", "filter.inserts",
                   "filter.deletes", "filter.saturations", "table_updates"),
    LevelPredController: ("table._bits", "mirror._counts", "tags", "levels",
                          "conf", "table_updates", "_last",
                          "engine.l1_misses", "engine.sweeps"),
    EHCController: ("expected", "cur", "mirror._counts", "table_updates",
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
    compares every observable the evaluation consumes — each per-miss
    output array, the stall cycles, the final predictor state listed in
    :data:`_REPLAY_STATE`, and the telemetry dict.  A differing output
    names the access index of its first differing miss.  Any divergence
    is a bug in the batched kernel (or a predictor that wrongly passed
    :func:`vector_replay.eligible`).
    """
    reference = scheme.build_predictor(machine)
    expected = sequential(stream, reference)
    problems = []
    for k, (got, want) in enumerate(zip(outputs, expected)):
        if isinstance(got, np.ndarray):
            if got.shape != want.shape:
                problems.append(f"output {k}: shape {got.shape} != "
                                f"sequential {want.shape}")
            elif not np.array_equal(got, want):
                bad = np.flatnonzero(got != want)
                problems.append(
                    f"output {k}: {len(bad)} L1 miss(es) differ (first at "
                    f"access {int(stream.at[bad[0]])})"
                )
        elif got != want:
            problems.append(f"stall {got} != sequential {want}")
    for path in _REPLAY_STATE[type(predictor)]:
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


def _replay_binary(stream: OutcomeStream, predictor):
    """The binary flow's replay.  ReDHiP calls its kernel directly, so a
    per-layer profile tells ReDHiP replays from dispatched (CBF, scalar)
    ones."""
    if type(predictor) is ReDHiPController and vector_replay.use_vector(predictor):
        return vector_replay.replay_redhip_vectorized(stream, predictor)
    return replay_predictor(stream, predictor)


def evaluate_scheme(
    stream: OutcomeStream,
    machine: MachineConfig,
    scheme: SchemeSpec,
    workload: "str | Workload",
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

    Every scheme acts only at L1 misses, so the replay and every charge
    run over the stream's misses; L1 hits pay the L1 probe and nothing
    else.  The stream carries everything the evaluation reads (PCs,
    per-core CPIs and totals), so ``workload`` only names the run — a
    name or the :class:`Workload` itself.  Plain ReDHiP, CBF,
    LevelPred and EHC predictors replay through the batched NumPy kernels
    (:mod:`repro.sim.vector_replay`) unless ``REPRO_NO_VECTOR_REPLAY`` is
    set; ``checked`` (default: the ``REPRO_CHECKED`` environment) replays
    *both* paths and raises if they diverge in any observable — the
    equivalence oracle for the kernels.
    """
    if checked is None:
        checked = checking.enabled(None)
    workload_name = workload if isinstance(workload, str) else workload.name
    run = _Evaluation(stream, machine, scheme, workload_name, checked,
                      fill_energy_weight, memory_latency, memory_energy_nj,
                      mlp, dram)
    # The zoo schemes walk (or skip) levels in patterns the binary
    # predicted-present flow cannot express; they get their own decision
    # and per-level charges, then the same shared tail.
    if scheme.kind in ("levelpred", "oracle_level"):
        return _evaluate_levelpred(run)
    if scheme.kind == "ehc":
        return _evaluate_ehc(run)
    return _evaluate_presence(run)


class _Evaluation:
    """One (stream, scheme) evaluation: what the three flows share — the
    replay wrapper, the per-miss charging steps and the charging tail."""

    def __init__(self, stream: OutcomeStream, machine: MachineConfig,
                 scheme: SchemeSpec, workload_name: str, checked: bool,
                 fill_energy_weight: float, memory_latency: float,
                 memory_energy_nj: float, mlp: float, dram) -> None:
        self.stream = stream
        self.machine = machine
        self.scheme = scheme
        self.workload_name = workload_name
        self.checked = checked
        self.fill_energy_weight = fill_energy_weight
        self.memory_latency = memory_latency
        self.memory_energy_nj = memory_energy_nj
        self.mlp = mlp
        self.dram = dram
        self.kernel = ChargingKernel.for_scheme(machine, scheme)
        self.ledger = EnergyLedger()
        self.h = stream.hit_level

    def context(self) -> dict:
        return checking.evaluation_context(self.machine.name, self.workload_name,
                                           self.scheme.name)

    def replay(self, replay, sequential, counter: "str | None" = None):
        """Build the scheme's predictor and run ``replay(stream,
        predictor)`` in a ``replay`` span tagged with the path it takes.
        In checked mode a batched replay is re-run through ``sequential``
        (its scalar oracle) and must match it exactly.  Returns the
        predictor and the replay's per-miss outputs."""
        scheme = self.scheme
        predictor = scheme.build_predictor(self.machine)
        with telemetry.span(
            "replay", scheme=scheme.name, workload=self.workload_name
        ) as replay_span:
            vector = vector_replay.use_vector(predictor)
            path = "vector" if vector else "sequential"
            replay_span.tag(path=path)
            telemetry.count(f"replay.{path}")
            if counter is not None:
                telemetry.count(counter)
            outputs = replay(self.stream, predictor)
            if vector and self.checked:
                with telemetry.span("replay_equivalence_check"):
                    _assert_replay_equivalent(self.stream, scheme, self.machine,
                                              predictor, outputs, sequential)
        return predictor, outputs

    def refuse_false_negatives(self, mask: np.ndarray) -> None:
        """``mask`` marks misses skipped although a cache held the block."""
        fn = int(np.count_nonzero(mask))
        if fn:
            raise ReproError(
                f"scheme {self.scheme.name!r} produced {fn} false negatives — "
                "it would serve stale data in hardware"
            )

    def accounting(self):
        # The accounting stages are pure NumPy over frozen arrays; the
        # span makes their share of the wall time visible in `repro stats`.
        return telemetry.span("energy_accounting", scheme=self.scheme.name,
                              workload=self.workload_name)

    def charge_start(self, consulted: "np.ndarray | None") -> np.ndarray:
        """L1 probes for every access, table lookups for the ``consulted``
        misses (None: no lookup charge); returns the per-miss latencies."""
        lat = self.kernel.charge_l1_bulk(self.ledger, self.stream.num_accesses,
                                         self.stream.num_misses)
        if consulted is not None:
            self.kernel.charge_lookup_bulk(self.ledger, lat, consulted)
        return lat

    def charge_level(self, lat: np.ndarray, level: int, reach: np.ndarray,
                     mode: "str | None" = None) -> tuple[int, int]:
        """Probe ``level`` for the ``reach`` misses; returns (probes, hits)."""
        hits = reach & (self.h == level)
        n_reach = int(np.count_nonzero(reach))
        n_hits = int(np.count_nonzero(hits))
        self.kernel.charge_level_bulk(
            self.ledger, lat, level, hits, reach & (self.h != level), n_reach,
            n_hits, hit_rank=self.stream.hit_rank, mode=mode,
        )
        return n_reach, n_hits

    def finish(self, lat: np.ndarray, level_tallies: dict, predictor,
               stall: float, skips: int = 0,
               false_positives: int = 0) -> SchemeResult:
        """The shared tail: memory, fills, MLP, predictor maintenance,
        timing, static energy and the per-level hit rates."""
        kernel, ledger = self.kernel, self.ledger
        stream, scheme = self.stream, self.scheme
        memory = self.h == 0
        true_misses = int(np.count_nonzero(memory))

        # ---- main memory (the paper's free data store unless configured) -----
        kernel.charge_memory_bulk(
            ledger, lat, memory, stream.block, true_misses,
            memory_latency=self.memory_latency,
            memory_energy_nj=self.memory_energy_nj, dram=self.dram,
        )
        # ---- fills (optional accounting, identical across schemes) -----------
        kernel.charge_fills_bulk(ledger, self.h, true_misses,
                                 self.fill_energy_weight)
        # ---- memory-level parallelism (1.0 = the paper's serialized model) ---
        lat = kernel.mlp_adjust(lat, self.mlp)

        # ---- predictor maintenance -------------------------------------------
        predictor_stats: dict = {}
        if predictor is not None:
            kernel.charge_predictor_maintenance(
                ledger, getattr(predictor, "table_updates", 0),
                predictor.maintenance_energy_nj(),
            )
            predictor_stats = predictor.stats()

        # ---- timing ------------------------------------------------------------
        timing = kernel.run_timing(stream, lat, stall)
        static_nj = kernel.static_energy_nj(
            timing.exec_cycles, include_pt=scheme.consults_table
        )

        # ---- per-level accounting under this scheme ---------------------------
        n = stream.num_accesses
        level_lookups = {1: n}
        level_hits = {1: n - stream.num_misses}
        for level, (n_reach, n_hits) in level_tallies.items():
            level_lookups[level] = n_reach
            level_hits[level] = n_hits
        hit_rates = {
            lvl: (level_hits[lvl] / level_lookups[lvl] if level_lookups[lvl] else 0.0)
            for lvl in level_lookups
        }

        return SchemeResult(
            scheme=scheme.name,
            workload=self.workload_name,
            machine=self.machine.name,
            timing=timing,
            ledger=ledger,
            static_nj=static_nj,
            hit_rates=hit_rates,
            level_lookups=level_lookups,
            level_hits=level_hits,
            l1_misses=stream.num_misses,
            skips=skips,
            false_positives=false_positives,
            true_misses=true_misses,
            recal_stall_cycles=stall,
            predictor_stats=predictor_stats,
        )


def _evaluate_presence(run: _Evaluation) -> SchemeResult:
    """The binary predicted-present flow: base, oracle and every presence
    predictor.  A miss predicted absent skips every level below L1."""
    h, scheme = run.h, run.scheme
    predictor = None
    stall = 0.0
    consulted = np.zeros(len(h), dtype=bool)
    if scheme.kind == "predictor":
        predictor, (predicted, consulted, stall) = run.replay(
            _replay_binary, _replay_predictor_scalar)
        run.refuse_false_negatives(~predicted & (h >= 2))
    elif scheme.kind == "oracle":
        predicted = h != 0
    else:
        predicted = np.ones(len(h), dtype=bool)

    absent = h == 0
    skips = int(np.count_nonzero(~predicted & absent))
    false_positives = (int(np.count_nonzero(predicted & absent))
                       if scheme.skips_on_predicted_miss else 0)

    with run.accounting():
        # Gated predictors answer some misses without a table consult;
        # only real consults pay the lookup delay and energy.
        lat = run.charge_start(consulted if scheme.consults_table else None)
        level_tallies: dict[int, tuple[int, int]] = {}
        for level in range(2, run.stream.num_levels + 1):
            reach = absent | (h >= level)
            if scheme.skips_on_predicted_miss:
                reach &= predicted
            level_tallies[level] = run.charge_level(lat, level, reach)
        return run.finish(lat, level_tallies, predictor, stall, skips,
                          false_positives)


def _evaluate_levelpred(run: _Evaluation) -> SchemeResult:
    """Level prediction (``levelpred``) and its oracle (``oracle_level``).

    Access flow per L1 miss: a confident presence miss skips every level
    (ReDHiP's move); a confident level prediction pays exactly one probe
    at the predicted level, plus — on a mispredict — the full serial
    recovery walk from L2; no confident prediction walks serially.  The
    oracle variant probes exactly the true hit level with no table.
    """
    h, scheme = run.h, run.scheme
    predictor = None
    stall = 0.0
    if scheme.kind == "levelpred":
        predictor, (pred_level, confident, stall) = run.replay(
            replay_level_predictor, _replay_level_predictor_scalar,
            counter="replay.levelpred",
        )
        skip = confident & (pred_level == 0)
        run.refuse_false_negatives(skip & (h >= 2))
        single = confident & (pred_level >= 2)
        unconfident = ~confident
        false_positives = int(np.count_nonzero(~skip & (h == 0)))
    else:  # oracle_level: perfect level knowledge, no hardware
        pred_level = h.astype(np.int64)
        skip = h == 0
        single = h >= 2
        unconfident = np.zeros(len(h), dtype=bool)
        false_positives = 0

    mispredict = single & (h != pred_level)
    walk = unconfident | mispredict
    if run.checked and predictor is not None:
        checking.check_levelpred_conservation(
            ctx=run.context(),
            l1_misses=len(h),
            skips=int(np.count_nonzero(skip)),
            correct_singles=int(np.count_nonzero(single & ~mispredict)),
            mispredicts=int(np.count_nonzero(mispredict)),
            unconfident=int(np.count_nonzero(unconfident)),
            walks=int(np.count_nonzero(walk)),
            walk_reach_l2=int(np.count_nonzero(walk & ((h == 0) | (h >= 2)))),
        )

    with run.accounting():
        all_misses = np.ones(len(h), dtype=bool)
        lat = run.charge_start(all_misses if scheme.consults_table else None)
        # Two charge passes per level: the serial-walk probes (unconfident
        # walks + mispredict recovery walks) and the single predicted-level
        # probes.  A mispredicting access can legitimately probe the same
        # level twice — once as its confident single, once again inside
        # its recovery walk — which is why the passes stay separate.
        level_tallies: dict[int, tuple[int, int]] = {}
        for level in range(2, run.stream.num_levels + 1):
            walks = run.charge_level(lat, level, walk & ((h == 0) | (h >= level)))
            singles = run.charge_level(lat, level, single & (pred_level == level))
            level_tallies[level] = (walks[0] + singles[0], walks[1] + singles[1])
        return run.finish(lat, level_tallies, predictor, stall,
                          int(np.count_nonzero(skip)), false_positives)


def _evaluate_ehc(run: _Evaluation) -> SchemeResult:
    """Expected-hit-count evaluation: full walk, but LLC probes for
    predicted-dead blocks degrade to phased (tag-then-data) mode.

    No level is ever skipped, so ``skips``/``false_positives`` stay 0 and
    there is no false-negative hazard — the prediction only chooses how
    the LLC probe is issued.
    """
    h = run.h
    num_levels = run.stream.num_levels
    predictor, (dead, stall) = run.replay(replay_ehc, _replay_ehc_scalar,
                                          counter="replay.ehc")
    if run.checked:
        checking.check_ehc_counters(predictor, run.context())

    with run.accounting():
        lat = run.charge_start(np.ones(len(h), dtype=bool))
        level_tallies: dict[int, tuple[int, int]] = {}
        for level in range(2, num_levels + 1):
            reach = (h == 0) | (h >= level)
            if level < num_levels:
                level_tallies[level] = run.charge_level(lat, level, reach)
                continue
            # Predicted-dead blocks fire the LLC in phased mode; the rest
            # keep the plan's discipline.  Two charge passes, disjoint masks.
            live = run.charge_level(lat, level, reach & ~dead)
            gated = run.charge_level(lat, level, reach & dead, mode=PROBE_PHASED)
            level_tallies[level] = (live[0] + gated[0], live[1] + gated[1])
        return run.finish(lat, level_tallies, predictor, stall)
