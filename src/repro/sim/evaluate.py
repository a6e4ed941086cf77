"""Phase 2: scheme evaluation over a frozen outcome stream.

Given the scheme-independent content trajectory from
:mod:`repro.sim.content`, this module replays one scheme's predictor over
the stream's L1 misses and turns what it answered into one *decision
code* per miss: the decision, the level serving the miss and that
level's MRU bit.  Every latency and energy charge comes from the
charging kernel (:mod:`repro.sim.charging` — see its docstring for the
full policy, which the integrated simulator shares): a per-scheme
:class:`~repro.sim.charging.CodeTable` says what each code costs, and the
evaluation charges one histogram of its misses' codes against it.

A predicted LLC miss skips every level below L1: no probes, no latency
beyond L1 + table, straight to (free) memory.  False negatives are
structurally impossible for the shipped predictors; the evaluator enforces
this with a hard error, because a silent false negative would mean serving
stale data in real hardware.
"""

from __future__ import annotations

import time
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
from repro.sim.charging import ChargingKernel, code_table, memory_charges
from repro.util.validation import ReproError
from repro.workloads.trace import Workload

__all__ = [
    "SchemeResult",
    "evaluate_scheme",
    "evaluate_schemes",
    "replay_predictor",
    "replay_level_predictor",
    "replay_ehc",
    "result_facts",
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
#: loop would, per predictor class (dotted attribute paths; an engine's
#: ``__dict__`` holds its miss, sweep and fill counts).
_REPLAY_STATE = {
    ReDHiPController: ("table._bits", "mirror._counts", "table_updates",
                       "engine.__dict__"),
    CBFPredictor: ("filter._counts", "filter._disabled", "filter.inserts",
                   "filter.deletes", "filter.saturations", "table_updates"),
    LevelPredController: ("table._bits", "mirror._counts", "tags", "levels",
                          "conf", "table_updates", "_last", "engine.__dict__"),
    EHCController: ("expected", "cur", "mirror._counts", "table_updates",
                    "engine.__dict__"),
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


def _dispatch(kind: str) -> tuple:
    """A scheme kind's charging flow (:func:`~repro.sim.charging.code_table`)
    and, for table schemes, its replay, scalar oracle and replay counter.
    Looked up per call, so a profiler that swaps a replay sees its calls."""
    if kind == "predictor":
        return "presence", _replay_binary, _replay_predictor_scalar, None
    if kind == "levelpred":
        return ("levelpred", replay_level_predictor,
                _replay_level_predictor_scalar, "replay.levelpred")
    if kind == "ehc":
        return "ehc", replay_ehc, _replay_ehc_scalar, "replay.ehc"
    return "levelpred" if kind == "oracle_level" else "presence", None, None, None


@dataclass(eq=False)
class _Cell:
    """One scheme's way through :func:`evaluate_schemes`."""

    scheme: SchemeSpec
    flow: str
    replay: object
    sequential: object
    counter: "str | None"
    table: object = None
    predictor: object = None
    decided: "np.ndarray | None" = None
    stall: float = 0.0
    table_updates: int = 0
    maintenance_nj: float = 0.0
    predictor_stats: dict = field(default_factory=dict)
    replay_s: float = 0.0
    result: "SchemeResult | Exception | None" = None


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
    """Attribute latency and energy of ``scheme`` over the content stream:
    the one-cell case of :func:`evaluate_schemes`, raising what fails it.

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

    The replay's outputs become one decision code per miss; the cell is
    charged as one histogram of those codes against the scheme flow's
    :class:`~repro.sim.charging.CodeTable`.
    """
    (result,), _ = evaluate_schemes(
        stream, machine, [scheme], workload, fill_energy_weight=fill_energy_weight,
        memory_latency=memory_latency, memory_energy_nj=memory_energy_nj,
        mlp=mlp, dram=dram, checked=checked)
    if isinstance(result, Exception):
        raise result
    return result


def evaluate_schemes(
    stream: OutcomeStream,
    machine: MachineConfig,
    schemes,
    workload: "str | Workload",
    fill_energy_weight: float = 0.0,
    memory_latency: float = 0.0,
    memory_energy_nj: float = 0.0,
    mlp: float = 1.0,
    dram=None,
    checked: "bool | None" = None,
    stages: "dict | None" = None,
) -> tuple[list, list]:
    """Evaluate ``schemes`` over one stream together, as
    :func:`evaluate_scheme` evaluates one.

    Two passes over the batch.  The **replay pass** replays the cells one
    by one, each keeping one decision byte per miss; the batched kernels
    build each replay plan once per stream and table geometry, so cells
    that share a geometry share its plan.  The **charging pass** stacks
    the decision-code histograms of the cells that share a
    :class:`~repro.sim.charging.CodeTable` into one matrix and computes
    every cell's ledger counts, timing fold and static energy from it in
    array operations, each in the per-cell float order, so every result
    is the one :func:`evaluate_scheme` gives alone.

    Returns, per scheme, its :class:`SchemeResult` or the exception that
    failed it — a replay that raises or a false negative fails that cell
    alone — and its seconds: its own replay plus an equal share of the
    batch's shared work (the code tables and the charging pass).  In
    checked mode every cell of a batch of several is also evaluated alone
    and must match exactly.  ``stages``, when given, gains the seconds of
    the batch's replays (``replay``) and of its charging pass (``charge``).
    """
    start = time.perf_counter()
    if not schemes:
        return [], []
    if checked is None:
        checked = checking.enabled(None)
    workload_name = workload if isinstance(workload, str) else workload.name
    cells = [_Cell(scheme, *_dispatch(scheme.kind)) for scheme in schemes]
    _code_tables(machine, cells)
    # A predictor's tables can be large: each cell builds its own right
    # before its replay and drops it after, one at a time.
    for cell in cells:
        if cell.replay is None or cell.result is not None:
            continue
        began = time.perf_counter()
        try:
            cell.predictor = cell.scheme.build_predictor(machine)
            _replay(stream, machine, cell, workload_name, checked)
        except Exception as exc:
            cell.result = exc
        cell.predictor = None
        cell.replay_s = time.perf_counter() - began
    charging = time.perf_counter()
    _charge(stream, machine, [cell for cell in cells if cell.result is None],
            workload_name, checked, fill_energy_weight=fill_energy_weight,
            memory_latency=memory_latency, memory_energy_nj=memory_energy_nj,
            mlp=mlp, dram=dram)
    done = time.perf_counter()
    replay_s = sum(cell.replay_s for cell in cells)
    if stages is not None:
        stages["replay"] = stages.get("replay", 0.0) + replay_s
        stages["charge"] = stages.get("charge", 0.0) + done - charging
    results = [cell.result for cell in cells]
    shared = done - start - replay_s
    walls = [cell.replay_s + shared / len(cells) for cell in cells]
    if checked and len(cells) > 1:
        for k, scheme in enumerate(schemes):
            results[k] = _check_alone(results[k], stream, machine, scheme, workload,
                                      fill_energy_weight, memory_latency,
                                      memory_energy_nj, mlp, dram)
    return results, walls


def _replay(stream: OutcomeStream, machine: MachineConfig, cell: _Cell,
            workload_name: str, checked: bool) -> None:
    """Replay one cell's predictor into ``cell.decided`` and ``cell.stall``.
    The span is tagged with the replay's path; in checked mode a batched
    replay must match the cell's scalar oracle."""
    scheme, predictor = cell.scheme, cell.predictor
    with telemetry.span("replay", scheme=scheme.name,
                        workload=workload_name) as replay_span:
        vector = vector_replay.use_vector(predictor)
        path = "vector" if vector else "sequential"
        replay_span.tag(path=path)
        telemetry.count(f"replay.{path}")
        if cell.counter is not None:
            telemetry.count(cell.counter)
        *outputs, stall = cell.replay(stream, predictor)
        if vector and checked:
            with telemetry.span("replay_equivalence_check"):
                _assert_replay_equivalent(stream, scheme, machine, predictor,
                                          (*outputs, stall), cell.sequential)
    if checked and cell.flow == "ehc":
        checking.check_ehc_counters(predictor, checking.evaluation_context(
            machine.name, workload_name, scheme.name))
    # One byte a miss: the batch holds decisions, not replay outputs.
    cell.decided, cell.stall = cell.table.decide(*outputs), stall
    cell.table_updates = getattr(predictor, "table_updates", 0)
    cell.maintenance_nj = predictor.maintenance_energy_nj()
    cell.predictor_stats = predictor.stats()


def _code_tables(machine: MachineConfig, cells: list) -> None:
    """Each cell's :class:`~repro.sim.charging.CodeTable`, its kernel
    resolved once per distinct probe plan and lookup cost."""
    kernels: dict = {}
    for cell in cells:
        scheme = cell.scheme
        try:
            key = (scheme.phased_levels, scheme.way_predicted_levels,
                   scheme.resolve_lookup_energy(machine),
                   scheme.resolve_lookup_delay(machine))
            kernel = kernels.get(key)
            if kernel is None:
                kernel = kernels[key] = ChargingKernel.for_scheme(machine, scheme)
            cell.table = code_table(kernel, cell.flow, scheme.consults_table,
                                    scheme.skips_on_predicted_miss)
        except Exception as exc:
            cell.result = exc


def _charge(stream: OutcomeStream, machine: MachineConfig, cells: list,
            workload_name: str, checked: bool, fill_energy_weight: float,
            memory_latency: float, memory_energy_nj: float, mlp: float,
            dram) -> None:
    """The charging pass: one stacked histogram matrix per code table,
    then each cell's :class:`SchemeResult` (or its false-negative error)
    into ``cell.result``."""
    tables: dict = {}
    for cell in cells:
        tables.setdefault(cell.table, []).append(cell)
    memory = memory_charges(stream, dram)
    n, misses, levels = stream.num_accesses, stream.num_misses, range(2, stream.num_levels + 1)
    for table, group in tables.items():
        kernel = table.kernel
        codes, histograms = table.histograms(stream, [cell.decided for cell in group])
        rows = table.totals(histograms).tolist()
        fn, names = table.tally_rows["false_negatives"], table.tally_rows
        reach = [(lvl, names[f"reach{lvl}"]) for lvl in levels]
        hits = [(lvl, names[f"hits{lvl}"]) for lvl in levels]
        for cell, totals in zip(group, rows):
            if totals[fn]:
                cell.result = ReproError(
                    f"scheme {cell.scheme.name!r} produced {totals[fn]} false "
                    "negatives — it would serve stale data in hardware")
            elif checked and cell.flow == "levelpred" and cell.replay is not None:
                try:
                    checking.check_levelpred_conservation(
                        ctx=checking.evaluation_context(machine.name, workload_name,
                                                        cell.scheme.name),
                        l1_misses=misses,
                        **{name: totals[names[name]] for name in (
                            "skips", "correct_singles", "mispredicts", "unconfident",
                            "walks", "walk_reach_l2")})
                except Exception as exc:
                    cell.result = exc

        # The accounting is pure NumPy over frozen arrays; the span makes
        # its share of the wall time visible in `repro stats`.
        with telemetry.span("energy_accounting", scheme=group[0].scheme.name,
                            workload=workload_name, cells=len(group)):
            stalls = [cell.stall for cell in group]
            if memory is not None:
                # A DRAM model gives each miss its own latency.
                timings = [kernel.run_timing(
                    stream, table.latencies(row, memory_latency, mlp, memory), stall)
                    for row, stall in zip(codes, stalls)]
            else:
                timings = kernel.run_timing(stream, table.latencies(
                    None, memory_latency, mlp), stalls, codes, histograms)
            # Each exec_cycles: the slowest core plus the stalls.
            cycles = np.array([timing.core_cycles for timing in timings]).max(1) + stalls
            static = kernel.static_energy_nj(
                cycles, include_pt=group[0].scheme.consults_table).tolist()
            for cell, totals, timing, static_nj in zip(group, rows, timings, static):
                if cell.result is not None:
                    continue
                ledger = EnergyLedger()
                table.charge_ledger(ledger, n, totals, fill_energy_weight,
                                    memory_energy_nj, memory)
                if cell.replay is not None:
                    kernel.charge_predictor_maintenance(
                        ledger, cell.table_updates, cell.maintenance_nj)
                level_lookups = {1: n, **{lvl: totals[row] for lvl, row in reach}}
                level_hits = {1: n - misses, **{lvl: totals[row] for lvl, row in hits}}
                hit_rates = {lvl: (level_hits[lvl] / level_lookups[lvl]
                                   if level_lookups[lvl] else 0.0)
                             for lvl in level_lookups}
                cell.result = SchemeResult(
                    scheme=cell.scheme.name, workload=workload_name,
                    machine=machine.name, timing=timing, ledger=ledger,
                    static_nj=static_nj, hit_rates=hit_rates,
                    level_lookups=level_lookups, level_hits=level_hits,
                    l1_misses=misses, skips=totals[names["skips"]],
                    false_positives=totals[names["false_positives"]],
                    true_misses=totals[names["true_misses"]],
                    recal_stall_cycles=cell.stall, predictor_stats=cell.predictor_stats,
                )


def result_facts(result: SchemeResult) -> tuple:
    """Every observable of a result, floats by their bits and the ledger
    in charge order: two evaluations agree iff their facts are equal."""
    timing = result.timing
    return (result.scheme, timing.core_cycles.tobytes(), timing.compute_cycles.tobytes(),
            timing.memory_cycles.tobytes(), float(timing.stall_cycles).hex(),
            list(result.ledger.counts.items()),
            [(key, float(e).hex()) for key, e in result.ledger.energy_nj.items()],
            float(result.static_nj).hex(), result.hit_rates, result.level_lookups,
            result.level_hits, result.l1_misses, result.skips,
            result.false_positives, result.true_misses,
            float(result.recal_stall_cycles).hex(), result.predictor_stats)


def _check_alone(batched, stream, machine, scheme, workload, *charges):
    """Checked mode: a batched cell must equal the cell evaluated alone
    (or fail the same way); otherwise the cell fails with the divergence.
    The evaluation alone records into a session of its own, so the run's
    telemetry counts the batch only."""
    try:
        with telemetry.session(force=True, label="checked-alone"):
            alone = evaluate_scheme(stream, machine, scheme, workload, *charges,
                                    checked=True)
    except Exception as exc:
        alone = exc
    if isinstance(batched, Exception) or isinstance(alone, Exception):
        same = type(batched) is type(alone)
    else:
        same = result_facts(batched) == result_facts(alone)
    if same:
        return batched
    return ReproError(f"batched evaluation of scheme {scheme.name!r} diverged from "
                      f"its evaluation alone: {batched!r} != {alone!r}")
