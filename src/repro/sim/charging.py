"""The charging kernel: single source of per-access latency/energy charges.

Both simulation paths — the two-phase evaluator
(:mod:`repro.sim.evaluate`, which charges through decision-code tables)
and the integrated single-pass simulator (:mod:`repro.sim.integrated`,
including its exclusive-ReDHiP and prefetch branches) — attribute every
cycle and nanojoule through this module.  No latency/energy arithmetic
lives anywhere else in the simulation layer;
``scripts/check_charging_drift.py`` enforces that in CI.

The model (§III-§IV of the paper):

Latency per access
    * every access pays the L1 access delay;
    * predictor schemes add the prediction-table lookup delay (SRAM +
      wire) to every *consulted* L1 miss — "a delay between the L1 and L2
      accesses";
    * each probed level costs its access delay on a hit and its *tag*
      delay on a miss (a parallel probe discovers the miss at tag-compare
      time); a phased level costs tag+data on a hit (serialized) and tag
      on a miss; a way-predicted level costs the access delay on an MRU
      hit, access+data on a non-MRU hit, tag on a miss;
    * main memory is free unless a latency/energy or DRAM model is
      configured — by default all gains come from skipped lookups.

Dynamic energy per access
    * a parallel probe fires both arrays regardless of outcome (the waste
      ReDHiP eliminates); a phased probe fires tag always, data on hit; a
      way-predicted probe fires tag plus a single speculative data way
      (``data_energy / assoc``), plus a second way on a non-MRU hit;
    * predictor schemes pay a table access per consulted lookup and per
      table update, plus recalibration sweep energy;
    * prefetch probes charge the parallel-probe energy under the
      dedicated ``prefetch`` category so reports can split demand from
      prefetch traffic;
    * the Oracle pays nothing (a bound, "not an actual scheme").

Structure
    :class:`ProbePlan` captures a scheme's per-level probe decision
    (parallel / phased / waypred); :class:`AccessCharge` is the
    introspectable description of one probe's charges; and
    :class:`ChargingKernel` applies them through a scalar API the
    integrated per-access loop calls once per probe.  The two-phase
    evaluator charges by *decision code* instead: what an L1 miss costs
    depends only on its flow's decision (skip, walk, single probe,
    phased LLC probe), the level serving it and that level's MRU bit.
    :func:`code_table` walks the scalar API once per code into a
    :class:`CodeTable` (per-code latency, ledger-line and tally counts),
    and a cell charges one histogram of its misses' codes against it.
    Both paths therefore read the same constants in the same call
    order, which is what makes the integrated ≡ two-phase equivalence
    exact rather than approximate.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import telemetry
from repro.energy.accounting import CostTable, EnergyLedger, StaticEnergyModel
from repro.energy.params import MachineConfig
from repro.energy.timing import TimingModel, TimingResult

__all__ = [
    "CAT_PROBE",
    "CAT_TAG",
    "CAT_DATA",
    "CAT_LOOKUP",
    "CAT_UPDATE",
    "CAT_RECAL",
    "CAT_PREFETCH",
    "CAT_ACCESS",
    "CAT_FILL",
    "ENERGY_CATEGORIES",
    "COMPONENT_PT",
    "COMPONENT_MEM",
    "PROBE_PARALLEL",
    "PROBE_PHASED",
    "PROBE_WAYPRED",
    "AccessCharge",
    "ProbePlan",
    "ChargingKernel",
    "CodeTable",
    "code_table",
    "memory_charges",
    "recal_stall_cycles",
    "resolve_dram_model",
]

# Ledger categories.  Every (component, category) key written by either
# simulation path uses one of these names; reports index them directly.
CAT_PROBE = "probe"        # parallel tag+data probe
CAT_TAG = "tag"            # tag-array access (phased / waypred)
CAT_DATA = "data"          # data-array access (phased hit / waypred way)
CAT_LOOKUP = "lookup"      # prediction-table lookup
CAT_UPDATE = "update"      # prediction-table update
CAT_RECAL = "recal"        # recalibration sweep energy
CAT_PREFETCH = "prefetch"  # prefetch-issued probe
CAT_ACCESS = "access"      # main-memory access
CAT_FILL = "fill"          # optional fill accounting

#: Every category the kernel can charge, in report order.
ENERGY_CATEGORIES = (
    CAT_PROBE, CAT_TAG, CAT_DATA, CAT_LOOKUP, CAT_UPDATE, CAT_RECAL,
    CAT_PREFETCH, CAT_ACCESS, CAT_FILL,
)

COMPONENT_PT = "PT"
COMPONENT_MEM = "MEM"

# Per-level probe modes.
PROBE_PARALLEL = "parallel"
PROBE_PHASED = "phased"
PROBE_WAYPRED = "waypred"


@dataclass(frozen=True)
class ProbePlan:
    """A scheme's per-level probe decision: ``modes[level - 1]`` for
    levels ``1 .. num_levels``.

    The plan covers *how a probed level is accessed*; whether a level is
    probed at all (predictor skip, oracle skip, hit short-circuit) is the
    simulator's control flow and stays outside the kernel.
    """

    modes: tuple[str, ...]

    def __post_init__(self) -> None:
        for mode in self.modes:
            if mode not in (PROBE_PARALLEL, PROBE_PHASED, PROBE_WAYPRED):
                raise ValueError(f"unknown probe mode {mode!r}")

    @classmethod
    def all_parallel(cls, num_levels: int) -> "ProbePlan":
        return cls(modes=(PROBE_PARALLEL,) * num_levels)

    @classmethod
    def for_scheme(cls, num_levels: int, scheme) -> "ProbePlan":
        """Plan for anything with ``phased_levels``/``way_predicted_levels``
        (duck-typed so this module never imports the predictor layer)."""
        modes = []
        for level in range(1, num_levels + 1):
            if level in scheme.phased_levels:
                modes.append(PROBE_PHASED)
            elif level in scheme.way_predicted_levels:
                modes.append(PROBE_WAYPRED)
            else:
                modes.append(PROBE_PARALLEL)
        return cls(modes=tuple(modes))

    def mode(self, level: int) -> str:
        return self.modes[level - 1]


@dataclass(frozen=True)
class AccessCharge:
    """One probe's charges, spelled out: latency plus ledger line items.

    The hot loops use :meth:`ChargingKernel.charge_probe` (same numbers,
    no allocation); this form exists for introspection, reports and the
    kernel's own unit tests, and :meth:`apply` is guaranteed to produce
    exactly what the fast path charges.
    """

    latency: float
    charges: tuple[tuple[str, str, float, int], ...]

    @property
    def energy_nj(self) -> float:
        return float(sum(e * c for (_, _, e, c) in self.charges))

    def apply(self, ledger: EnergyLedger) -> float:
        for component, category, unit_nj, count in self.charges:
            ledger.charge(component, category, unit_nj, count)
        return self.latency


class ChargingKernel:
    """Applies the charging model for one (machine, probe plan) pair.

    Scalar methods serve the integrated per-access loop and build the
    two-phase evaluator's :class:`CodeTable`; both read the same
    precomputed per-level constants.  A kernel is never mutated, so
    :meth:`for_scheme` shares one per key.
    """

    def __init__(
        self,
        machine: MachineConfig,
        plan: ProbePlan | None = None,
        lookup_energy_nj: float | None = None,
        lookup_delay: int | None = None,
    ) -> None:
        self.machine = machine
        num_levels = machine.num_levels
        if plan is None:
            plan = ProbePlan.all_parallel(num_levels)
        if len(plan.modes) != num_levels:
            raise ValueError(
                f"probe plan covers {len(plan.modes)} levels, "
                f"machine has {num_levels}"
            )
        self.plan = plan
        self.num_levels = num_levels
        costs = CostTable(machine)
        self.costs = costs
        rng = range(1, num_levels + 1)
        # Index by level number; slot 0 is padding.
        self.tag_d = [0] + [costs.level_tag_delay(j) for j in rng]
        self.par_d = [0] + [costs.level_parallel_delay(j) for j in rng]
        self.dat_d = [0] + [costs.level_data_delay(j) for j in rng]
        self.tag_e = [0.0] + [costs.level_tag_energy(j) for j in rng]
        self.data_e = [0.0] + [costs.level_data_energy(j) for j in rng]
        self.par_e = [0.0] + [costs.level_parallel_energy(j) for j in rng]
        self.way_e = [0.0] + [
            costs.level_data_energy(j) / machine.level(j).assoc for j in rng
        ]
        self.names = [""] + [machine.level(j).name for j in rng]
        self.modes = ("",) + plan.modes
        self.lookup_energy_nj = (
            lookup_energy_nj if lookup_energy_nj is not None
            else machine.prediction_table.access_energy
        )
        self.lookup_delay = (
            lookup_delay if lookup_delay is not None
            else machine.prediction_table.lookup_delay
        )
        self.pt_update_energy = costs.pt_update_energy

    @classmethod
    def for_scheme(cls, machine: MachineConfig, scheme) -> "ChargingKernel":
        """Kernel for a :class:`~repro.predictors.base.SchemeSpec`: its
        probe plan plus its resolved table-lookup cost, built once per
        (machine, plan, lookup energy, lookup delay)."""
        key = (machine, scheme.probe_plan(machine.num_levels),
               scheme.resolve_lookup_energy(machine),
               scheme.resolve_lookup_delay(machine))
        kernel = _KERNELS.get(key)
        if kernel is None:
            kernel = _KERNELS[key] = cls(*key)
        return kernel

    # ------------------------------------------------------------- scalar
    def charge_l1(self, ledger: EnergyLedger) -> float:
        """Every access starts with one L1 parallel probe."""
        ledger.charge(self.names[1], CAT_PROBE, self.par_e[1], 1)
        return float(self.par_d[1])

    def charge_probe(self, ledger: EnergyLedger, level: int, hit: bool,
                     rank: int = -1, mode: str | None = None) -> float:
        """Charge one demand probe at ``level``; returns its latency.

        ``mode`` overrides the plan's probe mode for this one probe —
        how EHC's predicted-dead LLC probes degrade to phased while the
        rest of the walk keeps the plan's discipline.  ``None`` (the
        default, and every pre-existing call site) charges the plan mode.
        """
        if mode is None:
            mode = self.modes[level]
        if mode == PROBE_PHASED:
            ledger.charge(self.names[level], CAT_TAG, self.tag_e[level], 1)
            if hit:
                ledger.charge(self.names[level], CAT_DATA, self.data_e[level], 1)
                return self.tag_d[level] + self.dat_d[level]
            return self.tag_d[level]
        if mode == PROBE_WAYPRED:
            ledger.charge(self.names[level], CAT_TAG, self.tag_e[level], 1)
            ledger.charge(self.names[level], CAT_DATA, self.way_e[level], 1)
            if hit:
                if rank == 0:
                    return self.par_d[level]
                ledger.charge(self.names[level], CAT_DATA, self.way_e[level], 1)
                return self.par_d[level] + self.dat_d[level]
            return self.tag_d[level]
        ledger.charge(self.names[level], CAT_PROBE, self.par_e[level], 1)
        return self.par_d[level] if hit else self.tag_d[level]

    def describe_probe(self, level: int, hit: bool, rank: int = -1) -> AccessCharge:
        """The :class:`AccessCharge` form of :meth:`charge_probe`."""
        probe = EnergyLedger()
        latency = self.charge_probe(probe, level, hit, rank)
        charges = tuple(
            (c, cat, probe.energy_nj[(c, cat)] / probe.counts[(c, cat)], probe.counts[(c, cat)])
            for (c, cat) in probe.energy_nj
        )
        return AccessCharge(latency=float(latency), charges=charges)

    def charge_lookup(self, ledger: EnergyLedger, count: int = 1) -> float:
        """Prediction-table lookup: energy per consulted table, one wire
        delay (tables are consulted in parallel)."""
        ledger.charge(COMPONENT_PT, CAT_LOOKUP, self.lookup_energy_nj, count)
        return self.lookup_delay

    def charge_memory(self, ledger: EnergyLedger, latency: float,
                      energy_nj: float) -> float:
        """One memory-served access under the flat memory model."""
        if energy_nj > 0.0:
            ledger.charge(COMPONENT_MEM, CAT_ACCESS, energy_nj, 1)
        return latency

    def charge_dram(self, ledger: EnergyLedger, dram_model, block: int) -> float:
        """One memory-served access through a pattern-dependent DRAM model."""
        d_lat, d_energy = dram_model.access(block)
        ledger.charge(COMPONENT_MEM, CAT_ACCESS, d_energy, 1)
        return d_lat

    def charge_prefetch_probes(self, ledger: EnergyLedger, found_level: int) -> None:
        """Probes issued by one prefetch request, charged under the
        ``prefetch`` category (parallel-probe energy, no demand latency)."""
        top = found_level if found_level >= 2 else self.num_levels
        for level in range(2, top + 1):
            ledger.charge(self.names[level], CAT_PREFETCH, self.par_e[level], 1)

    def mlp_adjust(self, lat, mlp: float):
        """Memory-level parallelism: overlap everything beyond the L1
        delay by ``mlp`` (1.0 = the paper's serialized model).  Works on
        scalars and arrays."""
        if mlp == 1.0:
            return lat
        d1 = float(self.par_d[1])
        return d1 + (lat - d1) / mlp

    # -------------------------------------------------------- maintenance
    def charge_predictor_maintenance(self, ledger: EnergyLedger,
                                     table_updates: int, recal_nj: float) -> None:
        """Table updates (one PT access each) plus recalibration energy."""
        ledger.charge(
            COMPONENT_PT, CAT_UPDATE, self.pt_update_energy, int(table_updates)
        )
        if recal_nj:
            ledger.charge(COMPONENT_PT, CAT_RECAL, recal_nj, 1)

    # ------------------------------------------------------ timing/static
    def run_timing(self, stream, latencies: np.ndarray, stall_cycles,
                   codes: "np.ndarray | None" = None,
                   histogram: "np.ndarray | None" = None):
        """Fold a stream's latencies into per-core cycles.

        ``latencies`` are per L1 miss (``stream`` order), giving one
        :class:`TimingResult`; or, given the cells' decision ``codes``
        (``codes[row]`` is a cell's ``code * cores + core`` per miss, see
        :class:`CodeTable`) and their ``histogram`` (one row per cell),
        per code, with ``stall_cycles`` one value per cell, giving one
        :class:`TimingResult` per row.  Every other access is an L1 hit at
        the L1 delay.  When every latency is integral and every sum stays
        below 2**52 (inside float64's exact integer range), each per-core
        total is exact in any summation order, so it folds as ``hits x
        d1`` plus the per-core code tally times the code latencies (a
        bincount of the miss latencies without codes).  Otherwise (MLP !=
        1, a fractional lookup delay) that row expands its latencies per
        miss and keeps the ordered fold: each core's latencies summed in
        that core's access order, rebuilt from the misses' core-local
        indices — bit-identical to the per-access fold either way."""
        cores = self.machine.cores
        d1 = float(self.par_d[1])
        lat = np.asarray(latencies, dtype=np.float64)
        accesses = stream.core_accesses
        if codes is None:
            if _exact_in_any_order(lat, d1, stream.num_accesses):
                hits = accesses - np.bincount(stream.core, minlength=cores)
                latency_sums = hits * d1 + np.bincount(stream.core, weights=lat,
                                                       minlength=cores)
            else:
                latency_sums = self._ordered_fold(stream, lat)
        else:
            tally = histogram.reshape(len(histogram), -1, cores)
            exact = _exact_in_any_order(lat, d1, stream.num_accesses, tally.sum(-1))
            latency_sums = (accesses - tally.sum(-2)) * d1 + np.swapaxes(tally, -1, -2) @ lat
            for row in np.flatnonzero(~exact):
                latency_sums[row] = self._ordered_fold(
                    stream, np.repeat(lat, cores)[codes[row]])
        return TimingModel(self.machine).fold(
            stream.core_gap_sums, latency_sums, stream.cpis, stall_cycles)

    def _ordered_fold(self, stream, lat: np.ndarray) -> np.ndarray:
        """Per-core sums of the per-miss ``lat`` and the hits' L1 delay,
        each core's in its access order."""
        accesses = stream.core_accesses
        starts = np.cumsum(accesses) - accesses
        sequence = np.full(int(accesses.sum()), float(self.par_d[1]))
        sequence[starts[stream.core] + stream.local] = lat
        owner = np.repeat(np.arange(self.machine.cores), accesses)
        return np.bincount(owner, weights=sequence, minlength=self.machine.cores)

    def static_energy_nj(self, exec_cycles, include_pt: bool):
        """Leakage over the run; the PT leaks only for table schemes.
        ``exec_cycles`` may be an array of runs."""
        return StaticEnergyModel(self.machine).static_energy_nj(
            exec_cycles, include_pt=include_pt
        )


# ------------------------------------------------------- decision codes
#: Memos: kernels by (machine, plan, lookup energy, lookup delay); code
#: tables by (kernel, flow, consults, skips); each stream's code base
#: (weak keys: an entry dies with its stream).  Nothing stored is ever
#: mutated.
_KERNELS: dict = {}
_TABLES: dict = {}
_BASES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

#: Per-code tallies a flow may raise besides reach, hits and fills.
_FLAGS = ("skips", "false_positives", "false_negatives", "correct_singles",
          "mispredicts", "unconfident", "walks", "walk_reach_l2")


# A flow maps an L1 miss's decision ``d`` and serving level ``h`` (0 =
# memory) to the probes it pays.  Each returns ``(decisions, passes,
# path, encode)``: ``passes`` lists the (level, mode) probe passes in
# charge order (mode None: the plan's), ``path(d, h)`` gives (consulted,
# reached per pass, flow tallies) and ``encode`` turns the replay's
# per-miss outputs into decisions.  Without a table ``h`` alone settles
# the miss, so the flow has one decision.
def _presence_flow(levels: int, consults: bool, skips: bool):
    """Base, oracle and every presence predictor: a miss predicted absent
    skips every level below L1.  A consulting scheme decides ``2 *
    predicted + consulted`` in its replay; a scheme that skips without a
    table knows presence (the Oracle); the rest predict present."""

    def path(d, h):
        predicted = d >> 1 if consults else (h != 0 or not skips)
        reach = [(h == 0 or h >= level) and (predicted or not skips)
                 for level in range(2, levels + 1)]
        return bool(d & 1), reach, {
            "skips": not predicted and h == 0,
            "false_positives": skips and predicted and h == 0,
            "false_negatives": not predicted and h >= 2,
        }

    passes = [(level, None) for level in range(2, levels + 1)]
    return 4 if consults else 1, passes, path, lambda p, c: np.uint8(2) * p + c


def _levelpred_flow(levels: int, consults: bool, skips: bool):
    """Level prediction and its oracle.  A confident presence miss
    (predicted level 0) skips every level; a confident level prediction
    pays one probe at the predicted level plus, on a mispredict, the full
    serial recovery walk from L2; an unconfident miss walks serially.  A
    table decides ``confident * (L + 1) + predicted level``; the oracle
    predicts the true level."""

    def path(d, h):
        confident, pred = divmod(d, levels + 1) if consults else (1, h)
        skip = confident and pred == 0
        single = confident and pred >= 2
        mispredict = single and h != pred
        walk = not confident or mispredict
        # A mispredict may probe a level twice, as its single and again in
        # its recovery walk: each level has a walk pass and a single pass.
        reach = []
        for level in range(2, levels + 1):
            reach += [walk and (h == 0 or h >= level), single and pred == level]
        return True, reach, {
            "skips": skip, "false_negatives": skip and h >= 2,
            "false_positives": consults and not skip and h == 0,
            "correct_singles": single and not mispredict,
            "mispredicts": mispredict, "unconfident": not confident,
            "walks": walk, "walk_reach_l2": walk and (h == 0 or h >= 2),
        }

    passes = [(level, None) for level in range(2, levels + 1)
              for _ in ("walk", "single")]
    return (2 * (levels + 1) if consults else 1, passes, path,
            lambda pred_level, confident: np.uint8(levels + 1) * confident + pred_level)


def _ehc_flow(levels: int, consults: bool, skips: bool):
    """Expected hit count: the full walk, but the LLC probe of a block
    predicted dead (decision 1) is phased.  Nothing is skipped."""

    def path(d, h):
        reach = [h == 0 or h >= level for level in range(2, levels + 1)]
        return True, reach[:-1] + [reach[-1] and d == 0, reach[-1] and d == 1], {}

    passes = [(level, None) for level in range(2, levels)]
    return 2, passes + [(levels, None), (levels, PROBE_PHASED)], path, lambda dead: dead


_FLOWS = {"presence": _presence_flow, "levelpred": _levelpred_flow, "ehc": _ehc_flow}


class _Calls(list):
    """Ledger stand-in that records each charge: how tables read the scalar API."""

    def charge(self, component, category, unit_energy_nj, count=1) -> None:
        self.append((component, category, unit_energy_nj))


@dataclass(frozen=True, eq=False)
class CodeTable:
    """What each decision code of one flow costs under one kernel.

    A code is ``(decision * (L + 1) + hit_level) * 2 + mru``: the flow's
    decision at the L1 miss, the level serving it (0 = memory) and
    whether it hit that level's MRU way.  ``lat[c]`` is code ``c``'s
    latency through its last probe, accumulated in the per-miss order;
    ``rows[:, c]`` is its count on each ledger line (``lines``, in charge
    order), then on each tally (``tally_rows`` names those rows).  A
    cell's miss carries ``code * cores + core``.  Arrays are read-only:
    one table serves every cell under its key.
    """

    kernel: ChargingKernel
    decisions: int
    encode: Callable
    lines: tuple
    tally_rows: dict
    rows: np.ndarray
    lat: np.ndarray

    def decide(self, *outputs) -> "np.ndarray | None":
        """Each miss's decision from the replay's per-miss ``outputs``, one
        byte a miss (None when the hit level settles it)."""
        if self.decisions == 1:
            return None
        return self.encode(*outputs).astype(np.uint8, copy=False)

    def codes(self, stream, decided: "np.ndarray | None") -> np.ndarray:
        """The misses' codes: each :meth:`decide` decision past the
        stream's base range."""
        base, base_histogram = _stream_base(stream)
        if decided is None:
            return base
        codes = np.multiply(decided, base_histogram.size, dtype=np.intp)
        codes += base
        return codes

    def histograms(self, stream, decided: list) -> tuple:
        """The misses' codes and their histograms for a batch of cells,
        from each cell's :meth:`decide` result: the histograms stacked one
        row per cell, and the codes, each cell's made when a row is asked
        for — a batch holds histograms, not per-miss codes."""
        base, base_histogram = _stream_base(stream)
        if self.decisions == 1:
            rows = np.broadcast_to(base_histogram, (len(decided), base_histogram.size))
        else:
            span = self.decisions * base_histogram.size
            rows = np.stack([np.bincount(self.codes(stream, d), minlength=span)
                             for d in decided])
        return _Codes(self, stream, decided), rows

    def totals(self, histograms: np.ndarray) -> np.ndarray:
        """Each ledger line's and tally's count, one row per row of
        stacked code ``histograms``."""
        return histograms.reshape(len(histograms), len(self.lat), -1).sum(-1) @ self.rows.T

    def charge_ledger(self, ledger: EnergyLedger, accesses: int, totals: list,
                      fill_energy_weight: float = 0.0,
                      memory_energy_nj: float = 0.0, memory=None) -> None:
        """Charge one cell's ledger from its ``totals`` (a list): the L1
        probe of each of the stream's ``accesses``, each ledger line, then
        memory (``memory``: :func:`memory_charges` under a DRAM model) and
        fills."""
        kernel = self.kernel
        names = kernel.names
        ledger.charge(names[1], CAT_PROBE, kernel.par_e[1], accesses)
        for (component, category, unit_nj), n in zip(self.lines, totals):
            ledger.charge(component, category, unit_nj, n)
        true_misses = totals[self.tally_rows["true_misses"]]
        if memory is not None:
            ledger.counts[(COMPONENT_MEM, CAT_ACCESS)] += true_misses
            ledger.energy_nj[(COMPONENT_MEM, CAT_ACCESS)] += memory[2]
        elif memory_energy_nj > 0.0:
            ledger.charge(COMPONENT_MEM, CAT_ACCESS, memory_energy_nj, true_misses)
        # Optional fill accounting (identical across schemes): every level
        # is filled by memory fetches, plus by hits below it.
        if fill_energy_weight > 0.0:
            for level in range(1, kernel.num_levels + 1):
                ledger.charge(names[level], CAT_FILL,
                              fill_energy_weight * kernel.data_e[level],
                              totals[self.tally_rows[f"fills{level}"]])

    def latencies(self, codes: "np.ndarray | None", memory_latency: float = 0.0,
                  mlp: float = 1.0, memory=None) -> np.ndarray:
        """Each code's latency after memory and MLP; under a DRAM model
        (``memory``) each of one cell's misses' own latency instead, from
        its ``codes``.

        With a DRAM model the memory accesses replay in run order — the
        trajectory is scheme-independent, so every scheme sees the same
        bank/row sequence (a fresh model per stream).
        """
        lat = self.lat
        if memory is not None:
            mask, mem_lat, _ = memory
            lat = np.repeat(lat, self.kernel.machine.cores)[codes]
            lat[mask] += mem_lat
        elif memory_latency > 0.0:
            lat = lat.copy()
            lat[self.rows[self.tally_rows["true_misses"]] > 0] += memory_latency
        return self.kernel.mlp_adjust(lat, mlp)


class _Codes:
    """A batch's per-miss codes, one cell's at a time (``codes[row]``)."""

    def __init__(self, table: CodeTable, stream, decided: list) -> None:
        self._table, self._stream, self._decided = table, stream, decided

    def __len__(self) -> int:
        return len(self._decided)

    def __getitem__(self, row: int) -> np.ndarray:
        return self._table.codes(self._stream, self._decided[row])


def memory_charges(stream, dram) -> "tuple | None":
    """A DRAM model's replay of ``stream``'s memory accesses, in run order:
    ``(memory-served mask per miss, latency per memory access, total
    energy)`` — None without a model."""
    model = resolve_dram_model(dram)
    if model is None:
        return None
    mask = stream.hit_level == 0
    mem_lat, mem_energy = model.access_stream(stream.block[mask])
    return mask, mem_lat, float(mem_energy.sum())


def code_table(kernel: ChargingKernel, flow: str, consults: bool,
               skips: bool) -> CodeTable:
    """The :class:`CodeTable` of ``flow`` (``presence``, ``levelpred`` or
    ``ehc``) under ``kernel`` for a scheme that does or does not consult
    a table and skip on a predicted miss; built once per key."""
    key = (kernel, flow, consults, skips)
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = _build_table(*key)
        telemetry.count("evaluate.tables_built", kind=flow)
    else:
        telemetry.count("evaluate.tables_reused", kind=flow)
    return table


def _build_table(kernel: ChargingKernel, flow: str, consults: bool,
                 skips: bool) -> CodeTable:
    """Walk every code's probes through the scalar API once."""
    levels = kernel.num_levels
    decisions, passes, path, encode = _FLOWS[flow](levels, consults, skips)
    # The lookup line, then per pass the calls of its costliest probe (a
    # non-MRU hit); every other outcome makes a prefix of them.
    lines = _Calls()
    if consults:
        kernel.charge_lookup(lines)
    starts = []
    for level, mode in passes:
        starts.append(len(lines))
        kernel.charge_probe(lines, level, True, 1, mode)
    names = (["true_misses", *_FLAGS]
             + [f"{what}{level}" for what in ("reach", "hits")
                for level in range(2, levels + 1)]
             + [f"fills{level}" for level in range(1, levels + 1)])
    tally_rows = {name: len(lines) + i for i, name in enumerate(names)}
    size = decisions * (levels + 1) * 2
    rows = np.zeros((len(lines) + len(names), size), dtype=np.int64)
    lat = np.empty(size)
    for code in range(size):
        d, h, mru = code // (2 * levels + 2), code // 2 % (levels + 1), code % 2
        consulted, reach, flags = path(d, h)
        tallies = Counter({name: int(n) for name, n in flags.items()})
        calls, line_of = _Calls(), []
        latency = kernel.charge_l1(_Calls())
        if consults and consulted:
            latency += kernel.charge_lookup(calls)
            line_of.append(0)
        for (level, mode), start, reached in zip(passes, starts, reach):
            if reached:
                first = len(calls)
                latency += kernel.charge_probe(calls, level, h == level, 1 - mru, mode)
                line_of += range(start, start + len(calls) - first)
                tallies[f"reach{level}"] += 1
                tallies[f"hits{level}"] += h == level
        assert calls == [lines[i] for i in line_of], (flow, code)
        tallies["true_misses"] = h == 0
        for level in range(1, levels + 1):
            tallies[f"fills{level}"] = h == 0 or level < levels and h > level
        np.add.at(rows[:, code], line_of, 1)
        rows[[tally_rows[name] for name in tallies], code] = list(tallies.values())
        lat[code] = latency
    rows.setflags(write=False)
    lat.setflags(write=False)
    return CodeTable(kernel, decisions, encode, tuple(lines), tally_rows, rows, lat)


def _stream_base(stream) -> tuple[np.ndarray, np.ndarray]:
    """A stream's per-miss ``(hit_level * 2 + mru) * cores + core`` — its
    decision-0 codes — and their histogram, computed once per stream."""
    entry = _BASES.get(stream)
    if entry is None:
        cores = len(stream.core_accesses)
        base = ((stream.hit_level.astype(np.intp) * 2 + (stream.hit_rank == 0))
                * cores + stream.core)
        histogram = np.bincount(base, minlength=(stream.num_levels + 1) * 2 * cores)
        base.setflags(write=False)
        histogram.setflags(write=False)
        entry = _BASES[stream] = (base, histogram)
    return entry


def _exact_in_any_order(lat: np.ndarray, d1: float, accesses: int,
                        weights: "np.ndarray | None" = None):
    """Is every partial sum of ``accesses`` latencies — the misses' (each
    ``lat`` entry ``weights`` times, default once) plus ``d1`` per hit —
    an exactly representable integer?  Then float addition is
    associative over them and any fold order is exact.  ``weights``
    stacks one row per cell, and then the answer is one bool per row."""
    if weights is None:
        return (d1.is_integer() and np.array_equal(lat, np.trunc(lat))
                and accesses * abs(d1) + float(np.abs(lat).sum()) < 2.0 ** 52)
    if not d1.is_integer():
        return np.zeros(len(weights), dtype=bool)
    # The weights are counts: an unused code adds nothing to the sums.
    exact = accesses * abs(d1) + weights @ np.abs(lat) < 2.0 ** 52
    fractional = lat != np.trunc(lat)
    if fractional.any():
        exact &= ~np.any((weights > 0) & fractional, axis=-1)
    return exact


def recal_stall_cycles(sweeps: int, cost) -> float:
    """Total stall cycles for ``sweeps`` recalibration sweeps at
    ``cost.cycles`` each (shared by the replay kernels)."""
    return float(sweeps * cost.cycles)


def resolve_dram_model(dram):
    """DRAM model for a config's ``dram`` field (``None`` -> no model).

    Keeps the DramModel constructor inside the charging layer so the
    simulation paths never name a cost model directly."""
    if dram is None:
        return None
    from repro.energy.dram import DramConfig, DramModel

    return DramModel(dram if isinstance(dram, DramConfig) else None)
