"""The charging kernel: single source of per-access latency/energy charges.

Both simulation paths — the two-phase evaluator
(:mod:`repro.sim.evaluate`, including the vectorized replay's bulk
accounting) and the integrated single-pass simulator
(:mod:`repro.sim.integrated`, including its exclusive-ReDHiP and prefetch
branches) — attribute every cycle and nanojoule through this module.  No
latency/energy arithmetic lives anywhere else in the simulation layer;
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
    :class:`ChargingKernel` applies them, with a scalar API for the
    integrated per-access loop and a bulk NumPy API for the two-phase
    evaluator.  Scalar and bulk share the same precomputed per-level
    constants, which is what makes the integrated ≡ two-phase equivalence
    exact rather than approximate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    Scalar methods serve the integrated per-access loop; ``*_bulk``
    methods serve the two-phase evaluator's NumPy accounting.  Both read
    the same precomputed per-level constants.
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
        probe plan plus its resolved table-lookup cost."""
        return cls(
            machine,
            plan=scheme.probe_plan(machine.num_levels),
            lookup_energy_nj=scheme.resolve_lookup_energy(machine),
            lookup_delay=scheme.resolve_lookup_delay(machine),
        )

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

    # --------------------------------------------------------------- bulk
    # The bulk methods below ``charge_l1_bulk`` take per-L1-miss arrays
    # (an :class:`~repro.hierarchy.events.OutcomeStream`'s order): an L1
    # hit is charged its L1 probe and nothing else under every scheme.
    def charge_l1_bulk(self, ledger: EnergyLedger, n: int,
                       n_misses: int) -> np.ndarray:
        """Bulk form of :meth:`charge_l1` for ``n`` accesses: the initial
        latency vector of their ``n_misses`` L1 misses."""
        ledger.charge(self.names[1], CAT_PROBE, self.par_e[1], n)
        return np.full(n_misses, float(self.par_d[1]), dtype=np.float64)

    def charge_lookup_bulk(self, ledger: EnergyLedger, lat: np.ndarray,
                           consulted: np.ndarray) -> None:
        """Table lookups for every consulted access (gated predictors
        answer some misses without touching the table)."""
        lat[consulted] += self.lookup_delay
        ledger.charge(
            COMPONENT_PT, CAT_LOOKUP, self.lookup_energy_nj, int(consulted.sum())
        )

    def charge_level_bulk(
        self,
        ledger: EnergyLedger,
        lat: np.ndarray,
        level: int,
        hits: np.ndarray,
        misses: np.ndarray,
        n_reach: int,
        n_hits: int,
        hit_rank: np.ndarray | None = None,
        mode: str | None = None,
    ) -> None:
        """Bulk form of :meth:`charge_probe` for every access reaching
        ``level``.  ``hit_rank`` (per-access MRU rank) is only read for
        way-predicted levels; ``mode`` overrides the plan's probe mode
        for this charge (see :meth:`charge_probe`)."""
        if mode is None:
            mode = self.modes[level]
        name = self.names[level]
        if mode == PROBE_PHASED:
            lat[hits] += self.tag_d[level] + self.dat_d[level]
            lat[misses] += self.tag_d[level]
            ledger.charge(name, CAT_TAG, self.tag_e[level], n_reach)
            ledger.charge(name, CAT_DATA, self.data_e[level], n_hits)
        elif mode == PROBE_WAYPRED:
            mru_hits = hits & (hit_rank == 0)
            slow_hits = hits & (hit_rank > 0)
            lat[mru_hits] += self.par_d[level]
            lat[slow_hits] += self.par_d[level] + self.dat_d[level]
            lat[misses] += self.tag_d[level]
            ledger.charge(name, CAT_TAG, self.tag_e[level], n_reach)
            ledger.charge(name, CAT_DATA, self.way_e[level], n_reach)
            ledger.charge(name, CAT_DATA, self.way_e[level], int(slow_hits.sum()))
        else:
            lat[hits] += self.par_d[level]
            lat[misses] += self.tag_d[level]
            ledger.charge(name, CAT_PROBE, self.par_e[level], n_reach)

    def charge_memory_bulk(
        self,
        ledger: EnergyLedger,
        lat: np.ndarray,
        mem_mask: np.ndarray,
        blocks: np.ndarray,
        true_misses: int,
        memory_latency: float = 0.0,
        memory_energy_nj: float = 0.0,
        dram=None,
    ) -> None:
        """Memory charges for every memory-served access.

        With a DRAM model the memory accesses replay in run order — the
        trajectory is scheme-independent, so every scheme sees the same
        bank/row sequence (each evaluation replays a fresh model).
        """
        if dram is not None:
            model = resolve_dram_model(dram)
            mem_lat, mem_energy = model.access_stream(blocks[mem_mask])
            lat[mem_mask] += mem_lat
            ledger.counts[(COMPONENT_MEM, CAT_ACCESS)] += true_misses
            ledger.energy_nj[(COMPONENT_MEM, CAT_ACCESS)] += float(mem_energy.sum())
            return
        if memory_latency > 0.0:
            lat[mem_mask] += memory_latency
        if memory_energy_nj > 0.0:
            ledger.charge(COMPONENT_MEM, CAT_ACCESS, memory_energy_nj, true_misses)

    def charge_fills_bulk(self, ledger: EnergyLedger, h: np.ndarray,
                          true_misses: int, weight: float) -> None:
        """Optional fill accounting (identical across schemes): every
        level is filled by memory fetches, plus by hits below it.  ``h``
        may omit the L1 hits, which fill nothing."""
        if weight <= 0.0:
            return
        for level in range(1, self.num_levels + 1):
            fills = true_misses
            if level < self.num_levels:
                fills += int((h > level).sum())
            ledger.charge(
                self.names[level], CAT_FILL, weight * self.data_e[level], fills
            )

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
    def run_timing(self, stream, miss_latencies: np.ndarray,
                   stall_cycles: float) -> TimingResult:
        """Fold a stream's latencies into per-core cycles.

        ``miss_latencies`` are per L1 miss (``stream`` order); every
        other access is an L1 hit at the L1 delay.  When every latency is
        integral and every sum stays below 2**52 (inside float64's exact
        integer range), each per-core total is exact in any summation
        order, so it folds as ``hits x d1`` plus
        a bincount of the miss latencies.  Otherwise (MLP != 1, a
        fractional lookup delay) it keeps the ordered fold: each core's
        latencies summed in that core's access order, rebuilt from the
        misses' core-local indices — bit-identical to the per-access
        fold either way."""
        cores = self.machine.cores
        d1 = float(self.par_d[1])
        lat = np.asarray(miss_latencies, dtype=np.float64)
        accesses = stream.core_accesses
        if _exact_in_any_order(lat, d1, stream.num_accesses):
            hits = accesses - np.bincount(stream.core, minlength=cores)
            latency_sums = hits * d1 + np.bincount(
                stream.core, weights=lat, minlength=cores)
        else:
            starts = np.cumsum(accesses) - accesses
            sequence = np.full(int(accesses.sum()), d1)
            sequence[starts[stream.core] + stream.local] = lat
            owner = np.repeat(np.arange(cores), accesses)
            latency_sums = np.bincount(owner, weights=sequence, minlength=cores)
        return TimingModel(self.machine).fold(
            stream.core_gap_sums, latency_sums, stream.cpis, stall_cycles)

    def static_energy_nj(self, exec_cycles: float, include_pt: bool) -> float:
        """Leakage over the run; the PT leaks only for table schemes."""
        return StaticEnergyModel(self.machine).static_energy_nj(
            exec_cycles, include_pt=include_pt
        )


def _exact_in_any_order(lat: np.ndarray, d1: float, accesses: int) -> bool:
    """Is every partial sum of ``accesses`` latencies — the misses' plus
    ``d1`` per hit — an exactly representable integer?  Then float
    addition is associative over them and any fold order is exact."""
    if not d1.is_integer():
        return False
    if not np.array_equal(lat, np.trunc(lat)):
        return False
    bound = accesses * abs(d1) + float(np.abs(lat).sum())
    return bound < 2.0 ** 52


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
