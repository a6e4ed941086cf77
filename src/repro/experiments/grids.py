"""Experiments-as-sweeps: figure specs compiled to cells, rendered from rows.

The one-execution-substrate refactor (DESIGN.md) splits every sweep-shaped
experiment into two pure halves:

* ``cells(cfg, **kwargs)`` — compile the figure's grid to canonical
  :class:`~repro.sweep.spec.CellSpec` instances.  No simulation; the list
  is what :func:`repro.sweep.scheduler.run_cells` executes (resumable,
  sharded, journalled, fault-aware) against a :class:`~repro.results.store.
  ResultsStore`.
* ``render(cfg, rows, **kwargs)`` — a pure function from canonical store
  rows (keyed by canonical cell) back to the figure's
  :class:`~repro.sim.report.ExperimentResult`.  The rendered bytes are
  pinned by ``tests/golden/artifacts/``, so every renderer computes the
  figures' arithmetic from the stored floats with the same formulas, in
  the same order, as the live :class:`~repro.sim.evaluate.SchemeResult`
  methods.

This module holds the shared vocabulary: the scheme-key -> display-name
map, the config -> cell compiler, and :class:`RowResult` — a
:class:`~repro.sim.evaluate.SchemeResult` facade over one flat store row
that reproduces its derived quantities bit-for-bit (store metrics are
exact ``float()`` copies of the originals, and the PT component energy is
recovered as ``nj_lookup + nj_update + nj_recal`` in the ledger's
insertion order — the charging kernel charges those categories to the PT
component only).
"""

from __future__ import annotations

from repro.sweep.spec import CellSpec
from repro.util.validation import ReproError

__all__ = [
    "PAPER_SCHEME_KEYS",
    "SCHEME_NAMES",
    "RowResult",
    "grid_cell",
    "row_result",
]

#: Sweep scheme key -> the display name its SchemeSpec carries (the
#: rendered tables' column headers).
SCHEME_NAMES = {
    "base": "Base",
    "oracle": "Oracle",
    "cbf": "CBF",
    "phased": "Phased",
    "waypred": "WayPred",
    "redhip": "ReDHiP",
    "redhip_noov": "ReDHiP-NoOv",
    "redhip_xor": "ReDHiP-xor",
    "cbf_counting": "CBF-counting",
}

#: The §V line-up: Base, Oracle, CBF, Phased, ReDHiP.
PAPER_SCHEME_KEYS = ("base", "oracle", "cbf", "phased", "redhip")


def grid_cell(cfg, workload: str, scheme: str, **axes) -> CellSpec:
    """The canonical cell one ``runner.run(workload, scheme)`` call maps to.

    Trajectory axes (machine, policy, refs, seed, replacement, fill
    weight) come from ``cfg``; scheme axes (``pt_kb``, ``recal_multiple``,
    ``probe_mode``, or overrides of the trajectory axes for ablations that
    sweep them) come from ``axes``.  ``CellSpec`` defaults
    ``recal_multiple=1.0`` — the paper cadence every figure uses unless it
    sweeps the period itself.
    """
    axes.setdefault("policy", cfg.policy.value)
    axes.setdefault(
        "replacement", None if cfg.replacement == "lru" else cfg.replacement
    )
    axes.setdefault(
        "fill_weight",
        None if cfg.fill_energy_weight == 0.0 else cfg.fill_energy_weight,
    )
    return CellSpec(
        machine=cfg.machine.name,
        workload=workload,
        scheme=scheme,
        refs_per_core=cfg.refs_per_core,
        seed=cfg.seed,
        **axes,
    ).canonical()


class _RowLedger:
    """The slice of :class:`~repro.energy.accounting.EnergyLedger` the
    renderers consume, recovered from a row's per-category sums."""

    __slots__ = ("_row",)

    def __init__(self, row: dict) -> None:
        self._row = row

    def category_nj(self, category: str) -> float:
        return self._row[f"nj_{category}"]

    def component_nj(self, component: str) -> float:
        if component != "PT":
            raise ReproError(
                f"store rows only recover the PT component energy "
                f"(lookup+update+recal), not {component!r}"
            )
        # The charging kernel charges these categories to the PT component
        # exclusively, in this temporal (= ledger insertion) order, so the
        # sum is bit-identical to the live ledger's component walk.
        return (self._row["nj_lookup"] + self._row["nj_update"]
                + self._row["nj_recal"])


class RowResult:
    """One canonical store row wearing the ``SchemeResult`` interface."""

    def __init__(self, row: dict) -> None:
        self.row = row
        self.ledger = _RowLedger(row)

    @property
    def exec_cycles(self) -> float:
        return self.row["exec_cycles"]

    @property
    def dynamic_nj(self) -> float:
        return self.row["dynamic_nj"]

    @property
    def static_nj(self) -> float:
        return self.row["static_nj"]

    @property
    def total_nj(self) -> float:
        return self.row["total_nj"]

    @property
    def skips(self) -> int:
        return self.row["skips"]

    @property
    def true_misses(self) -> int:
        return self.row["true_misses"]

    @property
    def skip_coverage(self) -> float:
        return self.row["skip_coverage"]

    @property
    def recal_stall_cycles(self) -> float:
        return self.row["recal_stall_cycles"]

    @property
    def hit_rates(self) -> dict:
        out = {}
        lvl = 1
        while f"hit_rate_L{lvl}" in self.row:
            out[lvl] = self.row[f"hit_rate_L{lvl}"]
            lvl += 1
        return out

    # Same formulas as SchemeResult/TimingResult, over the stored floats.
    def speedup_over(self, base: "RowResult") -> float:
        return base.exec_cycles / self.exec_cycles

    def dynamic_ratio(self, base: "RowResult") -> float:
        return self.dynamic_nj / base.dynamic_nj if base.dynamic_nj else 1.0

    def total_ratio(self, base: "RowResult") -> float:
        return self.total_nj / base.total_nj if base.total_nj else 1.0

    def perf_energy_metric(self, base: "RowResult") -> float:
        return self.speedup_over(base) * (2.0 - self.total_ratio(base))


def row_result(rows: dict, cell: CellSpec) -> RowResult:
    """The store row for one (canonical) cell — ``rows`` maps each
    expanded cell to its row — or a precise error naming what is missing
    (a failed cell, or a store from a different grid)."""
    try:
        return RowResult(rows[cell])
    except KeyError:
        raise ReproError(
            f"results store has no row for cell {cell.label()} "
            f"({cell.fingerprint()}) — the sweep did not complete it"
        ) from None
