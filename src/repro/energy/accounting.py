"""Energy bookkeeping: per-component dynamic energy plus static (leakage).

The evaluator counts micro-events (array probes, table lookups, table
updates, recalibration sweeps) and charges them here.  Keeping the ledger as
(component, category) → (count, energy) preserves enough structure to
reproduce both the headline numbers (Figure 7's normalized dynamic energy)
and the introduction's claim that L3+L4 dominate dynamic cache energy.

Units: nanojoules for energy, watts for power, cycles+Hz for time.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.energy.params import MachineConfig
from repro.util.validation import ConfigError

__all__ = ["EnergyLedger", "CostTable", "StaticEnergyModel"]


@dataclass
class EnergyLedger:
    """Accumulates dynamic-energy charges by (component, category).

    ``component`` is a structure name (``L1`` … ``L4``, ``PT``, ``CBF``);
    ``category`` describes the operation (``tag``, ``data``, ``lookup``,
    ``update``, ``recal``, ``prefetch``).
    """

    counts: dict[tuple[str, str], int] = field(default_factory=lambda: defaultdict(int))
    energy_nj: dict[tuple[str, str], float] = field(default_factory=lambda: defaultdict(float))

    def charge(self, component: str, category: str, unit_energy_nj: float, count: int = 1) -> None:
        """Charge ``count`` events of ``unit_energy_nj`` each."""
        if count < 0:
            raise ConfigError("event count must be non-negative")
        if count == 0:
            return
        key = (component, category)
        self.counts[key] += int(count)
        self.energy_nj[key] += unit_energy_nj * count

    def merge(self, other: "EnergyLedger") -> None:
        """Fold another ledger into this one (used by per-core evaluation)."""
        for key, n in other.counts.items():
            self.counts[key] += n
        for key, e in other.energy_nj.items():
            self.energy_nj[key] += e

    @property
    def total_nj(self) -> float:
        """Total dynamic energy in nJ."""
        return float(sum(self.energy_nj.values()))

    def component_nj(self, component: str) -> float:
        """Dynamic energy attributed to one structure."""
        return float(sum(e for (c, _), e in self.energy_nj.items() if c == component))

    def category_nj(self, category: str) -> float:
        """Dynamic energy attributed to one operation category."""
        return float(sum(e for (_, cat), e in self.energy_nj.items() if cat == category))

    def categories_nj(self, categories) -> dict[str, float]:
        """:meth:`category_nj` of each of ``categories`` in one pass (the
        same sums, in the same order)."""
        out = dict.fromkeys(categories, 0)
        for (_, cat), e in self.energy_nj.items():
            if cat in out:
                out[cat] += e
        return {cat: float(e) for cat, e in out.items()}

    def breakdown(self) -> dict[str, float]:
        """Per-component dynamic energy (nJ), sorted by component name."""
        components = sorted({c for c, _ in self.energy_nj})
        return {c: self.component_nj(c) for c in components}

    def validate(self) -> list[str]:
        """Conservation self-check; returns problem descriptions.

        Checked mode (:mod:`repro.checking`) runs this at the end of every
        integrated simulation: all counts and energies must be
        non-negative and finite, energy must not exist without events, and
        the per-component and per-category marginals must both sum to the
        total (they are different partitions of the same charges).
        """
        problems: list[str] = []
        for key, count in self.counts.items():
            if count < 0:
                problems.append(f"{key}: negative event count {count}")
            if key not in self.energy_nj:
                problems.append(f"{key}: {count} events but no energy entry")
        for key, energy in self.energy_nj.items():
            if not math.isfinite(energy):
                problems.append(f"{key}: energy is {energy!r}")
            elif energy < 0:
                problems.append(f"{key}: negative energy {energy} nJ")
            if energy > 0 and self.counts.get(key, 0) == 0:
                problems.append(f"{key}: {energy} nJ charged with zero events")
        total = self.total_nj
        tol = 1e-6 * max(1.0, abs(total))
        by_component = sum(self.breakdown().values())
        if abs(by_component - total) > tol:
            problems.append(
                f"component marginals sum to {by_component} nJ, total is {total} nJ"
            )
        by_category = sum(
            self.category_nj(cat) for cat in {c for _, c in self.energy_nj}
        )
        if abs(by_category - total) > tol:
            problems.append(
                f"category marginals sum to {by_category} nJ, total is {total} nJ"
            )
        return problems

    def as_rows(self) -> list[tuple[str, str, int, float]]:
        """Flat (component, category, count, nJ) rows for reports."""
        return [
            (c, cat, self.counts[(c, cat)], self.energy_nj[(c, cat)])
            for (c, cat) in sorted(self.energy_nj)
        ]


@dataclass(frozen=True)
class CostTable:
    """Unit energies/latencies resolved from a :class:`MachineConfig`.

    Precomputing these keeps the hot evaluation loops free of attribute
    chains and makes the charging policy explicit in one place:

    * a **parallel** probe fires tag+data regardless of hit/miss (the waste
      ReDHiP eliminates);
    * a **phased** probe fires the tag array always and the data array only
      on a hit;
    * prediction-table lookups/updates cost the PT access energy;
    * a recalibration sweep costs one LLC tag-array read per set plus one PT
      line write per PT line (the OR-decoder tree of Figure 4 is plain
      combinational logic and is not charged separately).
    """

    machine: MachineConfig

    def level_parallel_energy(self, level: int) -> float:
        lvl = self.machine.level(level)
        return lvl.tag_energy + lvl.data_energy

    def level_tag_energy(self, level: int) -> float:
        return self.machine.level(level).tag_energy

    def level_data_energy(self, level: int) -> float:
        return self.machine.level(level).data_energy

    def level_parallel_delay(self, level: int) -> int:
        return self.machine.level(level).access_delay

    def level_tag_delay(self, level: int) -> int:
        return self.machine.level(level).tag_delay

    def level_data_delay(self, level: int) -> int:
        return self.machine.level(level).data_delay

    @property
    def pt_update_energy(self) -> float:
        return self.machine.prediction_table.access_energy

    @property
    def recal_set_energy(self) -> float:
        """Energy to recalibrate one LLC set: one tag read + one PT write."""
        return self.machine.llc.tag_energy + self.pt_update_energy

    @property
    def recal_sweep_energy(self) -> float:
        """Energy of one full-table recalibration sweep."""
        return self.recal_set_energy * self.machine.llc.num_sets

    @property
    def recal_sweep_cycles(self) -> int:
        """Stall cycles of one full sweep: one set per bank per cycle.

        With the paper's 64 MB LLC (65536 sets) and 4 banks this evaluates
        to the 16 K cycles quoted in §IV.
        """
        banks = self.machine.prediction_table.banks
        sets = self.machine.llc.num_sets
        return (sets + banks - 1) // banks


@dataclass(frozen=True)
class StaticEnergyModel:
    """Leakage → static energy given an execution time.

    Private-level leakage is multiplied by the core count; shared LLC and
    prediction-table leakage are charged once.
    """

    machine: MachineConfig

    @property
    def total_leakage_w(self) -> float:
        total = 0.0
        for lvl in self.machine.levels:
            copies = 1 if lvl.shared else self.machine.cores
            total += lvl.leakage_w * copies
        total += self.machine.prediction_table.leakage_w
        return total

    def static_energy_nj(self, cycles, include_pt: bool = True):
        """Static energy over ``cycles`` of execution, in nJ; ``cycles``
        may be an array of runs (one energy per run comes back)."""
        if np.min(cycles) < 0:
            raise ConfigError("cycle count must be non-negative")
        seconds = cycles / self.machine.frequency_hz
        watts = self.total_leakage_w
        if not include_pt:
            watts -= self.machine.prediction_table.leakage_w
        return watts * seconds * 1e9
