"""Timing model: CPI-based compute delay plus per-access memory latency.

The paper (§IV) deliberately uses a simple model: non-memory instructions
advance time by the application's average CPI, memory references add the
latency of however deep into the hierarchy they had to go, and main memory
is a zero-latency data store.  Execution time of the 8-core run is the
slowest core.  We implement exactly that, vectorized: :meth:`TimingModel.run`
folds per-access latencies and compute gaps; the evaluator hands
:meth:`TimingModel.fold` per-core sums it folded from the L1 misses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.energy.params import MachineConfig
from repro.util.validation import ConfigError, check_positive

__all__ = ["TimingModel", "TimingResult"]


@dataclass(frozen=True)
class TimingResult:
    """Per-core and aggregate cycle counts for one scheme run."""

    core_cycles: np.ndarray          # float64[cores]
    compute_cycles: np.ndarray       # float64[cores]
    memory_cycles: np.ndarray        # float64[cores]
    stall_cycles: float              # recalibration stalls (charged globally)

    @property
    def exec_cycles(self) -> float:
        """Execution time of the run = slowest core + global stalls."""
        return float(self.core_cycles.max() + self.stall_cycles)

    def speedup_over(self, base: "TimingResult") -> float:
        """Classic speedup: base time / this time."""
        mine = self.exec_cycles
        if mine <= 0:
            raise ConfigError("cannot compute speedup of a zero-cycle run")
        return base.exec_cycles / mine


@dataclass(frozen=True)
class TimingModel:
    """Folds compute gaps and memory latencies into per-core cycles."""

    machine: MachineConfig

    def run(
        self,
        core_ids: np.ndarray,
        gaps: np.ndarray,
        latencies: np.ndarray,
        cpis: np.ndarray,
        stall_cycles: float = 0.0,
    ) -> TimingResult:
        """Compute per-core cycle totals.

        Parameters
        ----------
        core_ids:
            int array, core owning each access (global access order).
        gaps:
            int array, non-memory instructions preceding each access.
        latencies:
            float array, memory latency in cycles charged to each access.
        cpis:
            float64[cores], average CPI of the application on each core.
        stall_cycles:
            Global stall (recalibration sweeps block the PT and the LLC
            tag array, so they are charged against the whole run).
        """
        if len(core_ids) != len(gaps) or len(core_ids) != len(latencies):
            raise ConfigError("core_ids/gaps/latencies length mismatch")
        cores = self.machine.cores
        # bincount over core ids gives per-core sums without a Python loop.
        gap_sums = np.bincount(core_ids, weights=gaps.astype(np.float64),
                               minlength=cores)
        lat_sums = np.bincount(core_ids, minlength=cores,
                               weights=np.asarray(latencies, dtype=np.float64))
        return self.fold(gap_sums[:cores], lat_sums[:cores], cpis, stall_cycles)

    def fold(
        self,
        gap_sums: np.ndarray,
        latency_sums: np.ndarray,
        cpis: np.ndarray,
        stall_cycles=0.0,
    ):
        """:meth:`run` with the per-core compute gaps and memory
        latencies already summed (float64[cores] each); the evaluator
        folds them per core from the L1-miss record.  ``latency_sums``
        may stack one row per run, with ``stall_cycles`` one per row:
        then one :class:`TimingResult` per row comes back."""
        cores = self.machine.cores
        if {cpis.shape, gap_sums.shape, latency_sums.shape[-1:]} != {(cores,)}:
            raise ConfigError(
                f"cpis, gap_sums and latency_sums must have shape ({cores},)")
        compute = gap_sums * cpis
        total = compute + latency_sums
        if latency_sums.ndim == 1:
            check_positive("stall_cycles + 1", stall_cycles + 1)
            return TimingResult(core_cycles=total, compute_cycles=compute,
                                memory_cycles=latency_sums,
                                stall_cycles=float(stall_cycles))
        if len(stall_cycles):
            check_positive("stall_cycles + 1", min(stall_cycles) + 1)
        return [TimingResult(core_cycles=core_cycles, compute_cycles=compute,
                             memory_cycles=memory, stall_cycles=float(stall))
                for core_cycles, memory, stall in zip(total, latency_sums, stall_cycles)]
