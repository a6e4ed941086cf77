"""A simplified analytical CACTI-like model.

The paper used CACTI 6.5 to obtain the per-access dynamic energies and
latencies in Table I.  CACTI itself is a large closed C++ tool; for the
reproduction we carry Table I verbatim (see :mod:`repro.energy.params`) and
provide this *analytical* model for two purposes:

1. Sanity-checking: the Table I numbers should fall inside the model's
   plausibility band (``tests/test_energy_models.py`` asserts this),
   confirming we transcribed them consistently.
2. Extrapolation: ablation experiments that change structure sizes (e.g.
   the prediction-table size sweep of Figure 11) need energy estimates for
   sizes Table I does not list.

The model follows the standard first-order scaling laws that CACTI's own
documentation describes: dynamic energy per access grows roughly with the
square root of capacity (word/bit-line capacitance of a square array),
latency grows with ``log2`` of capacity plus a wordline/bitline RC term
proportional to ``sqrt(size)``, and leakage grows linearly with capacity.
Constants are fitted against Table I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.energy.params import CacheLevelParams
from repro.util.validation import check_positive

__all__ = ["CactiModel", "ModelEstimate"]


@dataclass(frozen=True)
class ModelEstimate:
    """One structure estimate: energy in nJ/access, delay in cycles, W leak."""

    tag_energy: float
    data_energy: float
    tag_delay: float
    data_delay: float
    leakage_w: float

    @property
    def access_energy(self) -> float:
        return self.tag_energy + self.data_energy

    @property
    def access_delay(self) -> float:
        return max(self.tag_delay, self.data_delay)


@dataclass(frozen=True)
class CactiModel:
    """First-order SRAM array model fitted to Table I.

    Parameters are exposed so tests can probe monotonicity; defaults were
    chosen so that every Table I entry is reproduced within a factor of ~2,
    which is the agreement one expects from a one-term scaling law against a
    full CACTI run (different sub-bank counts, ECC, ports, …).
    """

    #: nJ per access for a 1 KB data array (fitted).
    data_energy_1kb: float = 0.004
    #: Capacity exponent for dynamic energy (square-array wire scaling).
    energy_exponent: float = 0.55
    #: Tag array behaves like a data array of ``tag_fraction * size``.
    tag_fraction: float = 0.05
    #: Cycles of fixed decoder/sense overhead.
    base_delay_cycles: float = 1.0
    #: Cycles per sqrt(KB) of wordline/bitline flight.
    delay_per_sqrt_kb: float = 0.085
    #: Watts of leakage per MB of SRAM (from [25]-era 32 nm data).
    leakage_w_per_mb: float = 0.042

    def data_array(self, size_bytes: int) -> float:
        """Dynamic energy (nJ) of one data-array access."""
        check_positive("size_bytes", size_bytes)
        kb = size_bytes / 1024.0
        return self.data_energy_1kb * kb**self.energy_exponent

    def tag_array(self, size_bytes: int, assoc: int) -> float:
        """Dynamic energy (nJ) of one tag-array access.

        The tag array stores ``assoc`` tags per set and reads them all in
        parallel; modelled as a small data array whose size scales with the
        cache's tag storage.
        """
        check_positive("assoc", assoc)
        effective = max(64.0, size_bytes * self.tag_fraction)
        return self.data_array(int(effective)) * math.sqrt(assoc) / 2.0

    def delay(self, size_bytes: int) -> float:
        """Access latency in cycles for an array of ``size_bytes``."""
        kb = size_bytes / 1024.0
        return self.base_delay_cycles + self.delay_per_sqrt_kb * math.sqrt(kb) + math.log2(max(kb, 1.0)) * 0.35

    def leakage(self, size_bytes: int) -> float:
        """Leakage power in watts."""
        return self.leakage_w_per_mb * size_bytes / (1024.0 * 1024.0)

    def estimate_level(self, level: CacheLevelParams) -> ModelEstimate:
        """Full estimate for a cache level."""
        return ModelEstimate(
            tag_energy=self.tag_array(level.size, level.assoc),
            data_energy=self.data_array(level.size),
            tag_delay=self.delay(int(max(64, level.size * self.tag_fraction))),
            data_delay=self.delay(level.size),
            leakage_w=self.leakage(level.size),
        )

    def estimate_table(self, size_bytes: int) -> ModelEstimate:
        """Estimate for a direct-mapped one-bit-entry prediction table.

        A direct-mapped bitmap has no tag array and reads a single 64-bit
        word per access, so its energy is far below a set-associative cache
        of equal capacity — the property §IV calls out ("its dynamic access
        energy is much smaller than the L2 cache despite being the same
        size").  Modelled as a data array with a 0.25 activation factor.
        """
        return ModelEstimate(
            tag_energy=0.0,
            data_energy=self.data_array(size_bytes) * 0.25,
            tag_delay=0.0,
            data_delay=self.delay(size_bytes) * 0.5,
            leakage_w=self.leakage(size_bytes),
        )

    def within_band(self, measured: float, estimated: float, factor: float = 3.0) -> bool:
        """Is a Table I value within ``factor``× of the model estimate?"""
        if measured <= 0 or estimated <= 0:
            return False
        ratio = measured / estimated
        return 1.0 / factor <= ratio <= factor
