"""Statistics helpers for experiment reporting.

The paper reports per-benchmark bars plus an ``average`` bar; speedups are
arithmetic means of per-benchmark speedups and energies are normalized to the
base case.  These helpers centralize that arithmetic so every figure module
computes it the same way.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MetricEstimate",
    "geometric_mean",
    "normalize_to",
    "percent",
    "ratio_series",
    "summarize",
    "weighted_mean",
]


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; raises on non-positive input.

    Speedup aggregation across benchmarks is sometimes reported as a
    geometric mean; the paper uses an arithmetic ``average`` bar, which we
    follow in the figures, but the geomean is exposed for the ablations.
    """
    vals = list(values)
    if not vals:
        raise ValueError("geometric mean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def weighted_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted arithmetic mean."""
    if len(values) != len(weights):
        raise ValueError("values and weights must have the same length")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    return float(sum(v * w for v, w in zip(values, weights)) / total)


def normalize_to(series: Mapping[str, float], base: float) -> dict[str, float]:
    """Normalize every entry of ``series`` to ``base`` (the paper's y-axes)."""
    if base == 0:
        raise ZeroDivisionError("cannot normalize to a zero base value")
    return {k: v / base for k, v in series.items()}


def ratio_series(
    numerators: Mapping[str, float], denominators: Mapping[str, float]
) -> dict[str, float]:
    """Element-wise ratio of two keyed series (keys must match)."""
    if set(numerators) != set(denominators):
        missing = set(numerators) ^ set(denominators)
        raise KeyError(f"series keys differ: {sorted(missing)}")
    return {k: numerators[k] / denominators[k] for k in numerators}


def percent(value: float) -> str:
    """Format a ratio as a signed percentage string, e.g. ``+8.3%``."""
    return f"{value * 100:+.1f}%"


def summarize(values: Iterable[float]) -> dict[str, float]:
    """Mean/min/max/std summary used in bench output footers."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("summarize of empty sequence")
    return {
        "mean": float(arr.mean()),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "std": float(arr.std()),
        "n": int(arr.size),
    }


#: z value for a two-sided 95 % interval.
Z95 = 1.96


@dataclass(frozen=True)
class MetricEstimate:
    """Mean / spread / normal-approximation 95 % CI of one scalar metric
    across seeds — the error bars the paper does not print."""

    name: str
    samples: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.samples))

    @property
    def std(self) -> float:
        return float(np.std(self.samples, ddof=1)) if len(self.samples) > 1 else 0.0

    @property
    def ci95(self) -> float:
        """Half-width of the 95 % CI on the mean."""
        n = len(self.samples)
        return float(Z95 * self.std / np.sqrt(n)) if n > 1 else 0.0

    def __str__(self) -> str:
        return f"{self.name}: {self.mean:+.3f} ± {self.ci95:.3f} (n={len(self.samples)})"
