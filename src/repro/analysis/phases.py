"""Windowed (phase) statistics over an outcome stream.

The gating mechanism, the recalibration schedule and the paper's
"accuracy degrades over time" narrative are all statements about how
behaviour evolves *within* a run.  This module slices a frozen
:class:`OutcomeStream` into fixed-size windows of accesses (counting the
record's L1 misses and LLC events by access index) and reports, per
window:

* L1 miss rate and memory (full-miss) rate,
* LLC fill/eviction rates (the staleness pressure on ReDHiP's bitmap),
* an optional replayed-predictor skip rate per window, showing accuracy
  sawtoothing between recalibration sweeps — the time-resolved version of
  Figure 12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hierarchy.events import EVENT_FILL, OutcomeStream
from repro.predictors.base import PresencePredictor
from repro.sim.evaluate import replay_predictor
from repro.util.validation import check_positive

__all__ = ["PhaseStats", "windowed_stats", "windowed_skip_rate"]


@dataclass(frozen=True)
class PhaseStats:
    """Per-window time series over one run."""

    window: int
    l1_miss_rate: np.ndarray     # float64[w]
    memory_rate: np.ndarray      # float64[w]
    llc_fill_rate: np.ndarray    # fills per access, float64[w]
    llc_evict_rate: np.ndarray   # evictions per access, float64[w]

    @property
    def num_windows(self) -> int:
        return int(len(self.l1_miss_rate))

    def summary(self) -> dict[str, float]:
        return {
            "windows": float(self.num_windows),
            "l1_miss_mean": float(self.l1_miss_rate.mean()),
            "l1_miss_std": float(self.l1_miss_rate.std()),
            "memory_mean": float(self.memory_rate.mean()),
            "fill_mean": float(self.llc_fill_rate.mean()),
        }


def _window_counts(positions: np.ndarray, n: int, window: int) -> np.ndarray:
    """How many of the access indices ``positions`` fall in each full
    window of ``window`` accesses out of ``n`` (last partial window
    dropped)."""
    w = n // window
    counts = np.bincount(positions // window, minlength=w + 1)
    return counts[:w].astype(np.float64)


def windowed_stats(stream: OutcomeStream, window: int = 4096) -> PhaseStats:
    """Slice the run into windows of ``window`` accesses."""
    check_positive("window", window)
    n = stream.num_accesses
    fill = stream.llc_op == EVENT_FILL
    when = stream.llc_when
    memory = stream.at[stream.hit_level == 0]
    return PhaseStats(
        window=window,
        l1_miss_rate=_window_counts(stream.at, n, window) / window,
        memory_rate=_window_counts(memory, n, window) / window,
        llc_fill_rate=_window_counts(when[fill], n, window) / window,
        llc_evict_rate=_window_counts(when[~fill], n, window) / window,
    )


def windowed_skip_rate(
    stream: OutcomeStream, predictor: PresencePredictor, window: int = 4096
) -> np.ndarray:
    """Per-window fraction of true misses the predictor skipped.

    Replays the predictor over the stream once; windows with no true
    misses report NaN (nothing to skip).
    """
    check_positive("window", window)
    predicted, _consulted, _stall = replay_predictor(stream, predictor)
    n = stream.num_accesses
    absent = stream.hit_level == 0
    a = _window_counts(stream.at[absent], n, window)
    s = _window_counts(stream.at[absent & ~predicted], n, window)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(a > 0, s / a, np.nan)
