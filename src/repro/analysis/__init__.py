"""Trace and result analysis utilities: reuse-distance (stack-distance)
profiling and windowed phase statistics."""

from repro.analysis.phases import PhaseStats, windowed_skip_rate, windowed_stats
from repro.analysis.reuse import COLD, ReuseProfile, profile_trace, reuse_distances

__all__ = [
    "COLD",
    "PhaseStats",
    "ReuseProfile",
    "profile_trace",
    "reuse_distances",
    "windowed_skip_rate",
    "windowed_stats",
]
