"""Simulation engines: the two-phase flow (content walk + scheme
evaluation), the integrated single-pass reference simulator, and the
caching experiment runner."""

from repro.sim.config import SimConfig, default_recal_period
from repro.sim.content import ContentSimulator, merge_order
from repro.sim.evaluate import SchemeResult, evaluate_scheme, replay_predictor
from repro.sim.integrated import IntegratedSimulator, PrefetchConfig
from repro.sim.streamcache import StreamCache, resolve_cache, stream_key
from repro.sim.vector_replay import replay_redhip_vectorized
from repro.sim.report import (
    ExperimentResult,
    add_average,
    dynamic_energy_table,
    format_table,
    hit_rate_table,
    perf_energy_table,
    speedup_table,
)
from repro.sim.runner import ExperimentRunner

__all__ = [
    "ContentSimulator",
    "ExperimentResult",
    "ExperimentRunner",
    "IntegratedSimulator",
    "PrefetchConfig",
    "SchemeResult",
    "SimConfig",
    "StreamCache",
    "add_average",
    "default_recal_period",
    "dynamic_energy_table",
    "evaluate_scheme",
    "format_table",
    "hit_rate_table",
    "merge_order",
    "perf_energy_table",
    "replay_predictor",
    "replay_redhip_vectorized",
    "resolve_cache",
    "speedup_table",
    "stream_key",
]
