"""Shared experiment context: default config and runner memoization.

Experiments regenerate different figures from the *same* content streams
(that is the whole point of the two-phase design), so the runner — which
caches workloads and streams — is memoized per config: ``build`` specs
that run back-to-back on one config pay for each content walk once.  (Grid
specs share walks through the sweep's stream cache instead.)
"""

from __future__ import annotations

from repro.energy.params import get_machine
from repro.sim.config import SimConfig
from repro.sim.runner import ExperimentRunner

__all__ = ["get_runner", "default_config", "clear_cache"]

_RUNNERS: dict[tuple, ExperimentRunner] = {}


def default_config() -> SimConfig:
    """The config every artifact is documented at (EXPERIMENTS.md): the
    ``scaled`` machine, 80k refs/core, seed 1 — the CLI's defaults too."""
    return SimConfig(machine=get_machine("scaled"))


def get_runner(config: SimConfig | None = None) -> ExperimentRunner:
    """Memoized runner for ``config`` (or :func:`default_config`).

    The key covers both the content-trajectory identity
    (``cfg.cache_key()``) and every evaluation-side knob, so two configs
    that evaluate differently never share a runner.
    """
    cfg = config or default_config()
    key = cfg.cache_key() + (
        cfg.fill_energy_weight, cfg.memory_latency, cfg.memory_energy_nj,
        cfg.mlp, repr(cfg.dram),
    )
    if key not in _RUNNERS:
        _RUNNERS[key] = ExperimentRunner(cfg)
    return _RUNNERS[key]


def clear_cache() -> None:
    """Drop memoized runners (frees stream memory between suites)."""
    _RUNNERS.clear()

