"""Per-figure/table experiment modules, the declarative specs that
describe them, and the registry that maps every paper artifact id to a
runnable regeneration."""

from repro.experiments.context import clear_cache, default_config, get_runner
from repro.experiments.driver import ExperimentSpec, run_spec
from repro.experiments.registry import (
    EXPERIMENTS,
    SPECS,
    experiment_ids,
    get_spec,
    run_experiment,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentSpec",
    "SPECS",
    "clear_cache",
    "default_config",
    "experiment_ids",
    "get_runner",
    "get_spec",
    "run_experiment",
    "run_spec",
]
