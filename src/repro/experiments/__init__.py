"""Per-figure/table experiment modules, the declarative specs that
describe them, and the registry that maps every paper artifact id to a
runnable regeneration."""

from repro.experiments.driver import ExperimentSpec, default_config, run_spec
from repro.experiments.registry import (
    SPECS,
    experiment_ids,
    get_spec,
    run_experiment,
)

__all__ = [
    "ExperimentSpec",
    "SPECS",
    "default_config",
    "experiment_ids",
    "get_spec",
    "run_experiment",
    "run_spec",
]
