"""Experiment registry: every table/figure id -> declarative spec.

``run_experiment("fig6")`` regenerates the corresponding paper artifact
and returns an :class:`repro.sim.report.ExperimentResult`; the benchmark
harness and the examples both go through this registry, so the set of
reproducible artifacts is defined in exactly one place.

Each entry is an :class:`~repro.experiments.driver.ExperimentSpec`
declaring the artifact's figure anchor, sweep axes, scheme line-up and
workloads; :func:`~repro.experiments.driver.run_spec` is the shared
execution path (telemetry span + counter, fault-plan activation, runner
memoization, the grid's scheduler pool).  ``repro experiments ls``
renders this table without running anything.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.experiments import (
    ablations,
    extensions,
    fig1_history,
    fig6_speedup,
    fig7_dynamic_energy,
    fig8_perf_energy,
    fig9_fig10_hitrates,
    fig11_table_size,
    fig12_recalibration,
    fig13_inclusion,
    fig14_15_prefetch,
    intro_energy_split,
    studies,
    table1_params,
    zoo,
)
from repro.experiments.driver import ExperimentSpec, run_spec
from repro.sim.report import ExperimentResult
from repro.util.validation import ConfigError

__all__ = ["EXPERIMENTS", "SPECS", "experiment_ids", "get_spec", "run_experiment"]

#: Registry order mirrors the paper: figures/tables first, then
#: extensions, then ablations.
SPECS: Dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        fig1_history.SPEC,
        table1_params.SPEC,
        intro_energy_split.SPEC,
        fig6_speedup.SPEC,
        fig7_dynamic_energy.SPEC,
        fig8_perf_energy.SPEC,
        fig9_fig10_hitrates.SPEC_FIG9,
        fig9_fig10_hitrates.SPEC_FIG10,
        fig9_fig10_hitrates.SPEC_DELTA,
        fig11_table_size.SPEC,
        fig12_recalibration.SPEC,
        fig13_inclusion.SPEC,
        fig14_15_prefetch.SPEC,
        *extensions.SPECS,
        *zoo.SPECS,
        *studies.SPECS,
        *ablations.SPECS,
    )
}


def _entry(spec: ExperimentSpec) -> Callable[..., ExperimentResult]:
    def run(config=None, **kwargs) -> ExperimentResult:
        return run_spec(spec, config, **kwargs)

    return run


#: Back-compat view: id -> runnable ``fn(config=None, **kwargs)``.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    eid: _entry(spec) for eid, spec in SPECS.items()
}


def experiment_ids() -> list[str]:
    return list(SPECS)


def get_spec(experiment_id: str) -> ExperimentSpec:
    """The declarative spec behind one artifact id."""
    try:
        return SPECS[experiment_id]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {experiment_id!r}; available: {experiment_ids()}"
        ) from None


def run_experiment(experiment_id: str, config=None, **kwargs) -> ExperimentResult:
    """Regenerate one paper artifact by id (``fig6`` ... ``table1``)."""
    return run_spec(get_spec(experiment_id), config, **kwargs)
