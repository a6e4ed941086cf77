"""Figure 13: ReDHiP's dynamic-energy savings under each inclusion policy.

Each policy is normalized to the *base case of the same policy*, exactly
as the paper specifies ("comparisons are made between the same cache
inclusion policies").  Paper findings: hybrid (exclusive privates under an
inclusive LLC) is indistinguishable from fully inclusive — ReDHiP only
relies on the LLC-superset property; fully exclusive needs the per-level
table stack, pays more table overhead and higher per-level staleness,
losing ~15 points of savings, but still beats its own base by > 40 %.

Inclusive and hybrid run through the two-phase path; exclusive ReDHiP is
scheme-coupled (per-level tables steer the probe schedule) and runs in the
integrated simulator.
"""

from __future__ import annotations

from repro.experiments.driver import ExperimentSpec, run_spec
from repro.experiments.grids import grid_cell, row_result
from repro.sim.report import ExperimentResult, add_average, format_table
from repro.workloads import PAPER_WORKLOADS

__all__ = ["SPEC", "cells", "render", "run"]

EXPERIMENT_ID = "fig13"
TITLE = "ReDHiP dynamic-energy savings by inclusion policy"

COLUMNS = ["Inclusive", "Hybrid", "Exclusive"]

#: Cell-axis policy values, in the figure's column order.  The scheduler
#: dispatches the (redhip, exclusive) cell to the integrated per-level
#: table stack (``ExperimentRunner.run_exclusive_redhip``).
_POLICIES = ("inclusive", "hybrid", "exclusive")


def cells(cfg, workloads=PAPER_WORKLOADS):
    return [grid_cell(cfg, w, scheme, policy=policy)
            for w in workloads
            for policy in _POLICIES
            for scheme in ("base", "redhip")]


def render(cfg, rows, workloads=PAPER_WORKLOADS) -> ExperimentResult:
    series: dict[str, dict[str, float]] = {}
    for wname in workloads:
        row: dict[str, float] = {}
        for policy in _POLICIES:
            base = row_result(rows, grid_cell(cfg, wname, "base",
                                              policy=policy))
            red = row_result(rows, grid_cell(cfg, wname, "redhip",
                                             policy=policy))
            row[policy.capitalize()] = 1.0 - red.dynamic_ratio(base)
        series[wname] = row
    series = add_average(series)
    table = format_table(series, COLUMNS, value_format="{:.1%}")
    avg = series["average"]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series=series,
        table=table,
        notes=(
            "Paper: hybrid ~= inclusive; exclusive ~15pp lower but still >40% "
            "savings vs its own base. Measured average savings: "
            + ", ".join(f"{k}={v:.0%}" for k, v in avg.items())
        ),
    )


SPEC = ExperimentSpec(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    figure="Figure 13",
    kind="paper",
    workloads=PAPER_WORKLOADS,
    schemes=("Base", "ReDHiP"),
    sweep=("policy",),
    smoke_kwargs={"workloads": ("mcf", "bwaves")},
    cells=cells,
    render=render,
)


def run(config=None, **kwargs) -> ExperimentResult:
    """Back-compat entry point: route the spec through the shared driver."""
    return run_spec(SPEC, config, **kwargs)
