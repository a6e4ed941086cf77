"""Figure 6: performance speedup of Oracle / CBF / Phased / ReDHiP vs base.

Paper: ReDHiP +8 % average (+10 % with prediction overhead excluded),
Oracle +13 % bound, CBF < +4 % at the same table budget, Phased Cache -3 %.
Positive numbers mean speedup; prediction and recalibration overhead is
included in ReDHiP.
"""

from __future__ import annotations

from repro.experiments.driver import ExperimentSpec, run_spec
from repro.experiments.grids import (
    PAPER_SCHEME_KEYS,
    SCHEME_NAMES,
    grid_cell,
    row_result,
)
from repro.sim.report import ExperimentResult, add_average, format_table, speedup_table
from repro.workloads import PAPER_WORKLOADS

__all__ = ["SPEC", "cells", "render", "run"]

EXPERIMENT_ID = "fig6"
TITLE = "Speedup over base: Oracle, CBF, Phased, ReDHiP"
PAPER_AVERAGES = {"Oracle": 0.13, "CBF": 0.04, "Phased": -0.03, "ReDHiP": 0.08}


def _scheme_keys(include_no_overhead: bool) -> tuple:
    # The paper quotes ReDHiP-without-overhead (+10%) alongside the full
    # scheme: the table lookup costs no cycles, energy kept.
    return PAPER_SCHEME_KEYS + (("redhip_noov",) if include_no_overhead else ())


def cells(cfg, workloads=PAPER_WORKLOADS, include_no_overhead: bool = True):
    """The figure's grid: every workload x the §V line-up (+ NoOv)."""
    return [grid_cell(cfg, w, s)
            for w in workloads for s in _scheme_keys(include_no_overhead)]


def render(cfg, rows, workloads=PAPER_WORKLOADS,
           include_no_overhead: bool = True) -> ExperimentResult:
    keys = _scheme_keys(include_no_overhead)
    results = {
        w: {SCHEME_NAMES[s]: row_result(rows, grid_cell(cfg, w, s))
            for s in keys}
        for w in workloads
    }
    series = add_average(speedup_table(results))
    columns = [SCHEME_NAMES[s] for s in keys if s != "base"]
    table = format_table(series, columns)
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series=series,
        table=table,
        notes=f"Paper averages: {PAPER_AVERAGES}",
        extra={"results": results},
    )


SPEC = ExperimentSpec(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    figure="Figure 6",
    kind="paper",
    workloads=PAPER_WORKLOADS,
    schemes=("Base", "Oracle", "CBF", "Phased", "ReDHiP", "ReDHiP-NoOv"),
    smoke_kwargs={"workloads": ("mcf", "bwaves")},
    cells=cells,
    render=render,
)


def run(config=None, **kwargs) -> ExperimentResult:
    """Back-compat entry point: route the spec through the shared driver."""
    return run_spec(SPEC, config, **kwargs)
