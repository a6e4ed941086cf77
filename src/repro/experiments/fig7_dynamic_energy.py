"""Figure 7: dynamic energy consumption normalized to the base case.

Paper averages: Oracle 29 % of base (71 % saving), ReDHiP 39 % (61 %
saving, prediction + recalibration overhead < 1 % of total), Phased Cache
45 % (55 % saving), CBF 82 % (18 % saving).  The ordering to reproduce:
Oracle < ReDHiP < Phased < CBF < Base.
"""

from __future__ import annotations

from repro.experiments.driver import ExperimentSpec
from repro.experiments.grids import (
    PAPER_SCHEME_KEYS,
    SCHEME_NAMES,
    grid_cell,
    row_result,
)
from repro.sim.report import (
    ExperimentResult,
    add_average,
    dynamic_energy_table,
    format_table,
)
from repro.workloads import PAPER_WORKLOADS

__all__ = ["SPEC", "cells", "render"]

EXPERIMENT_ID = "fig7"
TITLE = "Dynamic energy normalized to base: Oracle, CBF, Phased, ReDHiP"
PAPER_AVERAGES = {"Oracle": 0.29, "CBF": 0.82, "Phased": 0.45, "ReDHiP": 0.39}


def cells(cfg, workloads=PAPER_WORKLOADS):
    return [grid_cell(cfg, w, s)
            for w in workloads for s in PAPER_SCHEME_KEYS]


def render(cfg, rows, workloads=PAPER_WORKLOADS) -> ExperimentResult:
    results = {
        w: {SCHEME_NAMES[s]: row_result(rows, grid_cell(cfg, w, s))
            for s in PAPER_SCHEME_KEYS}
        for w in workloads
    }
    series = add_average(dynamic_energy_table(results))
    columns = [SCHEME_NAMES[s] for s in PAPER_SCHEME_KEYS if s != "base"]
    table = format_table(series, columns, value_format="{:.1%}")
    # The paper also notes prediction+recalibration < 1% of total dynamic.
    overhead = {}
    for wname, row in results.items():
        r = row["ReDHiP"]
        overhead[wname] = r.ledger.component_nj("PT") / r.dynamic_nj if r.dynamic_nj else 0.0
    avg_overhead = sum(overhead.values()) / len(overhead)
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series=series,
        table=table,
        notes=(
            f"Paper averages: {PAPER_AVERAGES}. "
            f"Measured PT (lookup+update+recal) share of ReDHiP dynamic energy: "
            f"{avg_overhead:.2%} (paper: <1%)."
        ),
        extra={"results": results, "pt_overhead_share": overhead},
    )


SPEC = ExperimentSpec(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    figure="Figure 7",
    kind="paper",
    workloads=PAPER_WORKLOADS,
    schemes=("Base", "Oracle", "CBF", "Phased", "ReDHiP"),
    smoke_kwargs={"workloads": ("mcf", "bwaves")},
    cells=cells,
    render=render,
)
