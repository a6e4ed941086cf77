"""Figure 8: the performance-energy metric.

The paper defines the metric as the product of performance gain and total
energy saving (static + dynamic): a scheme with speedup X and total-energy
saving Y scores X x Y expressed as (1 + gain) x (1 + saving), so higher is
better and 1.0 is the base case.  Paper: ReDHiP achieves "by far the best
trade-off", peaking around 1.3-1.45 per benchmark; CBF and Phased sit well
below it.  Oracle is excluded (a bound, not a scheme) exactly as in the
paper's figure.
"""

from __future__ import annotations

from repro.experiments.driver import ExperimentSpec
from repro.experiments.grids import SCHEME_NAMES, grid_cell, row_result
from repro.sim.report import (
    ExperimentResult,
    add_average,
    format_table,
    perf_energy_table,
)
from repro.workloads import PAPER_WORKLOADS

__all__ = ["SPEC", "cells", "render"]

EXPERIMENT_ID = "fig8"
TITLE = "Performance-energy metric (speedup x total-energy saving)"

#: The §V line-up without Oracle — the figure excludes the bound.
_SCHEME_KEYS = ("base", "cbf", "phased", "redhip")


def cells(cfg, workloads=PAPER_WORKLOADS):
    return [grid_cell(cfg, w, s) for w in workloads for s in _SCHEME_KEYS]


def render(cfg, rows, workloads=PAPER_WORKLOADS) -> ExperimentResult:
    results = {
        w: {SCHEME_NAMES[s]: row_result(rows, grid_cell(cfg, w, s))
            for s in _SCHEME_KEYS}
        for w in workloads
    }
    series = add_average(perf_energy_table(results))
    columns = [SCHEME_NAMES[s] for s in _SCHEME_KEYS if s != "base"]
    table = format_table(series, columns, value_format="{:.3f}")
    avg = series["average"]
    best = max(avg, key=avg.get)
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series=series,
        table=table,
        notes=f"Best average metric: {best} ({avg[best]:.3f}); paper: ReDHiP wins by far.",
        extra={"results": results},
    )


SPEC = ExperimentSpec(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    figure="Figure 8",
    kind="paper",
    workloads=PAPER_WORKLOADS,
    schemes=("Base", "CBF", "Phased", "ReDHiP"),
    smoke_kwargs={"workloads": ("mcf", "bwaves")},
    cells=cells,
    render=render,
)
