"""Figure 12: dynamic energy vs recalibration period.

The paper varies the period from 1 L1 miss ("perfect recalibration")
through 10 K/100 K/1 M/10 M/100 M to infinite (never recalibrate),
reporting accuracy-only dynamic energy: flat from 1 up to the 1 M knee,
then a precipitous accuracy collapse beyond it.  The paper's 1 M equals
its LLC line count (see ``repro.sim.config.default_recal_period``), so we
sweep the same *multiples of the LLC-line period* on any machine: 1 miss,
P/64, P/8, P, 8P, 64P, and infinity.
"""

from __future__ import annotations

from repro.experiments.driver import ExperimentSpec
from repro.experiments.grids import grid_cell, row_result
from repro.sim.report import ExperimentResult, add_average, format_table
from repro.workloads import PAPER_WORKLOADS

__all__ = ["SPEC", "cells", "render", "sweep_periods"]

EXPERIMENT_ID = "fig12"
TITLE = "ReDHiP dynamic energy vs recalibration period (accuracy only)"


def sweep_periods(default_period: int) -> list[tuple[str, int | None]]:
    """(label, period) points mirroring the paper's sweep around the knee."""
    p = default_period
    return [
        ("1", 1),
        ("P/64", max(1, p // 64)),
        ("P/8", max(1, p // 8)),
        ("P", p),
        ("8P", 8 * p),
        ("64P", 64 * p),
        ("inf", None),
    ]


def _accuracy_only_ratio(result, base) -> float:
    dyn = result.dynamic_nj - result.ledger.component_nj("PT")
    return dyn / base.dynamic_nj


def _multiples(cfg):
    """(label, recal_multiple) per sweep point.

    Multiples reconstruct :func:`sweep_periods`' absolute values exactly:
    the default period is the LLC line count (a power of two), so every
    ``target / period`` ratio is an exact binary float and the cell's
    ``round(multiple * period)`` lands back on ``target``.
    """
    period = cfg.recal_period
    out = []
    for label, target in sweep_periods(period):
        out.append((label, float("inf") if target is None
                    else target / period))
    return out


def cells(cfg, workloads=PAPER_WORKLOADS):
    points = _multiples(cfg)
    out = []
    for w in workloads:
        out.append(grid_cell(cfg, w, "base"))
        out.extend(grid_cell(cfg, w, "redhip", recal_multiple=m)
                   for _, m in points)
    return out


def render(cfg, rows, workloads=PAPER_WORKLOADS) -> ExperimentResult:
    points = _multiples(cfg)
    labels = [label for label, _ in points]
    series: dict[str, dict[str, float]] = {}
    for wname in workloads:
        base = row_result(rows, grid_cell(cfg, wname, "base"))
        row: dict[str, float] = {}
        for label, multiple in points:
            res = row_result(rows, grid_cell(cfg, wname, "redhip",
                                             recal_multiple=multiple))
            row[label] = _accuracy_only_ratio(res, base)
        series[wname] = row
    series = add_average(series)
    table = format_table(series, labels, value_format="{:.1%}")
    avg = series["average"]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series=series,
        table=table,
        notes=(
            "Paper: energy flat from every-miss down to the 1M (=P) knee, "
            "then collapses toward never-recalibrate. Measured average: "
            + ", ".join(f"{k}={v:.0%}" for k, v in avg.items())
        ),
    )


SPEC = ExperimentSpec(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    figure="Figure 12",
    kind="paper",
    workloads=PAPER_WORKLOADS,
    schemes=("Base", "ReDHiP"),
    sweep=("recal_period",),
    smoke_kwargs={"workloads": ("mcf", "bwaves")},
    cells=cells,
    render=render,
)
