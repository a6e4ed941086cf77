"""Figure 11: dynamic energy vs prediction-table size.

The paper sweeps 64 KB - 2 MB against the 64 MB LLC (capacity ratios
2^-10 … 2^-5) at a fixed recalibration period, ignoring the prediction
overhead to isolate accuracy: the gain saturates past 512 KB (ratio 2^-7,
the chosen 0.78 %) and the table becomes "almost useless" at 64 KB.  We
sweep the same capacity *ratios* on whichever machine is configured, and
likewise report accuracy-only dynamic energy (PT lookup/update/recal
charges excluded).
"""

from __future__ import annotations

from repro.experiments.driver import ExperimentSpec, run_spec
from repro.experiments.grids import grid_cell, row_result
from repro.sim.report import ExperimentResult, add_average, format_table
from repro.workloads import PAPER_WORKLOADS

__all__ = ["SPEC", "cells", "render", "run", "sweep_sizes"]

EXPERIMENT_ID = "fig11"
TITLE = "ReDHiP dynamic energy vs prediction-table size (accuracy only)"

#: LLC-capacity ratios of the paper's 64 KB ... 2 MB sweep on a 64 MB LLC.
RATIO_EXPONENTS = (-10, -9, -8, -7, -6, -5)


def sweep_sizes(llc_bytes: int) -> list[int]:
    """Table sizes at the paper's capacity ratios for a given LLC."""
    return [llc_bytes >> (-e) for e in RATIO_EXPONENTS]


def _accuracy_only_ratio(result, base) -> float:
    """Dynamic-energy ratio with every PT charge excluded (per §V-B)."""
    dyn = result.dynamic_nj - result.ledger.component_nj("PT")
    return dyn / base.dynamic_nj


def _size_labels(cfg):
    sizes = sweep_sizes(cfg.machine.llc.size)
    labels = [f"{s // 1024}KB" if s >= 1024 else f"{s}B" for s in sizes]
    return sizes, labels


def cells(cfg, workloads=PAPER_WORKLOADS):
    sizes, _ = _size_labels(cfg)
    out = []
    for w in workloads:
        out.append(grid_cell(cfg, w, "base"))
        # pt_kb is the cell axis; size/1024 round-trips exactly because
        # every swept size is a power of two.
        out.extend(grid_cell(cfg, w, "redhip", pt_kb=size / 1024)
                   for size in sizes)
    return out


def render(cfg, rows, workloads=PAPER_WORKLOADS) -> ExperimentResult:
    sizes, labels = _size_labels(cfg)
    series: dict[str, dict[str, float]] = {}
    for wname in workloads:
        base = row_result(rows, grid_cell(cfg, wname, "base"))
        row: dict[str, float] = {}
        for size, label in zip(sizes, labels):
            res = row_result(rows, grid_cell(cfg, wname, "redhip",
                                             pt_kb=size / 1024))
            row[label] = _accuracy_only_ratio(res, base)
        series[wname] = row
    series = add_average(series)
    table = format_table(series, labels, value_format="{:.1%}")
    avg = series["average"]
    knee = labels[RATIO_EXPONENTS.index(-7)]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series=series,
        table=table,
        notes=(
            f"Paper: gains marginal beyond the 2^-7 ratio point ({knee} here, "
            f"= the chosen 0.78% of LLC); smallest table nearly useless. "
            f"Measured average at {knee}: {avg[knee]:.1%} of base."
        ),
    )


SPEC = ExperimentSpec(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    figure="Figure 11",
    kind="paper",
    workloads=PAPER_WORKLOADS,
    schemes=("Base", "ReDHiP"),
    sweep=("table_bytes",),
    smoke_kwargs={"workloads": ("mcf", "bwaves")},
    cells=cells,
    render=render,
)


def run(config=None, **kwargs) -> ExperimentResult:
    """Back-compat entry point: route the spec through the shared driver."""
    return run_spec(SPEC, config, **kwargs)
