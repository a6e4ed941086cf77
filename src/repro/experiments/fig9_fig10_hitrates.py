"""Figures 9 and 10: per-level cache hit rates, base case vs ReDHiP.

Figure 9 shows the hit rate of each level with no prediction; Figure 10
shows the same under ReDHiP.  L1 is unaffected (prediction happens after
L1 misses); L2/L3/L4 hit rates *rise* because predicted-miss accesses no
longer probe them — the paper reports average improvements of ~14, 12 and
18 percentage points.  Both figures come from the same content streams.
"""

from __future__ import annotations

from repro.experiments.driver import ExperimentSpec
from repro.experiments.grids import grid_cell, row_result
from repro.sim.report import ExperimentResult, add_average, format_table, hit_rate_table
from repro.workloads import PAPER_WORKLOADS

__all__ = ["SPEC_FIG9", "SPEC_FIG10", "SPEC_DELTA"]

PAPER_DELTAS_PP = {"L2": 0.14, "L3": 0.12, "L4": 0.18}


# The hit-rate figures always evaluate the full PAPER_WORKLOADS line-up
# (no ``workloads`` kwarg), so the grids are fixed per config.
def cells_fig9(cfg):
    return [grid_cell(cfg, w, "base") for w in PAPER_WORKLOADS]


def cells_fig10(cfg):
    return [grid_cell(cfg, w, "redhip") for w in PAPER_WORKLOADS]


def cells_delta(cfg):
    return cells_fig9(cfg) + cells_fig10(cfg)


def _render_hit_rates(cfg, rows, experiment_id: str, title: str,
                      scheme: str) -> ExperimentResult:
    results = {w: row_result(rows, grid_cell(cfg, w, scheme))
               for w in PAPER_WORKLOADS}
    num_levels = cfg.machine.num_levels
    series = add_average(hit_rate_table(results, num_levels))
    columns = [f"L{lvl}" for lvl in range(1, num_levels + 1)]
    table = format_table(series, columns, value_format="{:.1%}")
    return ExperimentResult(
        experiment_id=experiment_id, title=title, series=series, table=table,
        extra={"results": results},
    )


def render_fig9(cfg, rows) -> ExperimentResult:
    return _render_hit_rates(
        cfg, rows, "fig9", "Per-level hit rates, base case", "base")


def render_fig10(cfg, rows) -> ExperimentResult:
    return _render_hit_rates(
        cfg, rows, "fig10", "Per-level hit rates under ReDHiP", "redhip")


def render_delta(cfg, rows) -> ExperimentResult:
    """The paper's quoted deltas: ReDHiP raises L2/L3/L4 hit rates."""
    base = render_fig9(cfg, rows)
    red = render_fig10(cfg, rows)
    return _delta_result(base, red)


def _delta_result(base: ExperimentResult, red: ExperimentResult) -> ExperimentResult:
    series: dict[str, dict[str, float]] = {}
    for bench in base.series:
        series[bench] = {
            lvl: red.series[bench][lvl] - base.series[bench][lvl]
            for lvl in base.series[bench]
        }
    columns = list(next(iter(series.values())))
    table = format_table(series, columns, value_format="{:+.1%}")
    avg = series["average"]
    return ExperimentResult(
        experiment_id="fig10-delta",
        title="Hit-rate improvement under ReDHiP (percentage points)",
        series=series,
        table=table,
        notes=(
            f"Paper average improvements: {PAPER_DELTAS_PP}; "
            f"measured: " + ", ".join(f"{k}={v:+.1%}" for k, v in avg.items())
        ),
    )


SPEC_FIG9 = ExperimentSpec(
    experiment_id="fig9",
    title="Per-level hit rates, base case",
    figure="Figure 9",
    kind="paper",
    workloads=PAPER_WORKLOADS,
    schemes=("Base",),
    cells=cells_fig9,
    render=render_fig9,
)

SPEC_FIG10 = ExperimentSpec(
    experiment_id="fig10",
    title="Per-level hit rates under ReDHiP",
    figure="Figure 10",
    kind="paper",
    workloads=PAPER_WORKLOADS,
    schemes=("ReDHiP",),
    cells=cells_fig10,
    render=render_fig10,
)

SPEC_DELTA = ExperimentSpec(
    experiment_id="fig10-delta",
    title="Hit-rate improvement under ReDHiP (percentage points)",
    figure="Figures 9-10",
    kind="paper",
    workloads=PAPER_WORKLOADS,
    schemes=("Base", "ReDHiP"),
    cells=cells_delta,
    render=render_delta,
)
