"""Committed parameter studies: grid-native artifacts on the sweep substrate.

The ``recal_multiple`` and ``pt_kb`` axes started life as ad-hoc sweep
configs (``repro sweep``); these two specs promote them to committed,
golden-pinned experiments.  Like the figure modules, ``cells``/``render``
is their only implementation; the driver refuses a config the grid
cannot express instead of silently computing something different.

``study-recal``
    The recalibration-cadence cross-section of the predictor zoo: every
    recalibrating scheme (ReDHiP, LevelPred, EHC) at multiples of the
    paper cadence from P/8 to never.  Fig. 12 sweeps the axis for ReDHiP
    alone; this study asks whether the knee is a property of the scheme
    or of the staleness process (the paper's framing says the latter, so
    all three should collapse near P and diverge at ``inf``).

``study-pt``
    The equal-area question across predictors: ReDHiP vs CBF vs EHC at
    the same table budgets (LLC capacity ratios 2^-9, 2^-7, 2^-5).  The
    per-bit accuracy argument of §III predicts ReDHiP degrades most
    gracefully as the budget shrinks.

Both report the dynamic-energy ratio vs the base case, averaged over the
workload line-up — one scalar per (scheme, axis point), so the artifact
table has schemes as rows and axis points as columns.
"""

from __future__ import annotations

from repro.experiments.driver import ExperimentSpec, run_spec
from repro.experiments.grids import grid_cell, row_result
from repro.sim.report import ExperimentResult, format_table

__all__ = ["SPECS", "run_recal_study", "run_pt_study"]

STUDY_WORKLOADS = ("bwaves", "mcf", "soplex", "blas")
_SMOKE = {"workloads": ("mcf", "bwaves")}

#: (cell scheme, display row) for every recalibrating predictor.
RECAL_STUDY_SCHEMES = (
    ("redhip", "ReDHiP"),
    ("levelpred", "LevelPred"),
    ("ehc", "EHC"),
)

#: (column label, recal multiple) around the paper cadence P.
RECAL_STUDY_MULTIPLES = (
    ("P/8", 0.125),
    ("P", 1.0),
    ("8P", 8.0),
    ("inf", float("inf")),
)

#: (cell scheme, display row) for the table-budget study.
PT_STUDY_SCHEMES = (
    ("redhip", "ReDHiP"),
    ("cbf", "CBF"),
    ("ehc", "EHC"),
)

#: LLC-capacity ratio exponents the budget columns sweep.
PT_STUDY_EXPONENTS = (-9, -7, -5)


def _avg_ratio(cfg, rows, workloads, scheme, **axes) -> float:
    ratios = []
    for wname in workloads:
        base = row_result(rows, grid_cell(cfg, wname, "base"))
        res = row_result(rows, grid_cell(cfg, wname, scheme, **axes))
        ratios.append(res.dynamic_ratio(base))
    return sum(ratios) / len(ratios)


def cells_recal_study(cfg, workloads=STUDY_WORKLOADS):
    out = []
    for w in workloads:
        out.append(grid_cell(cfg, w, "base"))
        for scheme, _ in RECAL_STUDY_SCHEMES:
            out.extend(grid_cell(cfg, w, scheme, recal_multiple=m)
                       for _, m in RECAL_STUDY_MULTIPLES)
    return out


def render_recal_study(cfg, rows, workloads=STUDY_WORKLOADS) -> ExperimentResult:
    labels = [label for label, _ in RECAL_STUDY_MULTIPLES]
    series: dict[str, dict[str, float]] = {}
    for scheme, name in RECAL_STUDY_SCHEMES:
        series[name] = {
            label: _avg_ratio(cfg, rows, workloads, scheme, recal_multiple=m)
            for label, m in RECAL_STUDY_MULTIPLES
        }
    table = format_table(series, labels, value_format="{:.1%}",
                         row_header="scheme")
    at_p = {name: row["P"] for name, row in series.items()}
    worst_inf = max(series, key=lambda name: series[name]["inf"])
    return ExperimentResult(
        experiment_id="study-recal",
        title="Recalibration cadence across the predictor zoo (dynamic energy vs base)",
        series=series,
        table=table,
        notes=(
            "Staleness, not the scheme, sets the knee: at the paper cadence P "
            "the zoo sits at "
            + ", ".join(f"{k}={v:.0%}" for k, v in at_p.items())
            + f"; never recalibrating degrades {worst_inf} most "
            f"({series[worst_inf]['inf']:.0%})."
        ),
    )


def _pt_points(cfg):
    """(column label, pt_kb) per budget column — fig11's label scheme."""
    out = []
    for exp in PT_STUDY_EXPONENTS:
        size = cfg.machine.llc.size >> (-exp)
        label = f"{size // 1024}KB" if size >= 1024 else f"{size}B"
        out.append((label, size / 1024))
    return out


def cells_pt_study(cfg, workloads=STUDY_WORKLOADS):
    points = _pt_points(cfg)
    out = []
    for w in workloads:
        out.append(grid_cell(cfg, w, "base"))
        for scheme, _ in PT_STUDY_SCHEMES:
            out.extend(grid_cell(cfg, w, scheme, pt_kb=pt)
                       for _, pt in points)
    return out


def render_pt_study(cfg, rows, workloads=STUDY_WORKLOADS) -> ExperimentResult:
    points = _pt_points(cfg)
    labels = [label for label, _ in points]
    series: dict[str, dict[str, float]] = {}
    for scheme, name in PT_STUDY_SCHEMES:
        series[name] = {
            label: _avg_ratio(cfg, rows, workloads, scheme, pt_kb=pt)
            for label, pt in points
        }
    table = format_table(series, labels, value_format="{:.1%}",
                         row_header="scheme")
    smallest = labels[0]
    best_small = min(series, key=lambda name: series[name][smallest])
    return ExperimentResult(
        experiment_id="study-pt",
        title="Prediction-table budget across predictors (dynamic energy vs base)",
        series=series,
        table=table,
        notes=(
            f"Equal-area comparison at LLC ratios "
            f"{', '.join(f'2^{e}' for e in PT_STUDY_EXPONENTS)}: at the "
            f"smallest budget ({smallest}) {best_small} holds up best "
            f"({series[best_small][smallest]:.0%} of base) — the per-bit "
            f"accuracy argument of §III."
        ),
    )


SPECS = (
    ExperimentSpec(
        experiment_id="study-recal",
        title="Recalibration cadence across the predictor zoo (dynamic energy vs base)",
        kind="extension",
        workloads=STUDY_WORKLOADS,
        schemes=("Base", "ReDHiP", "LevelPred", "EHC"),
        sweep=("recal_multiple",),
        smoke_kwargs=_SMOKE,
        cells=cells_recal_study,
        render=render_recal_study,
    ),
    ExperimentSpec(
        experiment_id="study-pt",
        title="Prediction-table budget across predictors (dynamic energy vs base)",
        kind="extension",
        workloads=STUDY_WORKLOADS,
        schemes=("Base", "ReDHiP", "CBF", "EHC"),
        sweep=("pt_kb",),
        smoke_kwargs=_SMOKE,
        cells=cells_pt_study,
        render=render_pt_study,
    ),
)


def _wrap(spec: ExperimentSpec):
    def run(config=None, **kwargs) -> ExperimentResult:
        return run_spec(spec, config, **kwargs)

    run.__doc__ = f"Back-compat entry point for {spec.experiment_id!r}."
    return run


run_recal_study = _wrap(SPECS[0])
run_pt_study = _wrap(SPECS[1])
