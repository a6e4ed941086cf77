"""Predictor zoo: ReDHiP head-to-head with its 2014-2024 lineage.

``ext-zoo-levelpred``
    Cache level prediction (Jalili & Erez, arXiv:2103.14808) strictly
    generalizes ReDHiP: after an L1 miss it predicts the exact hit level
    and probes only that level, so a confident correct prediction costs
    one probe where ReDHiP still walks serially down to the hit.  The
    presence half of :class:`~repro.predictors.levelpred.LevelPredController`
    *is* ReDHiP's machinery, so the two schemes skip identically at equal
    table budget — the delta is purely the level table's doing.

``ext-zoo-ehc``
    Expected-hit-count reuse prediction (Vakil Ghahani et al.,
    arXiv:1808.05024) as an LLC policy: a block whose expected hit count
    has been spent is treated as dead and its LLC probe degrades to the
    phased (tag-then-data) discipline.  Its state shares ReDHiP's
    ``recal_period`` axis, so staleness is directly comparable — the
    ``EHC-stale`` row never recalibrates and shows what the sweep buys.

Neither original paper could run this comparison: both report against
their own baselines on different simulators.  Here every scheme charges
through the single charging kernel, so the per-category energy table at
the bottom of each artifact is an apples-to-apples decomposition.
"""

from __future__ import annotations

from repro.core.redhip import redhip_scheme
from repro.predictors.base import base_scheme, oracle_scheme, phased_scheme
from repro.predictors.ehc import ehc_scheme
from repro.predictors.levelpred import levelpred_scheme, oracle_levelpred_scheme
from repro.experiments.driver import ExperimentSpec
from repro.sim.report import ExperimentResult, add_average, format_table
from repro.sim.runner import ExperimentRunner

__all__ = ["SPECS"]

ZOO_WORKLOADS = ("bwaves", "mcf", "soplex", "blas")


def _with_category_table(table: str, by_scheme: dict, workload: str) -> str:
    """Append the kernel-category energy decomposition to a series table.

    Golden artifacts render ``result.table`` verbatim, so embedding the
    comparison here is what byte-pins every scheme's per-category column.
    """
    from repro.sim.report import scheme_comparison_table

    return (
        f"{table}\n\nPer-category dynamic energy on {workload!r}:\n"
        f"{scheme_comparison_table(by_scheme)}"
    )


def build_zoo_levelpred(cfg, workloads=ZOO_WORKLOADS) -> ExperimentResult:
    runner = ExperimentRunner(cfg)
    red = redhip_scheme(recal_period=cfg.recal_period)
    lp = levelpred_scheme(recal_period=cfg.recal_period)
    olp = oracle_levelpred_scheme()
    series: dict[str, dict[str, float]] = {}
    by_scheme: dict[str, object] = {}
    worst_slack = None
    for wname in workloads:
        base = runner.run(wname, base_scheme())
        r = runner.run(wname, red)
        l = runner.run(wname, lp)
        o = runner.run(wname, oracle_scheme())
        ol = runner.run(wname, olp)
        stats = l.predictor_stats
        singles = stats.get("confident_singles", 0.0)
        accuracy = stats.get("correct_singles", 0.0) / singles if singles else 0.0
        series[wname] = {
            "ReDHiP spd": r.speedup_over(base) - 1.0,
            "LevelPred spd": l.speedup_over(base) - 1.0,
            "Oracle-LP spd": ol.speedup_over(base) - 1.0,
            "ReDHiP dynE": r.dynamic_ratio(base),
            "LevelPred dynE": l.dynamic_ratio(base),
            "single acc": accuracy,
        }
        # Latency dominance of perfect level prediction over the
        # presence Oracle (which still walks serially to the hit level).
        slack = o.exec_cycles - ol.exec_cycles
        worst_slack = slack if worst_slack is None else min(worst_slack, slack)
        if wname == workloads[0]:
            by_scheme.update({
                "Base": base, "ReDHiP": r, "LevelPred": l,
                "Oracle-LevelPred": ol, "Oracle": o,
            })
    series = add_average(series)
    cols = ["ReDHiP spd", "LevelPred spd", "Oracle-LP spd",
            "ReDHiP dynE", "LevelPred dynE", "single acc"]
    table = format_table(series, cols, value_format="{:+.1%}")
    table = _with_category_table(table, by_scheme, workloads[0])
    return ExperimentResult(
        experiment_id="ext-zoo-levelpred",
        title="Level prediction vs ReDHiP: probe one level, not the walk",
        series=series,
        table=table,
        notes=(
            "LevelPred shares ReDHiP's presence bitmap (identical skips at "
            "equal area); confident correct level predictions replace the "
            "serial walk with one probe.  Oracle-LevelPred never walks and "
            "never probes on a true miss, so it bounds every walk-based "
            f"scheme from below (min Oracle slack {worst_slack:.4g} cycles "
            ">= 0 across the line-up)."
        ),
        extra={"category_workload": workloads[0]},
    )


def build_zoo_ehc(cfg, workloads=ZOO_WORKLOADS) -> ExperimentResult:
    runner = ExperimentRunner(cfg)
    red = redhip_scheme(recal_period=cfg.recal_period)
    live = ehc_scheme(recal_period=cfg.recal_period)
    stale = ehc_scheme(recal_period=None, name="EHC-stale")
    series: dict[str, dict[str, float]] = {}
    by_scheme: dict[str, object] = {}
    for wname in workloads:
        base = runner.run(wname, base_scheme())
        ph = runner.run(wname, phased_scheme())
        r = runner.run(wname, red)
        e = runner.run(wname, live)
        s = runner.run(wname, stale)
        stats = e.predictor_stats
        lookups = stats.get("lookups", 0.0)
        dead = stats.get("predicted_dead", 0.0) / lookups if lookups else 0.0
        series[wname] = {
            "Phased dynE": ph.dynamic_ratio(base),
            "ReDHiP dynE": r.dynamic_ratio(base),
            "EHC dynE": e.dynamic_ratio(base),
            "stale dynE": s.dynamic_ratio(base),
            "dead frac": dead,
        }
        if wname == workloads[0]:
            by_scheme.update({
                "Base": base, "Phased": ph, "ReDHiP": r, "EHC": e,
            })
    series = add_average(series)
    cols = ["Phased dynE", "ReDHiP dynE", "EHC dynE", "stale dynE", "dead frac"]
    table = format_table(series, cols, value_format="{:.1%}")
    table = _with_category_table(table, by_scheme, workloads[0])
    return ExperimentResult(
        experiment_id="ext-zoo-ehc",
        title="Expected-hit-count reuse prediction vs ReDHiP",
        series=series,
        table=table,
        notes=(
            "EHC never skips a level — predicted-dead blocks only degrade "
            "the LLC probe to the phased discipline, so it saves data-array "
            "energy without ReDHiP's lookup-removal leverage.  The stale "
            "row (no recalibration) shows the same sweep axis governs both "
            "schemes' staleness."
        ),
        extra={"category_workload": workloads[0]},
    )


_SMOKE = {"workloads": ("mcf", "bwaves")}

SPECS = (
    ExperimentSpec(
        experiment_id="ext-zoo-levelpred",
        title="Level prediction vs ReDHiP: probe one level, not the walk",
        build=build_zoo_levelpred,
        kind="extension",
        workloads=ZOO_WORKLOADS,
        schemes=("Base", "ReDHiP", "LevelPred", "Oracle-LevelPred", "Oracle"),
        smoke_kwargs=_SMOKE,
    ),
    ExperimentSpec(
        experiment_id="ext-zoo-ehc",
        title="Expected-hit-count reuse prediction vs ReDHiP",
        build=build_zoo_ehc,
        kind="extension",
        workloads=ZOO_WORKLOADS,
        schemes=("Base", "Phased", "ReDHiP", "EHC", "EHC-stale"),
        smoke_kwargs=_SMOKE,
    ),
)
