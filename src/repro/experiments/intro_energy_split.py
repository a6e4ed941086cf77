"""§I claim: lower-level caches (L3+L4) consume ~80 % of dynamic cache
energy despite being accessed infrequently.

Reproduced by running the base (no-prediction) scheme on every workload
and attributing dynamic energy by structure from the ledger, alongside the
access counts that make the "despite being accessed infrequently" part
visible.
"""

from __future__ import annotations

from repro.predictors.base import base_scheme
from repro.experiments.driver import ExperimentSpec
from repro.sim.report import ExperimentResult, add_average, format_table
from repro.sim.runner import ExperimentRunner
from repro.workloads import PAPER_WORKLOADS

__all__ = ["SPEC", "build"]

EXPERIMENT_ID = "intro"
TITLE = "Share of dynamic cache energy consumed by L3+L4 in the base case"


def build(cfg, workloads=PAPER_WORKLOADS) -> ExperimentResult:
    runner = ExperimentRunner(cfg)
    series: dict[str, dict[str, float]] = {}
    for wname in workloads:
        res = runner.run(wname, base_scheme())
        breakdown = res.ledger.breakdown()
        total = sum(breakdown.values())
        low = breakdown.get("L3", 0.0) + breakdown.get("L4", 0.0)
        lookups = res.level_lookups
        series[wname] = {
            "L3+L4 energy share": low / total if total else 0.0,
            "L3 lookup share": lookups[3] / lookups[1],
            "L4 lookup share": lookups[4] / lookups[1],
        }
    series = add_average(series)
    cols = ["L3+L4 energy share", "L3 lookup share", "L4 lookup share"]
    table = format_table(series, cols, value_format="{:.1%}")
    avg = series["average"]["L3+L4 energy share"]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series=series,
        table=table,
        notes=f"Paper: ~80% of dynamic cache energy. Measured average: {avg:.1%}.",
    )


SPEC = ExperimentSpec(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    build=build,
    figure="§I",
    kind="paper",
    workloads=PAPER_WORKLOADS,
    schemes=("Base",),
    smoke_kwargs={"workloads": ("mcf", "bwaves")},
)
