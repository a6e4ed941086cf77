"""Figures 14 and 15: interaction of ReDHiP with hardware stride prefetching.

Four integrated-simulator configurations per workload, all inclusive:

* ``Base`` — nothing (normalization),
* ``SP`` — stride prefetcher only,
* ``ReDHiP`` — prediction only,
* ``SP+ReDHiP`` — both, with prefetch requests filtered through the
  prediction table (a predicted-miss prefetch skips all cache probes).

Paper findings: performance benefits are *additive* (prefetching covers
the strided traffic, ReDHiP accelerates the rest), Figure 14; prefetching
alone costs energy (wasted probes + pollution) while the combination lands
between SP's cost and ReDHiP's savings, Figure 15.

Prefetching changes cache contents, so these runs cannot share content
streams; they use the integrated single-pass simulator and are the most
expensive experiments in the suite.  ``refs_cap`` trims the trace length
(half the default) to keep a full regeneration affordable.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.redhip import redhip_scheme
from repro.predictors.base import base_scheme
from repro.experiments.driver import ExperimentSpec
from repro.sim.config import SimConfig
from repro.sim.integrated import PrefetchConfig
from repro.sim.report import ExperimentResult, add_average, format_table
from repro.sim.runner import ExperimentRunner
from repro.workloads import PAPER_WORKLOADS

__all__ = ["SPEC", "build"]

EXPERIMENT_ID = "fig14-15"
TITLE = "Stride prefetching vs ReDHiP vs both (speedup and dynamic energy)"

COLUMNS = ["SP", "ReDHiP", "SP+ReDHiP"]


def build(base_cfg, workloads=PAPER_WORKLOADS, refs_cap: int | None = None) -> ExperimentResult:
    cap = refs_cap if refs_cap is not None else max(20_000, base_cfg.refs_per_core // 2)
    cfg: SimConfig = replace(base_cfg, refs_per_core=min(base_cfg.refs_per_core, cap))
    runner = ExperimentRunner(cfg)
    pf = PrefetchConfig()
    red = redhip_scheme(recal_period=cfg.recal_period)
    speedups: dict[str, dict[str, float]] = {}
    energies: dict[str, dict[str, float]] = {}
    prefetch_stats: dict[str, dict] = {}
    for wname in workloads:
        base = runner.run_integrated(wname, base_scheme())
        sp = runner.run_integrated(wname, base_scheme(), prefetch=pf)
        rh = runner.run_integrated(wname, red)
        both = runner.run_integrated(wname, red, prefetch=pf)
        speedups[wname] = {
            "SP": sp.speedup_over(base) - 1.0,
            "ReDHiP": rh.speedup_over(base) - 1.0,
            "SP+ReDHiP": both.speedup_over(base) - 1.0,
        }
        energies[wname] = {
            "SP": sp.dynamic_ratio(base),
            "ReDHiP": rh.dynamic_ratio(base),
            "SP+ReDHiP": both.dynamic_ratio(base),
        }
        prefetch_stats[wname] = {
            "sp": sp.extra.get("prefetch", {}),
            "both": both.extra.get("prefetch", {}),
        }
    speedups = add_average(speedups)
    energies = add_average(energies)
    table = (
        "Figure 14 - speedup over no-mechanism base:\n"
        + format_table(speedups, COLUMNS)
        + "\n\nFigure 15 - dynamic energy normalized to base:\n"
        + format_table(energies, COLUMNS, value_format="{:.1%}")
    )
    s_avg, e_avg = speedups["average"], energies["average"]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series={"fig14_speedup": speedups, "fig15_energy": energies},
        table=table,
        notes=(
            "Paper: perf additive, SP energy cost offset by ReDHiP. Measured "
            f"avg speedups SP {s_avg['SP']:+.1%}, ReDHiP {s_avg['ReDHiP']:+.1%}, "
            f"both {s_avg['SP+ReDHiP']:+.1%}; energy SP {e_avg['SP']:.0%}, "
            f"ReDHiP {e_avg['ReDHiP']:.0%}, both {e_avg['SP+ReDHiP']:.0%}."
        ),
        extra={"prefetch_stats": prefetch_stats},
    )


SPEC = ExperimentSpec(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    build=build,
    figure="Figures 14-15",
    kind="paper",
    workloads=PAPER_WORKLOADS,
    schemes=("Base", "SP", "ReDHiP", "SP+ReDHiP"),
    sweep=("prefetch",),
    smoke_kwargs={"workloads": ("mcf", "bwaves")},
)
