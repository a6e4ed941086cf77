"""Extension experiments beyond the paper's evaluation section.

``ext-gating``
    The §IV footnote made concrete: on cache-friendly workloads (very high
    L1 hit rates) plain ReDHiP *loses* performance to lookup overhead; the
    utility gate recovers the loss while keeping most of the benefit on
    memory-bound workloads.  A cache-friendly synthetic workload is added
    to the line-up for exactly this purpose.

``ext-missmap``
    ReDHiP vs a MissMap-style exact page tracker [18] at equal area.  The
    MissMap never goes stale on covered pages but falls off a cliff when
    the working set exceeds its page capacity — the accuracy-per-bit
    argument §III makes, from the other direction.

``ext-cores``
    ReDHiP's benefit vs core count at fixed LLC and table capacity: more
    co-running programs alias into the same prediction table and churn the
    LLC harder between sweeps, so per-program savings shrink — which is
    why the design pins the table at a constant *fraction* of the LLC
    rather than a constant size.

(Additional extension experiments — hierarchy depth, coherence/sharing,
reuse-distance cross-check, timing-model sensitivity — are defined further
down with their own docstrings.)
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.gating import gated_redhip_scheme
from repro.core.redhip import redhip_scheme
from repro.predictors.base import base_scheme
from repro.predictors.missmap import missmap_scheme
from repro.experiments.driver import ExperimentSpec
from repro.sim.report import ExperimentResult, add_average, format_table
from repro.sim.runner import ExperimentRunner
from repro.workloads.synthetic import Component, Region, assemble_mixture
from repro.workloads.trace import duplicate_for_cores

__all__ = ["SPECS"]

GATING_WORKLOADS = ("bwaves", "mcf", "soplex")
MISSMAP_WORKLOADS = ("bwaves", "mcf", "soplex", "blas")
SCALING_WORKLOADS = ("mcf", "soplex")


def _gate_bait_workload(machine, refs: int, seed: int):
    """The workload §IV's gate exists for: plenty of L1 misses, *all* of
    which hit in L2/L3 — the LLC is never missed, so every table lookup is
    pure overhead (zero skip yield)."""
    trace = assemble_mixture(
        name="onchip",
        components=(
            Component("seq", 0.55, Region(0.4, "L1"), stride=8),
            Component("random", 0.25, Region(0.6, "L2")),
            Component("random", 0.20, Region(0.4, "L3")),
        ),
        refs=refs,
        machine=machine,
        seed=seed,
        cpi=1.2,
    )
    return duplicate_for_cores(trace, machine.cores, seed=seed)


def build_gating(cfg, workloads=GATING_WORKLOADS) -> ExperimentResult:
    runner = ExperimentRunner(cfg)
    bait = _gate_bait_workload(cfg.machine, cfg.refs_per_core, cfg.seed)
    runner.add_workload(bait)
    window = max(64, cfg.total_refs // 256)
    plain = redhip_scheme(recal_period=cfg.recal_period)
    gated = gated_redhip_scheme(recal_period=cfg.recal_period, window=window)
    series: dict[str, dict[str, float]] = {}
    gate_stats: dict[str, float] = {}
    # The paper excluded cache-friendly benchmarks outright (§IV); with the
    # gate they can simply be left in the line-up.
    for wname in (*workloads, "perlbench", "onchip"):
        base = runner.run(wname, base_scheme())
        p = runner.run(wname, plain)
        g = runner.run(wname, gated)
        series[wname] = {
            "plain speedup": p.speedup_over(base) - 1.0,
            "gated speedup": g.speedup_over(base) - 1.0,
            "plain dynE": p.dynamic_ratio(base),
            "gated dynE": g.dynamic_ratio(base),
        }
        gate_stats[wname] = g.predictor_stats.get("gated_lookups", 0.0)
    series = add_average(series)
    cols = ["plain speedup", "gated speedup", "plain dynE", "gated dynE"]
    table = format_table(series, cols, value_format="{:+.1%}")
    bait_row = series["onchip"]
    return ExperimentResult(
        experiment_id="ext-gating",
        title="Utility gating (§IV): ReDHiP with and without the gate",
        series=series,
        table=table,
        notes=(
            "On the on-chip-resident workload every lookup is wasted; the "
            f"gate must recover the loss: plain {bait_row['plain speedup']:+.2%} "
            f"vs gated {bait_row['gated speedup']:+.2%}."
        ),
        extra={"gated_lookups": gate_stats},
    )


def build_missmap(cfg, workloads=MISSMAP_WORKLOADS) -> ExperimentResult:
    runner = ExperimentRunner(cfg)
    series: dict[str, dict[str, float]] = {}
    for wname in workloads:
        base = runner.run(wname, base_scheme())
        red = runner.run(wname, redhip_scheme(recal_period=cfg.recal_period))
        mm = runner.run(wname, missmap_scheme())
        series[wname] = {
            "ReDHiP dynE": red.dynamic_ratio(base),
            "MissMap dynE": mm.dynamic_ratio(base),
            "ReDHiP cov": red.skip_coverage,
            "MissMap cov": mm.skip_coverage,
            "MissMap page cov": mm.predictor_stats["coverage"],
        }
    series = add_average(series)
    cols = ["ReDHiP dynE", "MissMap dynE", "ReDHiP cov", "MissMap cov", "MissMap page cov"]
    table = format_table(series, cols, value_format="{:.1%}")
    return ExperimentResult(
        experiment_id="ext-missmap",
        title="ReDHiP vs MissMap-style exact page tracking at equal area",
        series=series,
        table=table,
        notes="MissMap is exact where it covers; its page capacity is the cliff.",
    )


def build_core_scaling(base_cfg, workloads=SCALING_WORKLOADS,
                       core_counts=(2, 4, 8)) -> ExperimentResult:
    series: dict[str, dict[str, float]] = {}
    for cores in core_counts:
        machine = base_cfg.machine.with_cores(cores)
        cfg = replace(base_cfg, machine=machine)
        runner = ExperimentRunner(cfg)
        for wname in workloads:
            base = runner.run(wname, base_scheme())
            red = runner.run(wname, redhip_scheme(recal_period=cfg.recal_period))
            row = series.setdefault(wname, {})
            row[f"{cores}c saving"] = 1.0 - red.dynamic_ratio(base)
            row[f"{cores}c memfrac"] = base.true_misses / base.level_lookups[1]
    series = add_average(series)
    cols = [f"{c}c saving" for c in core_counts] + [f"{c}c memfrac" for c in core_counts]
    table = format_table(series, cols, value_format="{:.1%}")
    return ExperimentResult(
        experiment_id="ext-cores",
        title="ReDHiP dynamic-energy savings vs core count (fixed LLC)",
        series=series,
        table=table,
        notes="At fixed LLC and table capacity, more cores mean more "
        "programs aliasing into the same prediction table (and more LLC "
        "churn between sweeps), so per-program savings shrink — the "
        "capacity-scaling argument for keeping the table at a constant "
        "fraction of the LLC.",
    )


DEPTH_WORKLOADS = ("mcf", "bwaves")


def build_depth_scaling(base_cfg, workloads=DEPTH_WORKLOADS,
                        depths=(2, 3, 4, 5)) -> ExperimentResult:
    """ReDHiP vs hierarchy depth — Figure 1's trend, quantified.

    For each depth, a CACTI-modelled machine (see
    :func:`repro.energy.params.deep_machine`) runs the base case, Oracle
    and ReDHiP.  The deeper the hierarchy, the more serial lookups a full
    miss wastes, so both the performance and energy benefits of LLC-miss
    prediction should grow with depth — the paper's opening motivation.
    """
    from repro.energy.params import deep_machine
    from repro.predictors.base import oracle_scheme

    series: dict[str, dict[str, float]] = {}
    for depth in depths:
        machine = deep_machine(depth, cores=base_cfg.machine.cores)
        cfg = replace(base_cfg, machine=machine)
        runner = ExperimentRunner(cfg)
        for wname in workloads:
            base = runner.run(wname, base_scheme())
            red = runner.run(wname, redhip_scheme(recal_period=cfg.recal_period))
            orc = runner.run(wname, oracle_scheme())
            row = series.setdefault(wname, {})
            row[f"{depth}L saving"] = 1.0 - red.dynamic_ratio(base)
            row[f"{depth}L oracle spd"] = orc.speedup_over(base) - 1.0
    series = add_average(series)
    cols = [f"{d}L saving" for d in depths] + [f"{d}L oracle spd" for d in depths]
    table = format_table(series, cols, value_format="{:+.1%}")
    return ExperimentResult(
        experiment_id="ext-depth",
        title="ReDHiP benefit vs hierarchy depth (Figure 1's trend)",
        series=series,
        table=table,
        notes="Deeper hierarchies waste more per full miss; prediction gains grow.",
    )


def build_sharing(cfg, fractions=(0.0, 0.2, 0.4)) -> ExperimentResult:
    """ReDHiP under multi-threaded sharing with write-invalidate coherence.

    §III: ReDHiP 'does not require changes to existing cache coherence
    protocols' — the no-false-negative guarantee must survive coherence
    invalidations (they only remove *private* copies; the LLC stays a
    superset).  This experiment sweeps the shared-data fraction of a
    multi-threaded workload on the coherent hierarchy and reports savings
    plus coherence traffic.  Completing at all is the correctness check:
    the evaluator hard-fails on any false negative.
    """
    from repro.sim.content import ContentSimulator
    from repro.sim.evaluate import evaluate_scheme
    from repro.workloads.shared import build_shared_workload

    cfg = replace(cfg, coherent=True)
    series: dict[str, dict[str, float]] = {}
    for frac in fractions:
        workload = build_shared_workload(
            cfg.machine, cfg.refs_per_core, seed=cfg.seed, shared_fraction=frac
        )
        sim = ContentSimulator(cfg)
        stream = sim.run(workload)
        coh = sim._last_hierarchy.coherence
        base = evaluate_scheme(stream, cfg.machine, base_scheme(), workload)
        red = evaluate_scheme(
            stream, cfg.machine,
            redhip_scheme(recal_period=cfg.recal_period), workload,
        )
        series[f"shared {frac:.0%}"] = {
            "ReDHiP saving": 1.0 - red.dynamic_ratio(base),
            "skip coverage": red.skip_coverage,
            "invalidations/kref": 1e3 * coh.write_invalidations / stream.num_accesses,
            "dirty transfers/kref": 1e3 * coh.dirty_transfers / stream.num_accesses,
        }
    cols = ["ReDHiP saving", "skip coverage", "invalidations/kref",
            "dirty transfers/kref"]
    table = format_table(series, cols, value_format="{:.3g}", row_header="sharing")
    return ExperimentResult(
        experiment_id="ext-sharing",
        title="ReDHiP under write-invalidate coherence (shared data)",
        series=series,
        table=table,
        notes="No false negatives under coherence traffic (enforced by the "
        "evaluator); savings persist as sharing grows.",
    )


def build_reuse_check(cfg, workloads=("bwaves", "mcf", "soplex")) -> ExperimentResult:
    """Analytic cross-check: reuse-distance hit rates vs simulation.

    The fully-associative LRU hit rate computed from each trace's
    reuse-distance histogram upper-bounds (and should track) the simulated
    set-associative L1 hit rate — a simulation-free validation of both the
    workload models and the cache simulator.
    """
    from repro.analysis.reuse import profile_trace
    from repro.energy.params import BLOCK_SIZE

    runner = ExperimentRunner(cfg)
    series: dict[str, dict[str, float]] = {}
    l1_capacity = cfg.machine.level(1).size // BLOCK_SIZE
    for wname in workloads:
        workload = runner.workload(wname)
        profile = profile_trace(workload.traces[0].head(min(40_000, cfg.refs_per_core)))
        stream = runner.stream(wname)
        simulated = stream.base_hit_rates()
        series[wname] = {
            "analytic L1 (FA)": profile.hit_rate(l1_capacity),
            "simulated L1": simulated[1],
            "cold fraction": profile.cold_fraction,
            "ws90 (blocks)": float(profile.working_set_blocks(0.9)),
        }
    series = add_average(series)
    cols = ["analytic L1 (FA)", "simulated L1", "cold fraction", "ws90 (blocks)"]
    table = format_table(series, cols, value_format="{:.4g}")
    return ExperimentResult(
        experiment_id="ext-reuse",
        title="Reuse-distance analytics vs simulated hit rates",
        series=series,
        table=table,
        notes="Fully-associative analytic L1 hit rate bounds the simulated "
        "4-way rate from above and tracks it closely.",
    )


TIMING_WORKLOADS = ("mcf", "bwaves", "soplex")


def build_timing_sensitivity(base_cfg, workloads=TIMING_WORKLOADS) -> ExperimentResult:
    """How robust are the headline results to the paper's timing model?

    §IV makes two simplifications this experiment relaxes:

    * **memory is a zero-latency, zero-energy data store** — rows add a
      realistic off-chip charge (200 cycles / 20 nJ per access);
    * **miss-path latencies serialize** — rows divide them by an MLP
      factor, modelling an out-of-order core overlapping misses.

    Both dilute the *relative* speedups (the denominators grow, and every
    scheme pays the same memory charge), while the dynamic-cache-energy
    savings are untouched by latency and only mildly diluted by memory
    energy — i.e. the paper's energy claim is the robust one, and its
    performance claim is the model-dependent one.
    """
    from repro.predictors.base import oracle_scheme

    variants = [
        ("paper model", {}),
        ("mem 200cyc/20nJ", {"memory_latency": 200.0, "memory_energy_nj": 20.0}),
        ("mlp 4", {"mlp": 4.0}),
        ("mem + mlp", {"memory_latency": 200.0, "memory_energy_nj": 20.0, "mlp": 4.0}),
        ("banked DRAM", {"dram": True}),
    ]
    series: dict[str, dict[str, float]] = {}
    for label, overrides in variants:
        cfg = replace(base_cfg, **overrides)
        runner = ExperimentRunner(cfg)
        spd_r, spd_o, dyn_r, cache_r = [], [], [], []
        for wname in workloads:
            base = runner.run(wname, base_scheme())
            red = runner.run(wname, redhip_scheme(recal_period=cfg.recal_period))
            orc = runner.run(wname, oracle_scheme())
            spd_r.append(red.speedup_over(base) - 1.0)
            spd_o.append(orc.speedup_over(base) - 1.0)
            dyn_r.append(red.dynamic_ratio(base))
            cache_red = red.dynamic_nj - red.ledger.component_nj("MEM")
            cache_base = base.dynamic_nj - base.ledger.component_nj("MEM")
            cache_r.append(cache_red / cache_base)
        series[label] = {
            "ReDHiP speedup": sum(spd_r) / len(spd_r),
            "Oracle speedup": sum(spd_o) / len(spd_o),
            "dynE incl MEM": sum(dyn_r) / len(dyn_r),
            "cache dynE": sum(cache_r) / len(cache_r),
        }
    cols = ["ReDHiP speedup", "Oracle speedup", "dynE incl MEM", "cache dynE"]
    table = format_table(series, cols, value_format="{:+.1%}", row_header="timing model")
    return ExperimentResult(
        experiment_id="ext-timing",
        title="Sensitivity of the headline results to the timing model",
        series=series,
        table=table,
        notes="The cache-energy saving is invariant to the timing model (the "
        "robust claim); speedups dilute with realistic memory latency and "
        "MLP, and the savings *share* shrinks once off-chip energy joins "
        "the denominator — ReDHiP does not reduce memory traffic.",
    )


RELWORK_WORKLOADS = ("bwaves", "mcf", "soplex", "blas")

#: Cell schemes the §II comparison sweeps, in column order.
_RELWORK_SCHEMES = ("phased", "waypred", "redhip")


def cells_related_work(cfg, workloads=RELWORK_WORKLOADS):
    from repro.experiments.grids import grid_cell

    out = []
    for w in workloads:
        out.append(grid_cell(cfg, w, "base"))
        out.extend(grid_cell(cfg, w, s) for s in _RELWORK_SCHEMES)
    # The per-category energy table covers one workload, Oracle included.
    out.append(grid_cell(cfg, workloads[0], "oracle"))
    return out


def render_related_work(cfg, rows, workloads=RELWORK_WORKLOADS) -> ExperimentResult:
    """The §II design space side by side: serialize, way-predict, or skip.

    Phased Cache serializes tag->data; way prediction [12] reads one
    speculative data way; ReDHiP skips the whole level stack on predicted
    LLC misses.  All three reduce data-array energy; only ReDHiP also
    removes lookups entirely, which is why it wins on both axes for
    miss-dominated traffic.
    """
    from repro.experiments.grids import SCHEME_NAMES, grid_cell, row_result
    from repro.sim.report import scheme_comparison_table

    names = [SCHEME_NAMES[s] for s in _RELWORK_SCHEMES]
    series: dict[str, dict[str, float]] = {}
    by_scheme: dict[str, object] = {}
    for wname in workloads:
        base = row_result(rows, grid_cell(cfg, wname, "base"))
        row: dict[str, float] = {}
        for key, name in zip(_RELWORK_SCHEMES, names):
            res = row_result(rows, grid_cell(cfg, wname, key))
            row[f"{name} spd"] = res.speedup_over(base) - 1.0
            row[f"{name} dynE"] = res.dynamic_ratio(base)
            if wname == workloads[0]:
                by_scheme[name] = res
        series[wname] = row
        if wname == workloads[0]:
            by_scheme["Base"] = base
            by_scheme["Oracle"] = row_result(
                rows, grid_cell(cfg, wname, "oracle"))
    series = add_average(series)
    cols = [f"{n} spd" for n in names] + [f"{n} dynE" for n in names]
    table = format_table(series, cols, value_format="{:+.1%}")
    # Per-category energy for one workload, every scheme in kernel
    # category terms — WayPred's tag/data split and Oracle's zeroed PT
    # columns render explicitly (0, never "-").
    category_table = scheme_comparison_table(by_scheme)
    return ExperimentResult(
        experiment_id="ext-relwork",
        title="Related-work design space: Phased vs WayPred vs ReDHiP",
        series=series,
        table=table,
        notes="Way prediction and phasing cut data-array energy but keep "
        "every lookup; ReDHiP removes the lookups — the paper's bet.",
        extra={"category_table": category_table,
               "category_workload": workloads[0]},
    )


NINE_WORKLOADS = ("bwaves", "mcf", "soplex")


def build_nine(cfg, workloads=NINE_WORKLOADS) -> ExperimentResult:
    """How load-bearing is §III's inclusion assumption?

    Under a non-inclusive/non-exclusive (NINE) LLC — the other common real
    design — private copies outlive their LLC line, so a single LLC-side
    table would produce *false negatives*: the hierarchy counts every
    access that a ReDHiP skip would have corrupted.  The experiment reports
    that rate; any non-zero value means the single-table design is unsound
    on NINE and the per-level stack of §III-C (or inclusion) is required.
    """
    from repro.sim.content import ContentSimulator

    cfg = cfg.with_policy("nine")
    series: dict[str, dict[str, float]] = {}
    for wname in workloads:
        from repro.workloads import get_workload

        workload = get_workload(wname, cfg.machine, cfg.refs_per_core, cfg.seed)
        sim = ContentSimulator(cfg)
        stream = sim.run(workload)
        hier = sim._last_hierarchy
        series[wname] = {
            "violations": float(hier.superset_violations),
            "per L1 miss": hier.superset_violations / max(1, stream.num_misses),
            "per kref": 1e3 * hier.superset_violations / stream.num_accesses,
        }
    series = add_average(series)
    cols = ["violations", "per L1 miss", "per kref"]
    table = format_table(series, cols, value_format="{:.4g}")
    avg = series["average"]["per L1 miss"]
    return ExperimentResult(
        experiment_id="ext-nine",
        title="NINE hierarchy: would-be false negatives of a single table",
        series=series,
        table=table,
        notes=(
            f"On average {avg:.1%} of L1 misses would be served stale data "
            "by a single-table ReDHiP under a NINE LLC — inclusion (or the "
            "per-level stack) is not an implementation detail."
        ),
    )


ADAPTIVE_WORKLOADS = ("bwaves", "mcf", "soplex", "blas")


def build_adaptive_recal(cfg, workloads=ADAPTIVE_WORKLOADS,
                         threshold: float = 0.4) -> ExperimentResult:
    """Fixed-period vs staleness-driven (adaptive) recalibration.

    The adaptive engine sweeps after every ``threshold x LLC-lines`` fills
    instead of every N L1 misses — same machinery, churn-proportional
    trigger (see :class:`repro.core.recalibration.AdaptiveRecalibrationEngine`).
    """
    runner = ExperimentRunner(cfg)
    fixed = redhip_scheme(recal_period=cfg.recal_period, name="ReDHiP-fixed")
    adaptive = redhip_scheme(recal_period=None, recal_threshold=threshold,
                             name="ReDHiP-adaptive")
    series: dict[str, dict[str, float]] = {}
    for wname in workloads:
        base = runner.run(wname, base_scheme())
        f = runner.run(wname, fixed)
        a = runner.run(wname, adaptive)
        series[wname] = {
            "fixed dynE": f.dynamic_ratio(base),
            "adaptive dynE": a.dynamic_ratio(base),
            "fixed sweeps": f.predictor_stats["recal_sweeps"],
            "adaptive sweeps": a.predictor_stats["recal_sweeps"],
        }
    series = add_average(series)
    cols = ["fixed dynE", "adaptive dynE", "fixed sweeps", "adaptive sweeps"]
    table = format_table(series, cols, value_format="{:.3g}")
    return ExperimentResult(
        experiment_id="ext-adaptive-recal",
        title="Fixed-period vs churn-driven recalibration",
        series=series,
        table=table,
        notes="The adaptive trigger places sweeps where staleness actually "
        "accumulates; at matched sweep budgets it should never lose.",
    )


_SMOKE = {"workloads": ("mcf", "bwaves")}

SPECS = (
    ExperimentSpec(
        experiment_id="ext-gating",
        title="Utility gating (§IV): ReDHiP with and without the gate",
        build=build_gating,
        kind="extension",
        workloads=GATING_WORKLOADS,
        schemes=("Base", "ReDHiP", "ReDHiP-gated"),
        smoke_kwargs=_SMOKE,
    ),
    ExperimentSpec(
        experiment_id="ext-missmap",
        title="ReDHiP vs MissMap-style exact page tracking at equal area",
        build=build_missmap,
        kind="extension",
        workloads=MISSMAP_WORKLOADS,
        schemes=("Base", "ReDHiP", "MissMap"),
        smoke_kwargs=_SMOKE,
    ),
    ExperimentSpec(
        experiment_id="ext-cores",
        title="ReDHiP dynamic-energy savings vs core count (fixed LLC)",
        build=build_core_scaling,
        kind="extension",
        workloads=SCALING_WORKLOADS,
        schemes=("Base", "ReDHiP"),
        sweep=("cores",),
        smoke_kwargs=_SMOKE,
    ),
    ExperimentSpec(
        experiment_id="ext-depth",
        title="ReDHiP benefit vs hierarchy depth (Figure 1's trend)",
        build=build_depth_scaling,
        kind="extension",
        workloads=DEPTH_WORKLOADS,
        schemes=("Base", "Oracle", "ReDHiP"),
        sweep=("depth",),
        smoke_kwargs=_SMOKE,
    ),
    ExperimentSpec(
        experiment_id="ext-sharing",
        title="ReDHiP under write-invalidate coherence (shared data)",
        build=build_sharing,
        kind="extension",
        schemes=("Base", "ReDHiP"),
        sweep=("shared_fraction",),
    ),
    ExperimentSpec(
        experiment_id="ext-reuse",
        title="Reuse-distance analytics vs simulated hit rates",
        build=build_reuse_check,
        kind="extension",
        workloads=("bwaves", "mcf", "soplex"),
        smoke_kwargs=_SMOKE,
    ),
    ExperimentSpec(
        experiment_id="ext-timing",
        title="Sensitivity of the headline results to the timing model",
        build=build_timing_sensitivity,
        kind="extension",
        workloads=TIMING_WORKLOADS,
        schemes=("Base", "Oracle", "ReDHiP"),
        sweep=("timing_model",),
        smoke_kwargs=_SMOKE,
    ),
    ExperimentSpec(
        experiment_id="ext-relwork",
        title="Related-work design space: Phased vs WayPred vs ReDHiP",
        kind="extension",
        workloads=RELWORK_WORKLOADS,
        schemes=("Base", "Phased", "WayPred", "ReDHiP", "Oracle"),
        smoke_kwargs=_SMOKE,
        cells=cells_related_work,
        render=render_related_work,
    ),
    ExperimentSpec(
        experiment_id="ext-nine",
        title="NINE hierarchy: would-be false negatives of a single table",
        build=build_nine,
        kind="extension",
        workloads=NINE_WORKLOADS,
        smoke_kwargs=_SMOKE,
    ),
    ExperimentSpec(
        experiment_id="ext-adaptive-recal",
        title="Fixed-period vs churn-driven recalibration",
        build=build_adaptive_recal,
        kind="extension",
        workloads=ADAPTIVE_WORKLOADS,
        schemes=("Base", "ReDHiP-fixed", "ReDHiP-adaptive"),
        sweep=("recal_trigger",),
        smoke_kwargs=_SMOKE,
    ),
)
