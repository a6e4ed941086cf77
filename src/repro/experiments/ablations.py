"""Ablations of the §III design decisions.

The paper argues each simplification earns its keep; these experiments
make the arguments quantitative:

``ablation-hash``
    bits-hash vs xor-hash.  Accuracy is comparable, but xor destroys the
    set-index-substring property, so recalibration degenerates to the
    serial per-tag process ("several million cycles") — the sweep stall
    and energy explode, which is the paper's §III-B argument for bits-hash.

``ablation-entry-width``
    1-bit entries + recalibration vs counting entries (a bits-hash CBF) at
    the *same area budget*.  Counters spend 4x the bits per entry, so at
    equal area they cover a quarter of the hash space — the paper's
    "a simpler scheme can be more accurate per bit" claim.

``ablation-banking``
    Recalibration sweep latency vs bank parallelism (Figure 5's knob):
    cycles halve per doubling while sweep energy is constant.

``ablation-replacement``
    LRU vs random vs tree-PLRU content trajectories: ReDHiP's savings are
    robust to the replacement policy (it predicts presence, not reuse).

``ablation-fill-accounting``
    Sensitivity of Figure 7's normalized energies to charging line fills
    (the paper's accounting is probe-dominated; this quantifies how much
    the normalized savings dilute as fill energy is charged).
"""

from __future__ import annotations

from repro.core.recalibration import RecalibrationCost
from repro.experiments.driver import ExperimentSpec
from repro.experiments.grids import grid_cell, row_result
from repro.sim.report import ExperimentResult, add_average, format_table

__all__ = ["SPECS"]

#: A representative subset keeps each ablation to a few content walks.
ABLATION_WORKLOADS = ("bwaves", "mcf", "soplex", "blas")

#: hash-kind label -> cell scheme (``redhip`` is bits-hash by default).
_HASH_CELLS = {"bits": "redhip", "xor": "redhip_xor"}


def cells_hash_ablation(cfg, workloads=ABLATION_WORKLOADS):
    out = []
    for w in workloads:
        out.append(grid_cell(cfg, w, "base"))
        out.extend(grid_cell(cfg, w, s) for s in _HASH_CELLS.values())
    return out


def render_hash_ablation(cfg, rows, workloads=ABLATION_WORKLOADS) -> ExperimentResult:
    machine = cfg.machine
    series: dict[str, dict[str, float]] = {}
    for wname in workloads:
        base = row_result(rows, grid_cell(cfg, wname, "base"))
        row: dict[str, float] = {}
        for kind, scheme in _HASH_CELLS.items():
            res = row_result(rows, grid_cell(cfg, wname, scheme))
            row[f"{kind} dynE"] = res.dynamic_ratio(base)
            row[f"{kind} stall_kcyc"] = res.recal_stall_cycles / 1e3
        series[wname] = row
    series = add_average(series)
    cost_bits = RecalibrationCost.for_machine(machine, "bits")
    cost_xor = RecalibrationCost.for_machine(machine, "xor")
    cols = ["bits dynE", "xor dynE", "bits stall_kcyc", "xor stall_kcyc"]
    table = format_table(series, cols, value_format="{:.3g}")
    return ExperimentResult(
        experiment_id="ablation-hash",
        title="bits-hash vs xor-hash: accuracy vs recalibration cost",
        series=series,
        table=table,
        notes=(
            f"Per-sweep cost: bits {cost_bits.cycles} cycles / "
            f"{cost_bits.energy_nj:.0f} nJ; xor {cost_xor.cycles} cycles / "
            f"{cost_xor.energy_nj:.0f} nJ — the paper's 'several million "
            "cycles' serial process (scaled with the machine)."
        ),
    )


def cells_entry_width_ablation(cfg, workloads=ABLATION_WORKLOADS):
    # ``cbf_counting`` with no pt_kb resolves to the machine's default
    # prediction-table budget: 4-bit counters at the same area as ReDHiP.
    return [grid_cell(cfg, w, s)
            for w in workloads
            for s in ("base", "redhip", "cbf_counting")]


def render_entry_width_ablation(cfg, rows, workloads=ABLATION_WORKLOADS) -> ExperimentResult:
    series: dict[str, dict[str, float]] = {}
    for wname in workloads:
        base = row_result(rows, grid_cell(cfg, wname, "base"))
        one_bit = row_result(rows, grid_cell(cfg, wname, "redhip"))
        counting = row_result(rows, grid_cell(cfg, wname, "cbf_counting"))
        series[wname] = {
            "1-bit+recal dynE": one_bit.dynamic_ratio(base),
            "4-bit counters dynE": counting.dynamic_ratio(base),
            "1-bit coverage": one_bit.skip_coverage,
            "4-bit coverage": counting.skip_coverage,
        }
    series = add_average(series)
    cols = ["1-bit+recal dynE", "4-bit counters dynE", "1-bit coverage", "4-bit coverage"]
    table = format_table(series, cols, value_format="{:.3f}")
    return ExperimentResult(
        experiment_id="ablation-entry-width",
        title="1-bit entries + recalibration vs counting entries at equal area",
        series=series,
        table=table,
        notes="The paper's core claim: simpler entries are more accurate per bit.",
    )


_REPLACEMENT_POLICIES = ("lru", "random", "plru")


def cells_replacement_ablation(cfg, workloads=ABLATION_WORKLOADS):
    out = []
    for policy in _REPLACEMENT_POLICIES:
        axis = None if policy == "lru" else policy
        for w in workloads:
            out.append(grid_cell(cfg, w, "base", replacement=axis))
            out.append(grid_cell(cfg, w, "redhip", replacement=axis))
    return out


def render_replacement_ablation(cfg, rows, workloads=ABLATION_WORKLOADS) -> ExperimentResult:
    series: dict[str, dict[str, float]] = {}
    for policy in _REPLACEMENT_POLICIES:
        axis = None if policy == "lru" else policy
        for wname in workloads:
            base = row_result(rows, grid_cell(cfg, wname, "base",
                                              replacement=axis))
            red = row_result(rows, grid_cell(cfg, wname, "redhip",
                                             replacement=axis))
            series.setdefault(wname, {})[policy] = 1.0 - red.dynamic_ratio(base)
    series = add_average(series)
    table = format_table(series, list(_REPLACEMENT_POLICIES),
                         value_format="{:.1%}")
    return ExperimentResult(
        experiment_id="ablation-replacement",
        title="ReDHiP dynamic-energy savings under different replacement policies",
        series=series,
        table=table,
        notes="Savings should be robust: ReDHiP predicts presence, not reuse.",
    )


_FILL_WEIGHTS = (0.0, 0.5, 1.0)


def cells_fill_accounting_ablation(cfg, workloads=ABLATION_WORKLOADS):
    out = []
    for weight in _FILL_WEIGHTS:
        axis = None if weight == 0.0 else weight
        for w in workloads:
            out.append(grid_cell(cfg, w, "base", fill_weight=axis))
            out.append(grid_cell(cfg, w, "redhip", fill_weight=axis))
    return out


def render_fill_accounting_ablation(cfg, rows, workloads=ABLATION_WORKLOADS) -> ExperimentResult:
    series: dict[str, dict[str, float]] = {}
    for weight in _FILL_WEIGHTS:
        axis = None if weight == 0.0 else weight
        for wname in workloads:
            base = row_result(rows, grid_cell(cfg, wname, "base",
                                              fill_weight=axis))
            red = row_result(rows, grid_cell(cfg, wname, "redhip",
                                             fill_weight=axis))
            series.setdefault(wname, {})[f"w={weight}"] = red.dynamic_ratio(base)
    series = add_average(series)
    cols = ["w=0.0", "w=0.5", "w=1.0"]
    table = format_table(series, cols, value_format="{:.1%}")
    return ExperimentResult(
        experiment_id="ablation-fill-accounting",
        title="Sensitivity of normalized ReDHiP energy to fill-energy charging",
        series=series,
        table=table,
        notes=(
            "Fills are identical across schemes, so charging them dilutes the "
            "normalized savings; w=0 reproduces the paper's probe-dominated "
            "accounting."
        ),
    )


def build_banking_ablation(cfg) -> ExperimentResult:
    machine = cfg.machine
    series: dict[str, dict[str, float]] = {}
    for banks in (1, 2, 4, 8, 16):
        cost = RecalibrationCost.for_machine(machine, "bits", banks=banks)
        series[f"{banks} banks"] = {
            "sweep_cycles": float(cost.cycles),
            "sweep_nJ": cost.energy_nj,
        }
    table = format_table(series, ["sweep_cycles", "sweep_nJ"],
                         value_format="{:.4g}", row_header="banking")
    return ExperimentResult(
        experiment_id="ablation-banking",
        title="Recalibration latency vs bank parallelism (Figure 5)",
        series=series,
        table=table,
        notes="Cycles halve per bank doubling; energy constant (same tag reads).",
    )


_SMOKE = {"workloads": ("mcf", "bwaves")}

SPECS = (
    ExperimentSpec(
        experiment_id="ablation-hash",
        title="bits-hash vs xor-hash: accuracy vs recalibration cost",
        kind="ablation",
        workloads=ABLATION_WORKLOADS,
        schemes=("Base", "ReDHiP-bits", "ReDHiP-xor"),
        sweep=("hash_kind",),
        smoke_kwargs=_SMOKE,
        cells=cells_hash_ablation,
        render=render_hash_ablation,
    ),
    ExperimentSpec(
        experiment_id="ablation-entry-width",
        title="1-bit entries + recalibration vs counting entries at equal area",
        kind="ablation",
        workloads=ABLATION_WORKLOADS,
        schemes=("Base", "ReDHiP", "CBF"),
        sweep=("entry_bits",),
        smoke_kwargs=_SMOKE,
        cells=cells_entry_width_ablation,
        render=render_entry_width_ablation,
    ),
    ExperimentSpec(
        experiment_id="ablation-banking",
        title="Recalibration latency vs bank parallelism (Figure 5)",
        build=build_banking_ablation,
        kind="ablation",
        sweep=("banks",),
    ),
    ExperimentSpec(
        experiment_id="ablation-replacement",
        title="ReDHiP dynamic-energy savings under different replacement policies",
        kind="ablation",
        workloads=ABLATION_WORKLOADS,
        schemes=("Base", "ReDHiP"),
        sweep=("replacement",),
        smoke_kwargs=_SMOKE,
        cells=cells_replacement_ablation,
        render=render_replacement_ablation,
    ),
    ExperimentSpec(
        experiment_id="ablation-fill-accounting",
        title="Sensitivity of normalized ReDHiP energy to fill-energy charging",
        kind="ablation",
        workloads=ABLATION_WORKLOADS,
        schemes=("Base", "ReDHiP"),
        sweep=("fill_energy_weight",),
        smoke_kwargs=_SMOKE,
        cells=cells_fill_accounting_ablation,
        render=render_fill_accounting_ablation,
    ),
)
