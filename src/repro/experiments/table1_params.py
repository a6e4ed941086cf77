"""Table I: architecture parameters, cross-checked against the CACTI model.

The paper obtained its latency/energy/leakage numbers from CACTI 6.5 and
[25]; we carry them verbatim in :func:`repro.energy.params.paper_machine`
and use the simplified analytical model of :mod:`repro.energy.cacti` to
verify each value sits within the model's plausibility band (a one-term
scaling law against a full CACTI run justifies a generous factor).  The
reproduced "rows" are Table I itself plus the derived structural facts the
paper quotes: 0.78 % PT/LLC overhead, p - k = 6, and the 16 K-cycle
recalibration sweep.
"""

from __future__ import annotations

from repro.energy.accounting import CostTable
from repro.energy.cacti import CactiModel
from repro.energy.params import get_machine
from repro.experiments.driver import ExperimentSpec, run_spec
from repro.sim.report import ExperimentResult, format_table

__all__ = ["SPEC", "build", "run"]

EXPERIMENT_ID = "table1"
TITLE = "Architecture parameters (Table I) with CACTI-model cross-check"


def build(ctx, machine_name: str = "paper") -> ExperimentResult:
    machine = get_machine(machine_name)
    model = CactiModel()
    series: dict[str, dict[str, float]] = {}
    checks: list[str] = []
    for level in machine.levels:
        est = model.estimate_level(level)
        series[level.name] = {
            "size_KB": level.size / 1024,
            "assoc": level.assoc,
            "tag_nJ": level.tag_energy,
            "data_nJ": level.data_energy,
            "tag_cyc": level.tag_delay,
            "data_cyc": level.data_delay,
            "leak_W": level.leakage_w,
            "model_nJ": est.access_energy,
            "model_leak_W": est.leakage_w,
        }
        ok_e = model.within_band(level.access_energy, est.access_energy)
        ok_l = model.within_band(level.leakage_w, est.leakage_w, factor=4.0)
        checks.append(f"{level.name}: energy {'OK' if ok_e else 'OUT'}, "
                      f"leakage {'OK' if ok_l else 'OUT'}")
    pt = machine.prediction_table
    est_pt = model.estimate_table(pt.size)
    series["PT"] = {
        "size_KB": pt.size / 1024,
        "assoc": 1,
        "tag_nJ": 0.0,
        "data_nJ": pt.access_energy,
        "tag_cyc": 0,
        "data_cyc": pt.access_delay,
        "leak_W": pt.leakage_w,
        "model_nJ": est_pt.access_energy,
        "model_leak_W": est_pt.leakage_w,
    }
    costs = CostTable(machine)
    derived = {
        "pt_overhead_ratio": machine.pt_overhead_ratio,
        "p": pt.index_bits,
        "k": machine.llc.set_index_bits,
        "p_minus_k": machine.p_minus_k,
        "recal_sweep_cycles": costs.recal_sweep_cycles,
    }
    cols = ["size_KB", "assoc", "tag_nJ", "data_nJ", "tag_cyc", "data_cyc",
            "leak_W", "model_nJ", "model_leak_W"]
    table = format_table(series, cols, value_format="{:.4g}", row_header="structure")
    table += "\n\nderived: " + ", ".join(f"{k}={v:.4g}" for k, v in derived.items())
    table += "\nmodel band checks: " + "; ".join(checks)
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series={"levels": series, "derived": derived},
        table=table,
        notes="Paper quotes 0.78% overhead and a 16K-cycle sweep for the paper machine.",
    )


SPEC = ExperimentSpec(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    build=build,
    figure="Table I",
    kind="paper",
)


def run(config=None, **kwargs) -> ExperimentResult:
    """Back-compat entry point: route the spec through the shared driver."""
    return run_spec(SPEC, config, **kwargs)
