"""Experiment registry: every paper artifact regenerates and carries the
expected structure; the key qualitative shapes hold on the tiny machine."""

import pytest

from repro.experiments import experiment_ids, run_experiment
from repro.experiments.fig11_table_size import sweep_sizes
from repro.experiments.fig12_recalibration import sweep_periods
from repro.sim.config import SimConfig
from repro.energy.params import get_machine
from repro.util.validation import ConfigError

WORKLOADS = ("mcf", "bwaves")


@pytest.fixture(scope="module")
def cfg():
    return SimConfig(machine=get_machine("tiny"), refs_per_core=3000, seed=11)


def test_registry_covers_every_paper_artifact():
    ids = set(experiment_ids())
    required = {
        "fig1", "table1", "intro", "fig6", "fig7", "fig8", "fig9", "fig10",
        "fig11", "fig12", "fig13", "fig14-15",
    }
    assert required <= ids
    assert any(i.startswith("ablation-") for i in ids)
    with pytest.raises(ConfigError):
        run_experiment("fig99")


def test_fig1_history_shape():
    r = run_experiment("fig1")
    assert set(r.series) == {"L1", "L2", "L3", "L4"}
    # Each deeper level appears later and larger at first appearance.
    firsts = {
        lvl: (min(int(y) for y in pts), pts[min(pts, key=int)])
        for lvl, pts in r.series.items()
    }
    years = [firsts[l][0] for l in ("L1", "L2", "L3", "L4")]
    assert years == sorted(years)


def test_table1_experiment():
    r = run_experiment("table1")
    derived = r.series["derived"]
    assert derived["p_minus_k"] == 6
    assert derived["recal_sweep_cycles"] == 16 * 1024
    assert abs(derived["pt_overhead_ratio"] - 0.0078125) < 1e-9
    assert "OK" in r.table


def test_intro_energy_split(cfg):
    r = run_experiment("intro", cfg, workloads=WORKLOADS)
    share = r.series["average"]["L3+L4 energy share"]
    assert share > 0.6  # "lower level caches consume ~80% of dynamic energy"


def test_fig6_fig7_shapes(cfg):
    f6 = run_experiment("fig6", cfg, workloads=WORKLOADS)
    avg = f6.series["average"]
    assert avg["Oracle"] >= avg["ReDHiP"] > avg["Phased"]
    assert avg["ReDHiP-NoOv"] >= avg["ReDHiP"]
    f7 = run_experiment("fig7", cfg, workloads=WORKLOADS)
    e = f7.series["average"]
    assert e["Oracle"] <= e["ReDHiP"] <= e["CBF"] + 0.25
    assert e["ReDHiP"] < 1.0 and e["Phased"] < 1.0


def test_fig8_metric(cfg):
    r = run_experiment("fig8", cfg, workloads=WORKLOADS)
    avg = r.series["average"]
    assert avg["ReDHiP"] > 1.0
    assert "Oracle" not in avg  # a bound, not a scheme


def test_fig9_fig10_delta(cfg):
    f9 = run_experiment("fig9", cfg)
    f10 = run_experiment("fig10", cfg)
    delta = run_experiment("fig10-delta", cfg)
    for bench in f9.series:
        assert f10.series[bench]["L1"] == pytest.approx(f9.series[bench]["L1"])
        for lvl in ("L2", "L3", "L4"):
            assert delta.series[bench][lvl] >= -1e-9


def test_fig11_size_sweep(cfg):
    r = run_experiment("fig11", cfg, workloads=WORKLOADS)
    avg = r.series["average"]
    labels = list(avg)
    # Larger tables never hurt accuracy-only energy (weak monotonicity).
    assert avg[labels[0]] >= avg[labels[-1]] - 0.02
    assert len(sweep_sizes(64 << 20)) == 6
    assert sweep_sizes(64 << 20)[3] == 512 * 1024  # the paper's pick


def test_fig12_recal_sweep(cfg):
    r = run_experiment("fig12", cfg, workloads=WORKLOADS)
    avg = r.series["average"]
    # Never-recalibrate must be the worst point; frequent recal the best.
    assert avg["inf"] >= avg["P"] - 1e-9
    assert avg["1"] <= avg["64P"] + 1e-9
    pts = dict(sweep_periods(1024))
    assert pts["1"] == 1 and pts["inf"] is None and pts["P"] == 1024


def test_fig13_policies(cfg):
    r = run_experiment("fig13", cfg, workloads=WORKLOADS)
    avg = r.series["average"]
    # Hybrid tracks inclusive closely (the paper's headline for Fig 13).
    assert abs(avg["Hybrid"] - avg["Inclusive"]) < 0.15
    assert avg["Exclusive"] > 0.2  # still large savings vs its own base


def test_fig14_15_prefetch(cfg):
    r = run_experiment("fig14-15", cfg, workloads=WORKLOADS, refs_cap=2000)
    spd = r.series["fig14_speedup"]["average"]
    eng = r.series["fig15_energy"]["average"]
    assert spd["SP+ReDHiP"] >= spd["ReDHiP"] - 0.02  # additive-ish
    assert eng["SP"] >= 0.99                          # prefetching costs energy
    assert eng["ReDHiP"] < 1.0


def test_ablation_banking():
    r = run_experiment("ablation-banking")
    cyc = [r.series[f"{b} banks"]["sweep_cycles"] for b in (1, 2, 4, 8, 16)]
    assert all(a == 2 * b for a, b in zip(cyc, cyc[1:]))
    nj = {r.series[k]["sweep_nJ"] for k in r.series}
    assert len(nj) == 1  # energy independent of banking


def test_ablation_hash(cfg):
    r = run_experiment("ablation-hash", cfg, workloads=WORKLOADS)
    avg = r.series["average"]
    assert avg["xor stall_kcyc"] > avg["bits stall_kcyc"] * 5


def test_ablation_entry_width(cfg):
    r = run_experiment("ablation-entry-width", cfg, workloads=WORKLOADS)
    avg = r.series["average"]
    assert 0 < avg["1-bit+recal dynE"] <= 1.5


def test_ablation_replacement(cfg):
    r = run_experiment("ablation-replacement", cfg, workloads=WORKLOADS)
    for policy in ("lru", "random", "plru"):
        assert r.series["average"][policy] > 0.0  # savings survive policy


def test_ablation_fill_accounting(cfg):
    r = run_experiment("ablation-fill-accounting", cfg, workloads=WORKLOADS)
    avg = r.series["average"]
    assert avg["w=0.0"] <= avg["w=0.5"] <= avg["w=1.0"]
