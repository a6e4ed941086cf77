"""The CLI and the extension experiments."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import run_experiment
from repro.energy.params import get_machine
from repro.sim.config import SimConfig


@pytest.fixture(scope="module")
def cfg():
    return SimConfig(machine=get_machine("tiny"), refs_per_core=4000, seed=3)


# --------------------------------------------------------------------- CLI
def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig6" in out and "table1" in out and "ext-gating" in out


def test_cli_machines(capsys):
    assert main(["machines"]) == 0
    out = capsys.readouterr().out
    assert "paper" in out and "p-k=6" in out


def test_cli_run(capsys):
    rc = main(["run", "fig8", "--machine", "tiny", "--refs", "2000",
               "--workloads", "mcf"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fig8" in out and "ReDHiP" in out


def test_cli_run_with_out(tmp_path, capsys):
    rc = main(["run", "fig1", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "fig1.md").exists()
    assert "L4" in (tmp_path / "fig1.md").read_text()


def test_cli_run_out_matches_the_golden_artifact(tmp_path, capsys):
    """``repro run --out`` writes the same bytes as ``experiments smoke
    --out`` (the goldens) for the same config: one artifact format."""
    golden = Path(__file__).parent / "golden" / "artifacts" / "fig6.md"
    rc = main(["run", "fig6", "--machine", "tiny", "--refs", "1500",
               "--seed", "7", "--workloads", "mcf,bwaves",
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "fig6.md").read_text() == golden.read_text()


def test_cli_run_workloads_on_a_fixed_lineup_errors(capsys):
    assert main(["run", "fig9", "--machine", "tiny", "--refs", "500",
                 "--workloads", "mcf"]) == 1
    assert "fixed workload line-up" in capsys.readouterr().err


def test_cli_unknown_experiment(capsys):
    assert main(["run", "fig99", "--machine", "tiny", "--refs", "100"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_workload(tmp_path, capsys):
    rc = main(["workload", "mcf", "--machine", "tiny", "--refs", "200",
               "--save", str(tmp_path / "t.npz")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mcf" in out and (tmp_path / "t.npz").exists()


# -------------------------------------------------------------- extensions
def test_ext_gating_recovers_overhead(cfg):
    r = run_experiment("ext-gating", cfg, workloads=("mcf",))
    bait = r.series["onchip"]
    # On the zero-yield workload the gate must strictly improve on plain.
    assert bait["gated speedup"] > bait["plain speedup"]
    # On memory-bound workloads the gate must not destroy the benefit.
    assert r.series["mcf"]["gated speedup"] > 0 or (
        r.series["mcf"]["gated speedup"] >= r.series["mcf"]["plain speedup"] - 0.05
    )


def test_ext_missmap_shape(cfg):
    r = run_experiment("ext-missmap", cfg, workloads=("mcf", "bwaves"))
    avg = r.series["average"]
    # At equal area on these workloads ReDHiP dominates (the paper's bet).
    assert avg["ReDHiP dynE"] < avg["MissMap dynE"]
    assert 0.0 <= avg["MissMap page cov"] <= 1.0


def test_ext_core_scaling(cfg):
    r = run_experiment("ext-cores", cfg, workloads=("mcf",), core_counts=(1, 2))
    assert "1c saving" in r.series["mcf"] and "2c saving" in r.series["mcf"]
    assert r.series["mcf"]["2c saving"] > 0


def test_ext_depth(cfg):
    r = run_experiment("ext-depth", cfg, workloads=("mcf",), depths=(2, 4))
    row = r.series["mcf"]
    # Deeper hierarchy -> larger oracle speedup and at-least-equal savings.
    assert row["4L oracle spd"] > row["2L oracle spd"]
    assert row["4L saving"] >= row["2L saving"] - 0.02


def test_ext_sharing(cfg):
    r = run_experiment("ext-sharing", cfg, fractions=(0.0, 0.3))
    zero = r.series["shared 0%"]
    some = r.series["shared 30%"]
    assert zero["invalidations/kref"] == 0
    assert some["invalidations/kref"] > 0
    assert some["ReDHiP saving"] > 0  # still saves under coherence


def test_ext_reuse(cfg):
    r = run_experiment("ext-reuse", cfg, workloads=("mcf",))
    row = r.series["mcf"]
    assert row["analytic L1 (FA)"] >= row["simulated L1"] - 0.02
    assert 0 < row["cold fraction"] < 1


def test_ext_timing(cfg):
    r = run_experiment("ext-timing", cfg, workloads=("mcf",))
    paper = r.series["paper model"]
    mem = r.series["mem 200cyc/20nJ"]
    mlp = r.series["mlp 4"]
    # Realistic memory/MLP dilute speedups...
    assert mem["Oracle speedup"] < paper["Oracle speedup"]
    assert mlp["Oracle speedup"] < paper["Oracle speedup"]
    # ...but the cache-energy saving is invariant to the timing model.
    assert abs(mem["cache dynE"] - paper["cache dynE"]) < 1e-9
    assert abs(mlp["cache dynE"] - paper["cache dynE"]) < 1e-9


def test_memory_and_mlp_config_plumbing():
    from dataclasses import replace
    from repro import ExperimentRunner, base_scheme, get_machine
    from repro.sim.config import SimConfig
    c0 = SimConfig(machine=get_machine("tiny"), refs_per_core=2000)
    c1 = replace(c0, memory_latency=100.0, memory_energy_nj=10.0)
    r0 = ExperimentRunner(c0).run("mcf", base_scheme())
    r1 = ExperimentRunner(c1).run("mcf", base_scheme())
    assert r1.exec_cycles > r0.exec_cycles
    assert r1.ledger.component_nj("MEM") > 0
    assert r1.ledger.counts[("MEM", "access")] == r1.true_misses
    c2 = replace(c0, mlp=4.0)
    r2 = ExperimentRunner(c2).run("mcf", base_scheme())
    assert r2.exec_cycles < r0.exec_cycles


def test_cli_analyze(capsys):
    rc = main(["analyze", "mcf", "--machine", "tiny", "--refs", "2000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cold fraction" in out and "L1 miss rate" in out
