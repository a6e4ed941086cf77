"""Runner caching, SimConfig semantics and report formatting."""

import pytest

from repro.energy.params import get_machine
from repro.predictors.base import base_scheme, oracle_scheme
from repro.core.redhip import redhip_scheme
from repro.sim.config import SimConfig, bench_config, default_recal_period
from repro.sim.report import (
    add_average,
    dynamic_energy_table,
    format_table,
    hit_rate_table,
    perf_energy_table,
    speedup_table,
)
from repro.sim.runner import ExperimentRunner
from repro.util.validation import ConfigError


# ------------------------------------------------------------------ config
def test_default_recal_period_is_llc_lines():
    # The paper's 1M-miss period equals its 1M-line LLC.
    assert default_recal_period(get_machine("paper")) == 1 << 20
    scaled = get_machine("scaled")
    assert default_recal_period(scaled) == scaled.llc.num_lines


def test_simconfig_policy_parse_and_key():
    cfg = SimConfig(machine=get_machine("tiny"), policy="hybrid", refs_per_core=10)
    assert cfg.policy.value == "hybrid"
    assert cfg.cache_key()[1] == "hybrid"
    cfg2 = cfg.with_policy("exclusive")
    assert cfg2.policy.value == "exclusive" and cfg.policy.value == "hybrid"
    assert cfg.total_refs == 10 * 2
    with pytest.raises(ConfigError):
        SimConfig(machine=get_machine("tiny"), refs_per_core=0)


def test_bench_config_env(monkeypatch):
    monkeypatch.setenv("REPRO_MACHINE", "tiny")
    monkeypatch.setenv("REPRO_BENCH_REFS", "123")
    cfg = bench_config()
    assert cfg.machine.name == "tiny"
    assert cfg.refs_per_core == 123
    cfg2 = bench_config(machine_name="scaled", refs_per_core=55)
    assert cfg2.machine.name == "scaled" and cfg2.refs_per_core == 55


# ------------------------------------------------------------------ runner
def test_runner_caches_streams_and_workloads(tiny_config):
    runner = ExperimentRunner(tiny_config)
    w1 = runner.workload("mcf")
    w2 = runner.workload("mcf")
    assert w1 is w2
    s1 = runner.stream("mcf")
    s2 = runner.stream("mcf")
    assert s1 is s2
    s3 = runner.stream("mcf", policy="hybrid")
    assert s3 is not s1


def test_runner_rejects_predictor_on_exclusive(tiny_config):
    runner = ExperimentRunner(tiny_config)
    with pytest.raises(ConfigError):
        runner.run("mcf", redhip_scheme(recal_period=None), policy="exclusive")


def _run_matrix(runner, workloads, schemes):
    """{workload: {scheme name: result}} — the shape the report tables take."""
    return {w: {s.name: runner.run(w, s) for s in schemes} for w in workloads}


def test_run_matrix_shape(tiny_config):
    runner = ExperimentRunner(tiny_config)
    out = _run_matrix(runner, ["mcf"], [base_scheme(), oracle_scheme()])
    assert set(out) == {"mcf"}
    assert set(out["mcf"]) == {"Base", "Oracle"}


# ------------------------------------------------------------------ report
def _results(tiny_config):
    runner = ExperimentRunner(tiny_config)
    return _run_matrix(
        runner, ["mcf"], [base_scheme(), oracle_scheme(),
                          redhip_scheme(recal_period=tiny_config.recal_period)]
    )


def test_speedup_and_energy_tables(tiny_config):
    results = _results(tiny_config)
    spd = speedup_table(results)
    assert "Base" not in spd["mcf"]
    assert spd["mcf"]["Oracle"] >= spd["mcf"]["ReDHiP"] - 1e-9
    dyn = dynamic_energy_table(results)
    assert 0 < dyn["mcf"]["Oracle"] <= dyn["mcf"]["ReDHiP"] + 1e-9
    pem = perf_energy_table(results)
    assert pem["mcf"]["Oracle"] > 1.0


def test_hit_rate_table(tiny_config):
    runner = ExperimentRunner(tiny_config)
    res = {"mcf": runner.run("mcf", base_scheme())}
    table = hit_rate_table(res, 4)
    assert set(table["mcf"]) == {"L1", "L2", "L3", "L4"}


def test_add_average():
    series = {"a": {"x": 1.0, "y": 3.0}, "b": {"x": 3.0}}
    out = add_average(series)
    assert out["average"]["x"] == 2.0
    assert out["average"]["y"] == 3.0


def test_format_table_rendering():
    series = {"mcf": {"Oracle": 0.135, "ReDHiP": 0.08}}
    text = format_table(series, ["Oracle", "ReDHiP"])
    assert "mcf" in text and "+13.5%" in text and "+8.0%" in text
    missing = format_table({"mcf": {"Oracle": 1.0}}, ["Oracle", "CBF"])
    assert "-" in missing.splitlines()[-1]


# ---------------------------------------------------------------- parallel
def test_default_workers_env(monkeypatch):
    from repro.sweep.scheduler import default_workers
    monkeypatch.setenv("REPRO_PARALLEL", "3")
    assert default_workers() == 3
    monkeypatch.delenv("REPRO_PARALLEL")
    assert default_workers() >= 1
