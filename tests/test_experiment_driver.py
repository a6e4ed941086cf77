"""The declarative spec registry, the shared driver, and its CLI verbs."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.energy.params import get_machine
from repro.experiments import SPECS, ExperimentSpec, clear_cache, get_spec, run_spec
from repro.sim.config import SimConfig
from repro.sim.report import scheme_comparison_table
from repro.util.validation import ConfigError


@pytest.fixture(scope="module", autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


# ------------------------------------------------------------- registry
def test_every_spec_is_complete():
    for eid, spec in SPECS.items():
        assert spec.experiment_id == eid
        assert spec.title
        assert spec.kind in ("paper", "extension", "ablation")
        # Exactly one implementation: build, or the cells/render pair.
        impl = [callable(spec.build), callable(spec.cells), callable(spec.render)]
        assert impl in ([True, False, False], [False, True, True]), eid


@pytest.mark.parametrize("impl", [
    {},
    {"build": lambda ctx: None, "cells": lambda cfg: [],
     "render": lambda cfg, rows: None},
    {"cells": lambda cfg: []},
    {"build": lambda ctx: None, "render": lambda cfg, rows: None},
], ids=["neither", "both", "cells-without-render", "build-and-render"])
def test_spec_rejects_zero_or_two_implementations(impl):
    with pytest.raises(ConfigError, match="spec bad"):
        ExperimentSpec(experiment_id="bad", title="t", **impl)


BUILD_ONLY = sorted(eid for eid, spec in SPECS.items() if spec.build is not None)


@pytest.mark.parametrize("eid", BUILD_ONLY)
def test_store_is_refused_for_build_only_specs(eid, tmp_path):
    """Regression: ``store=`` was silently dropped for build-only specs,
    so `repro run ext-gating --store p` wrote no store and said nothing."""
    store = tmp_path / "s.sqlite"
    cfg = SimConfig(machine=get_machine("tiny"), refs_per_core=800, seed=7)
    with pytest.raises(ConfigError, match=f"experiment {eid} "):
        run_spec(SPECS[eid], cfg, smoke=True, store=store)
    assert not store.exists()


def test_cli_run_store_on_build_only_spec_errors(tmp_path, capsys):
    store = tmp_path / "s.sqlite"
    rc = main(["run", "ext-gating", "--machine", "tiny", "--refs", "800",
               "--store", str(store), "--out", str(tmp_path)])
    assert rc == 1
    assert "ext-gating" in capsys.readouterr().err
    assert not store.exists()


def test_get_spec_unknown_id():
    with pytest.raises(ConfigError, match="unknown experiment"):
        get_spec("fig99")


def test_run_spec_smoke_applies_overrides():
    cfg = SimConfig(machine=get_machine("tiny"), refs_per_core=1500, seed=7)
    spec = get_spec("fig6")
    res = run_spec(spec, cfg, smoke=True)
    # The smoke override trims the sweep to two workloads (plus average).
    assert set(res.series) == {"mcf", "bwaves", "average"}


def test_run_spec_kwargs_beat_smoke_defaults():
    cfg = SimConfig(machine=get_machine("tiny"), refs_per_core=1500, seed=7)
    res = run_spec(get_spec("fig6"), cfg, smoke=True, workloads=("soplex",))
    assert set(res.series) == {"soplex", "average"}


# ------------------------------------------------------------------ CLI
def test_cli_experiments_ls(capsys):
    assert main(["experiments", "ls"]) == 0
    out = capsys.readouterr().out
    assert "fig6" in out and "ext-gating" in out and "ablation-hash" in out
    assert f"{len(SPECS)} experiments" in out


def test_cli_experiments_ls_kind_filter(capsys):
    assert main(["experiments", "ls", "--kind", "ablation"]) == 0
    out = capsys.readouterr().out
    assert "ablation-hash" in out
    assert "fig6" not in out and "ext-gating" not in out


def test_cli_experiments_smoke_subset(tmp_path, capsys):
    rc = main(["experiments", "smoke", "--kind", "ablation", "--refs", "800",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "all specs ran" in out
    produced = {p.stem for p in tmp_path.glob("*.md")}
    assert produced == {e for e, s in SPECS.items() if s.kind == "ablation"}


# --------------------------------------------------- scheme comparison
def test_scheme_comparison_table_rows_and_zeros(tiny_runner):
    from repro.core.redhip import redhip_scheme
    from repro.predictors.base import base_scheme

    cfg = tiny_runner.config
    results = {
        "Base": tiny_runner.run("mcf", base_scheme()),
        "ReDHiP": tiny_runner.run("mcf", redhip_scheme(recal_period=cfg.recal_period)),
    }
    table = scheme_comparison_table(results)
    from repro.sim.charging import ENERGY_CATEGORIES

    for cat in ENERGY_CATEGORIES:
        assert cat in table
    # Base never touches the prediction table: the cell must be an explicit
    # zero, not a "-" placeholder.
    lookup_row = next(l for l in table.splitlines() if l.startswith("lookup"))
    assert "-" not in lookup_row.replace("lookup", "")
    assert "0" in lookup_row


# ------------------------------------------------------------- workers
def test_workers_reach_the_grid_pool_only(tmp_path, monkeypatch):
    """``workers=`` sizes the scheduler pool a grid runs in, and changes
    nothing in the artifact; a build-only spec has no pool: it refuses
    ``workers=`` and walks in this process whatever ``REPRO_PARALLEL``
    says."""
    from repro import telemetry

    cfg = SimConfig(machine=get_machine("tiny"), refs_per_core=800, seed=7)
    fig6 = get_spec("fig6")
    kwargs = {"workloads": ("mcf", "lbm")}
    with telemetry.session(force=True, label="test") as sess:
        pooled = run_spec(fig6, cfg, workers=2, **kwargs)
        assert sess.registry.snapshot()["counters"]["parallel.pools"] == 1
    inline = run_spec(fig6, cfg, workers=1, **kwargs)
    assert pooled.table == inline.table and pooled.series == inline.series

    with pytest.raises(ConfigError, match="experiment ext-nine .*workers="):
        run_spec(get_spec("ext-nine"), cfg, smoke=True, workers=2)
    monkeypatch.setenv("REPRO_PARALLEL", "2")
    with telemetry.session(force=True, label="test") as sess:
        run_spec(get_spec("ext-nine"), cfg, smoke=True)
        assert "parallel.pools" not in sess.registry.snapshot()["counters"]
