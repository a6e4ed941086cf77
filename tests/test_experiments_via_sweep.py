"""Experiments-as-sweeps: grid specs run on the sweep substrate, resumably.

The one-execution-substrate contract (DESIGN.md): a spec that declares
``cells``/``render`` runs through the sweep scheduler + results store, and
that grid is its only implementation.  The registry-wide byte pin lives
in ``test_golden_artifacts``; this module tests the substrate's own
properties — the grid protocol, refusal of configs the grid cannot
express, and resume from a kept store.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.energy.dram import DramConfig
from repro.energy.params import get_machine
from repro.experiments import SPECS, run_spec
from repro.sim.config import SimConfig
from repro.sweep import run_cells
from repro.util.validation import ConfigError

#: Every spec implemented by the cells/render protocol.
CONVERTED = tuple(eid for eid, spec in SPECS.items() if spec.cells is not None)


def smoke_config(**overrides):
    return SimConfig(machine=get_machine("tiny"), refs_per_core=1500,
                     seed=7, **overrides)


def test_converted_specs_declare_the_grid_protocol():
    assert len(CONVERTED) == 17
    for eid in CONVERTED:
        spec = SPECS[eid]
        assert spec.render is not None and spec.build is None, eid
        cells = spec.cells(smoke_config(), **dict(spec.smoke_kwargs))
        assert cells, eid
        # Cells are canonical: re-canonicalizing is a no-op.
        assert all(c == c.canonical() for c in cells), eid


def test_killed_figure_resumes_from_a_kept_store(tmp_path):
    """`repro run fig6 --store S` interrupted mid-grid resumes from S."""
    cfg = smoke_config()
    spec = SPECS["fig6"]
    cells = spec.cells(cfg, **dict(spec.smoke_kwargs))
    store = tmp_path / "fig6.sqlite"

    # "Kill" the figure after 3 cells: a bounded partial run.
    partial = run_cells(cells, "fig6", store, workers=1, max_cells=3)
    assert partial.completed == 3 and partial.resumed == 0

    # The driver, pointed at the same store, finishes the remainder.
    resumed = run_spec(spec, cfg, smoke=True, store=store)
    fresh = run_spec(spec, cfg, smoke=True)
    assert resumed.table == fresh.table
    assert resumed.series == fresh.series

    # Everything is now in the store: a third pass resumes every cell.
    again = run_cells(cells, "fig6", store, workers=1)
    assert again.completed == 0
    assert again.resumed == len({c.fingerprint() for c in cells})


#: One off-grid field per case — each alone takes a config off the grid —
#: and the cause the refusal must name.
OFF_GRID = {
    "machine": (lambda cfg: replace(
        cfg, machine=replace(cfg.machine, name="not-in-registry")),
        "not the registry machine"),
    "modified-machine": (lambda cfg: replace(
        cfg, machine=replace(cfg.machine, cores=1)),
        "not the registry machine"),
    "coherent": (lambda cfg: replace(cfg, coherent=True), "coherence"),
    "memory_latency": (lambda cfg: replace(cfg, memory_latency=120.0),
                       "memory latency"),
    "memory_energy_nj": (lambda cfg: replace(cfg, memory_energy_nj=8.0),
                         "memory latency/energy"),
    "mlp": (lambda cfg: replace(cfg, mlp=4.0), "mlp=4.0"),
    "dram": (lambda cfg: replace(cfg, dram=DramConfig()), "DRAM model"),
    "checked": (lambda cfg: replace(cfg, checked=True), "REPRO_CHECKED=1"),
}


@pytest.mark.parametrize("field", sorted(OFF_GRID))
@pytest.mark.parametrize("eid", CONVERTED)
def test_off_grid_config_is_refused(eid, field, monkeypatch):
    def boom(*a, **k):
        raise AssertionError("an off-grid config reached the scheduler")

    monkeypatch.setattr("repro.sweep.scheduler.run_cells", boom)
    off_grid, cause = OFF_GRID[field]
    with pytest.raises(ConfigError, match=f"experiment {eid} .*off-grid") as exc:
        run_spec(SPECS[eid], off_grid(smoke_config()), smoke=True)
    assert cause in str(exc.value)
