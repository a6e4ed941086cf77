"""Golden regression: fingerprints and figure headlines must not drift.

The pinned values live in ``tests/golden/tiny_golden.json``; the compute
logic is shared with the regeneration script so the test and the file can
never use different recipes.  After an intentional behaviour change,
regenerate with one command and review the diff:

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_REGEN = Path(__file__).parent / "golden" / "regen.py"
_spec = importlib.util.spec_from_file_location("golden_regen", _REGEN)
golden_regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_regen)


@pytest.fixture(scope="module")
def golden():
    assert golden_regen.GOLDEN_PATH.exists(), (
        f"missing {golden_regen.GOLDEN_PATH}; "
        f"run: PYTHONPATH=src python {_REGEN}"
    )
    return json.loads(golden_regen.GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def fresh():
    return golden_regen.compute_golden()


def test_golden_meta_matches_recipe(golden):
    assert golden["meta"]["machine"] == golden_regen.MACHINE
    assert golden["meta"]["refs_per_core"] == golden_regen.REFS_PER_CORE
    assert golden["meta"]["workloads"] == list(golden_regen.WORKLOADS)
    assert golden["meta"]["family_seed"] == golden_regen.FAMILY_SEED
    assert sorted(golden["seeds"]) == sorted(str(s) for s in golden_regen.SEEDS)


def test_every_family_is_pinned(golden):
    from repro.workloads import PAPER_WORKLOADS

    assert sorted(golden["families"]) == sorted(PAPER_WORKLOADS)


@pytest.mark.parametrize(
    "family",
    sorted(json.loads(golden_regen.GOLDEN_PATH.read_text())["families"])
    if golden_regen.GOLDEN_PATH.exists() else [],
)
def test_family_fingerprints_exact(golden, fresh, family):
    """Every workload family's content fingerprint is golden-pinned, so a
    generator change in *any* recipe fails here, not just mcf/lbm."""
    assert fresh["families"][family] == golden["families"][family], (
        f"{family} fingerprint drifted; if intentional, regenerate: "
        f"{golden['meta']['regen']}"
    )


@pytest.mark.parametrize("seed", [str(s) for s in golden_regen.SEEDS])
def test_content_fingerprints_exact(golden, fresh, seed):
    """Fingerprints are bit-exact: any divergence in the content walk —
    ordering, replacement, inclusion traffic — lands here first."""
    assert fresh["seeds"][seed]["fingerprints"] == \
        golden["seeds"][seed]["fingerprints"]


@pytest.mark.parametrize("seed", [str(s) for s in golden_regen.SEEDS])
@pytest.mark.parametrize("figure", ["fig6_speedup", "fig7_dynamic_energy"])
def test_figure_headlines_pinned(golden, fresh, seed, figure):
    want = golden["seeds"][seed][figure]
    got = fresh["seeds"][seed][figure]
    assert sorted(got) == sorted(want), f"row set changed for {figure}"
    for row, schemes in want.items():
        assert sorted(got[row]) == sorted(schemes), f"scheme set changed: {row}"
        for scheme, value in schemes.items():
            assert got[row][scheme] == pytest.approx(value, rel=1e-9), (
                f"{figure}[{row}][{scheme}] drifted; if intentional, "
                f"regenerate: {golden['meta']['regen']}"
            )


#: Content fingerprints on the geometry the repository benchmark walks:
#: ``scaled`` (32 partitions x 8 cores x 4 levels), 4000 refs/core, seed 1.
SCALED_FINGERPRINTS = {
    "mcf": "36738b52af6ae7d3d41ebf444eff2a23",
    "mix": "79c49660af9c72ad9bb7fba7cfc96801",
    "blas": "c8c3818c48b1d9c95104535337c7b1e0",
}


@pytest.mark.parametrize("family", sorted(SCALED_FINGERPRINTS))
def test_scaled_content_fingerprints_exact(family):
    """The tiny golden has 8 partitions and 2 cores; this pins the walk
    where hazards, carries and owner sweeps span 8 cores and 32
    partitions."""
    from repro.energy.params import get_machine
    from repro.sim.config import SimConfig
    from repro.sim.content import ContentSimulator
    from repro.workloads import get_workload

    machine = get_machine("scaled")
    cfg = SimConfig(machine=machine, refs_per_core=4000, seed=1)
    workload = get_workload(family, machine, 4000, 1)
    stream = ContentSimulator(cfg).run(workload)
    assert stream.fingerprint() == SCALED_FINGERPRINTS[family]
