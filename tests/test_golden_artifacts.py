"""Byte-identity of every registered experiment artifact.

``tests/golden/artifacts/`` holds the rendered markdown
(:meth:`~repro.sim.report.ExperimentResult.markdown`) for every registry
spec at the smoke configuration (tiny machine, 1500 refs/core,
seed 7) — the same config CI's ``repro experiments smoke`` uses.  Any
refactor of the charging kernel, the simulators, or the experiment
driver must leave these bytes untouched; an intentional change means
regenerating the goldens and reviewing the diff.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.energy.params import get_machine
from repro.experiments import SPECS, run_spec
from repro.sim.config import SimConfig

GOLDEN_DIR = Path(__file__).parent / "golden" / "artifacts"


def smoke_config():
    return SimConfig(machine=get_machine("tiny"), refs_per_core=1500, seed=7)


def test_golden_covers_entire_registry():
    on_disk = {p.stem for p in GOLDEN_DIR.glob("*.md")}
    assert on_disk == set(SPECS), (
        "golden artifact set out of sync with the registry; regenerate with "
        "`python -m repro experiments smoke --out tests/golden/artifacts`"
    )


@pytest.mark.parametrize("experiment_id", list(SPECS))
def test_artifact_bytes_unchanged(experiment_id):
    spec = SPECS[experiment_id]
    result = run_spec(spec, smoke_config(), smoke=True)
    golden = (GOLDEN_DIR / f"{experiment_id}.md").read_text()
    assert result.markdown() == golden, experiment_id
