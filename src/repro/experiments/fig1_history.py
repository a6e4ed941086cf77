"""Figure 1: cache sizes per level vs year of commercial appearance.

This is the paper's motivation figure — a historical dataset, not a
simulation result.  The series below was assembled from well-known
commercial processors (approximate years, matching the figure's "roughly"
qualifier): L1s since the late 1980s, L2s through the 1990s, on-die L3s
from the mid-2000s, and eDRAM L4s appearing around 2012-2013 (e.g. Intel
Crystalwell's 128 MB).  The reproduced claim is the figure's *shape*:
each successive level arrives later and starts orders of magnitude larger,
and sizes grow monotonically within a level.
"""

from __future__ import annotations

from repro.experiments.driver import ExperimentSpec
from repro.sim.report import ExperimentResult, format_table

__all__ = ["CACHE_HISTORY_KB", "SPEC", "build"]

EXPERIMENT_ID = "fig1"
TITLE = "Hardware cache sizes by level and year of appearance"

#: {level: [(year, size_kb), ...]} — representative commercial parts.
CACHE_HISTORY_KB: dict[str, list[tuple[int, int]]] = {
    "L1": [
        (1987, 1), (1989, 8), (1993, 16), (1997, 32), (2002, 64),
        (2007, 64), (2012, 64),
    ],
    "L2": [
        (1995, 256), (1997, 512), (1999, 512), (2002, 512), (2006, 1024),
        (2008, 256), (2012, 256),
    ],
    "L3": [
        (2004, 2048), (2007, 8192), (2009, 8192), (2011, 15360), (2012, 20480),
    ],
    "L4": [
        (2012, 32768), (2013, 131072),
    ],
}


def build(cfg) -> ExperimentResult:
    """Emit the Figure 1 series (size in KB per level per year)."""
    series: dict[str, dict[str, float]] = {}
    for level, points in CACHE_HISTORY_KB.items():
        series[level] = {str(year): float(kb) for year, kb in points}
    years = sorted({str(y) for pts in CACHE_HISTORY_KB.values() for y, _ in pts})
    table = format_table(series, years, value_format="{:.0f}", row_header="level")
    first_years = {lvl: pts[0][0] for lvl, pts in CACHE_HISTORY_KB.items()}
    notes = (
        "Each deeper level appears later and larger: "
        + ", ".join(f"{lvl} ~{yr}" for lvl, yr in first_years.items())
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, series=series, table=table, notes=notes
    )


SPEC = ExperimentSpec(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    build=build,
    figure="Figure 1",
    kind="paper",
)
