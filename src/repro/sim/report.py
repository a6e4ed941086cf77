"""Report formatting: the rows/series the paper's figures plot.

Every experiment module returns an :class:`ExperimentResult` whose
``series`` are keyed exactly like the paper's figures (benchmark -> scheme
-> value), plus a pre-formatted text table for terminal output; its
:meth:`~ExperimentResult.markdown` is the one artifact file format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.evaluate import SchemeResult

__all__ = [
    "ExperimentResult",
    "format_table",
    "speedup_table",
    "dynamic_energy_table",
    "perf_energy_table",
    "hit_rate_table",
    "scheme_comparison_table",
    "add_average",
]

AVERAGE = "average"


@dataclass
class ExperimentResult:
    """A reproduced figure/table: keyed series plus a printable rendering."""

    experiment_id: str
    title: str
    series: dict
    table: str
    notes: str = ""
    extra: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"== {self.experiment_id}: {self.title} ==\n{self.table}"

    def markdown(self) -> str:
        """The artifact as ``<id>.md``: what ``repro run``/``run-all``/
        ``experiments smoke --out`` write and ``tests/golden/artifacts/``
        pins byte for byte."""
        return (f"# {self.experiment_id}: {self.title}\n\n"
                f"```\n{self.table}\n```\n\n"
                + (self.notes + "\n" if self.notes else ""))


def add_average(series: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    """Append the paper's arithmetic ``average`` bar across benchmarks.

    Column order is preserved (first-seen order across rows) so callers can
    rely on the average row iterating in the same order as the sweep that
    produced it.
    """
    out = dict(series)
    schemes: list[str] = []
    for row in series.values():
        for scheme in row:
            if scheme not in schemes:
                schemes.append(scheme)
    avg = {}
    for scheme in schemes:
        vals = [row[scheme] for row in series.values() if scheme in row]
        avg[scheme] = sum(vals) / len(vals)
    out[AVERAGE] = avg
    return out


def format_table(
    series: dict[str, dict[str, float]],
    columns: list[str],
    value_format: str = "{:+.1%}",
    row_header: str = "benchmark",
) -> str:
    """Render {row: {column: value}} as an aligned text table."""
    widths = [max(len(row_header), max((len(r) for r in series), default=0))]
    widths += [max(len(c), 9) for c in columns]
    lines = []
    header = "  ".join(
        [row_header.ljust(widths[0])] + [c.rjust(w) for c, w in zip(columns, widths[1:])]
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row_name, row in series.items():
        cells = [row_name.ljust(widths[0])]
        for col, w in zip(columns, widths[1:]):
            if col in row:
                cells.append(value_format.format(row[col]).rjust(w))
            else:
                cells.append("-".rjust(w))
        lines.append("  ".join(cells))
    return "\n".join(lines)


def speedup_table(
    results: dict[str, dict[str, SchemeResult]], base_name: str = "Base"
) -> dict[str, dict[str, float]]:
    """Figure 6's series: speedup minus one (positive = faster), per scheme."""
    series: dict[str, dict[str, float]] = {}
    for bench, row in results.items():
        base = row[base_name]
        series[bench] = {
            s: r.speedup_over(base) - 1.0 for s, r in row.items() if s != base_name
        }
    return series


def dynamic_energy_table(
    results: dict[str, dict[str, SchemeResult]], base_name: str = "Base"
) -> dict[str, dict[str, float]]:
    """Figure 7's series: dynamic energy normalized to the base case."""
    series: dict[str, dict[str, float]] = {}
    for bench, row in results.items():
        base = row[base_name]
        series[bench] = {
            s: r.dynamic_ratio(base) for s, r in row.items() if s != base_name
        }
    return series


def perf_energy_table(
    results: dict[str, dict[str, SchemeResult]], base_name: str = "Base"
) -> dict[str, dict[str, float]]:
    """Figure 8's series: speedup x total-energy-saving product."""
    series: dict[str, dict[str, float]] = {}
    for bench, row in results.items():
        base = row[base_name]
        series[bench] = {
            s: r.perf_energy_metric(base) for s, r in row.items() if s != base_name
        }
    return series


def hit_rate_table(
    results: dict[str, SchemeResult], num_levels: int
) -> dict[str, dict[str, float]]:
    """Figures 9/10's series: per-level hit rate per benchmark."""
    series: dict[str, dict[str, float]] = {}
    for bench, res in results.items():
        series[bench] = {f"L{lvl}": res.hit_rates[lvl] for lvl in range(1, num_levels + 1)}
    return series


def scheme_comparison_table(
    results: dict[str, SchemeResult], value_format: str = "{:.4g}"
) -> str:
    """Per-scheme dynamic energy broken down by charging-kernel category.

    Rows are the kernel's category names (:data:`repro.sim.charging.
    ENERGY_CATEGORIES`, in report order), columns the schemes.  Every
    (category, scheme) cell is populated — a scheme that never pays a
    category shows an explicit 0, never ``"-"`` — so WayPred's tag/data
    split and Oracle's zeroed lookup/update/recal columns line up
    directly against the schemes that do pay them.
    """
    from repro.sim.charging import ENERGY_CATEGORIES

    series: dict[str, dict[str, float]] = {
        cat: {name: res.ledger.category_nj(cat) for name, res in results.items()}
        for cat in ENERGY_CATEGORIES
    }
    columns = list(results)
    return format_table(series, columns, value_format=value_format,
                        row_header="category (nJ)")
