"""Compare two benchmark reports metric by metric.

    python3 benchmarks/perf/compare.py A.json B.json

``A`` is the reference (the parent commit), ``B`` the candidate; both are
``run.py --out`` reports.  For every workload in both and every
end-to-end metric of ``BENCHMARK.json`` it prints one verdict:

* ``unresolved`` -- the quartile spread of either side, as a share of its
  median, exceeds the metric's bound, unless every run of ``B`` reads
  better than every run of ``A`` (then ``better``);
* ``worse`` / ``better`` -- ``B``'s median moved by more than the bound
  in that direction;
* ``within`` -- otherwise.

The exit code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple:
    """(verdict, signed change of ``b`` against ``a``, positive = better)."""
    sign = 1.0 if better == "higher" else -1.0
    change = sign * (b["value"] - a["value"]) / a["value"]
    spread = max((s["q3"] - s["q1"]) / s["value"] for s in (a, b))
    if spread > bound:
        wins = all(sign * (y - x) > 0 for x in a["samples"] for y in b["samples"])
        return ("better" if wins else "unresolved"), change
    if change < -bound:
        return "worse", change
    if change > bound:
        return "better", change
    return "within", change


def compare(a: dict, b: dict, metrics: list) -> list:
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        for metric in metrics:
            sa = a["workloads"][workload]["metrics"][metric["name"]]
            sb = b["workloads"][workload]["metrics"][metric["name"]]
            word, change = verdict(sa, sb, metric["better"], metric["bound"])
            rows.append((workload, metric["name"], sa["value"], sb["value"],
                         change, metric["bound"], word))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    rows = compare(a, b, metrics)
    for workload, name, va, vb, change, bound, word in rows:
        print(f"{workload:15s} {name:15s} {va:12.6g} -> {vb:12.6g} "
              f"{change:+8.2%} (bound {bound:.0%})  {word}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
