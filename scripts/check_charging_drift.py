#!/usr/bin/env python
"""CI guard: no latency/energy arithmetic outside the charging kernel.

The single-source-of-truth invariant: both simulation paths
(``sim/evaluate.py``, ``sim/integrated.py``) and the vectorized replay
(``sim/vector_replay.py``) must obtain every delay and every nanojoule
through :mod:`repro.sim.charging`.  This script greps those files for the
raw-cost vocabulary (cost-table constructors, per-level energy/delay
accessors, direct ledger charges) and fails on anything not in the pinned
allowlist below.

Run from the repository root::

    python scripts/check_charging_drift.py

Exit status 0 when clean, 1 with one line per violation otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Files that may not do their own charging arithmetic.
GUARDED = (
    "src/repro/sim/evaluate.py",
    "src/repro/sim/integrated.py",
    "src/repro/sim/vector_replay.py",
)

#: The raw-cost vocabulary.  Anything matching these outside the charging
#: kernel is a drift violation.
FORBIDDEN = (
    re.compile(r"\bCostTable\b"),
    re.compile(r"\bTimingModel\b"),
    re.compile(r"\bStaticEnergyModel\b"),
    re.compile(r"\bDramModel\b"),
    re.compile(r"ledger\.charge\("),
    re.compile(r"\b(tag|data|parallel|access|lookup|pt_update)_(energy|delay)\b"),
    re.compile(r"\benergy_nj\["),
    re.compile(r"\bcounts\["),
    re.compile(r"\bleakage\b"),
)

#: Pinned allowlist: (file, exact line content after strip).  Additions
#: here need review: every new entry is a hole in the single-source-of-truth
#: guarantee.
ALLOWED: set[tuple[str, str]] = set()


def main() -> int:
    violations: list[str] = []
    for rel in GUARDED:
        path = ROOT / rel
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if not any(pat.search(line) for pat in FORBIDDEN):
                continue
            if (rel, line.strip()) in ALLOWED:
                continue
            violations.append(f"{rel}:{lineno}: {line.strip()}")
    if violations:
        print("charging-drift violations (latency/energy arithmetic outside "
              "repro.sim.charging):")
        for v in violations:
            print(f"  {v}")
        print(f"{len(violations)} violation(s); route the charge through "
              "the ChargingKernel or pin it in scripts/check_charging_drift.py")
        return 1
    print(f"charging drift check: {len(GUARDED)} files clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
