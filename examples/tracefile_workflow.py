#!/usr/bin/env python
"""Trace-file workflow: generate once, replay many times.

The paper collected Pin traces once and replayed them through the cache
simulator; this example does the same with the trace-file API — useful
when sweeping scheme parameters against a fixed workload, or for sharing a
workload between machines.

Run:  python examples/tracefile_workflow.py [workload] [refs_per_core]
"""

import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from repro import (
    ExperimentRunner,
    SimConfig,
    base_scheme,
    get_machine,
    get_workload,
    redhip_scheme,
)
from repro.workloads import load_workload, save_workload


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "milc"
    refs = int(sys.argv[2]) if len(sys.argv) > 2 else 20_000
    machine = get_machine("scaled")
    config = SimConfig(machine=machine, refs_per_core=refs)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.npz"
        workload = get_workload(name, machine, refs, seed=1)
        saved = save_workload(workload, path)
        print(f"saved {workload.total_refs} references "
              f"({saved.stat().st_size / 1024:.0f} KB compressed) to {saved.name}")

        # A fresh process would start here: load and replay.  The runner
        # refuses a registry name for an added workload, so the replayed
        # trace gets its own.
        replayed = replace(load_workload(saved), name=f"{name}-trace")
        runner = ExperimentRunner(config)
        runner.add_workload(replayed)
        base = runner.run(replayed.name, base_scheme())

        print(f"\nreplaying against ReDHiP table sizes "
              f"(one content walk, many evaluations):")
        print(f"{'table':>8s} {'dyn energy':>11s} {'skip cov':>9s}")
        for shift in (3, 2, 1, 0):
            size = machine.prediction_table.size >> shift
            res = runner.run(
                replayed.name,
                redhip_scheme(table_bytes=size, recal_period=config.recal_period,
                              name=f"ReDHiP-{size >> 10}KB"),
            )
            print(f"{size >> 10:6d}KB {res.dynamic_ratio(base):11.1%} "
                  f"{res.skip_coverage:9.1%}")


if __name__ == "__main__":
    main()
