#!/usr/bin/env python
"""Cold-vs-warm benchmark smoke: seed of the perf trajectory (PR 2).

Regenerates Figure 6 — the artifact ``benchmarks/bench_fig06_speedup.py``
times — twice through the persistent stream cache:

* **cold**: empty cache directory, every content walk runs and is saved;
* **warm**: fresh process-level state (runner memo cleared), every stream
  loads from disk — zero content walks, verified by instrumentation.

It also times the ReDHiP replay kernel head-to-head (vectorized vs
sequential, identical predictor configuration) on the largest workload's
stream, since the replay is the warm path's remaining hot loop.

Writes throughput numbers — plus per-stage span timings from the
telemetry layer (``fig6_cold_stages`` / ``fig6_warm_stages``) — to
``BENCH_pr2.json`` (repo root by default) so CI accumulates a perf
history.

The PR 6 extension adds the cold-path contract: a second artifact,
``BENCH_pr6.json``, records the cold-walk stage breakdown (workload
build / content walk / cache save vs the warm path's cache load), the
vectorized-walk counters, and the cold/warm wall-time ratio.  The run
fails if cold exceeds ``--max-cold-warm-ratio`` (default 2.0 — the
vectorized walk's budget) or regresses past the committed baseline by
more than ``--regression-slack``.  An untimed warm-up pass (disable
with ``--no-warmup``) absorbs first-process noise — imports, page
cache, allocator warm-up — that would otherwise dominate the cold
number on CI runners.  Usage::

    PYTHONPATH=src python scripts/bench_pr2.py [--refs N] [--machine M] \
        [--out BENCH_pr2.json] [--pr6-out BENCH_pr6.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--machine", default="scaled")
    ap.add_argument("--refs", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, default=Path("BENCH_pr2.json"))
    ap.add_argument("--pr6-out", type=Path, default=Path("BENCH_pr6.json"),
                    help="cold-path contract artifact (stage breakdown + gates)")
    ap.add_argument("--baseline", type=Path, default=None,
                    help="baseline BENCH_pr6.json for the regression gate "
                         "(default: the committed --pr6-out file, read "
                         "before it is overwritten)")
    ap.add_argument("--max-cold-warm-ratio", type=float, default=2.0,
                    help="hard ceiling on fig6 cold/warm wall time")
    ap.add_argument("--regression-slack", type=float, default=0.35,
                    help="allowed fractional ratio growth over the baseline")
    ap.add_argument("--no-warmup", action="store_true",
                    help="skip the untimed warm-up pass")
    return ap.parse_args()


def check_cold_path(result: dict, baseline: "dict | None",
                    max_ratio: float, slack: float) -> list[str]:
    """Gate the cold-path contract; returns failure messages (empty = pass)."""
    failures = []
    ratio = result["cold_warm_ratio"]
    if ratio is None:
        return ["warm run took no measurable time"]
    if ratio > max_ratio:
        failures.append(
            f"cold/warm ratio {ratio:.2f} exceeds the {max_ratio:.2f}x budget"
        )
    if baseline:
        same_shape = (
            baseline.get("machine") == result["machine"]
            and baseline.get("refs_per_core") == result["refs_per_core"]
        )
        base_ratio = baseline.get("cold_warm_ratio")
        if same_shape and base_ratio:
            limit = base_ratio * (1.0 + slack)
            if ratio > limit:
                failures.append(
                    f"cold/warm ratio {ratio:.2f} regressed past baseline "
                    f"{base_ratio:.2f} (+{slack:.0%} slack = {limit:.2f})"
                )
        elif not same_shape:
            print(f"note: baseline config differs "
                  f"({baseline.get('machine')}/{baseline.get('refs_per_core')} "
                  f"vs {result['machine']}/{result['refs_per_core']}); "
                  "regression gate skipped", file=sys.stderr)
    return failures


def main() -> int:
    args = parse_args()
    from repro.core.redhip import ReDHiPController
    from repro.energy.params import get_machine
    from repro.experiments import clear_cache, run_experiment
    from repro.sim.config import SimConfig
    from repro.sim.content import ContentSimulator
    from repro.sim.evaluate import _replay_predictor_scalar as replay_predictor
    from repro.sim.runner import ExperimentRunner
    from repro.sim.vector_replay import replay_redhip_vectorized

    from repro import telemetry

    def stage_seconds(sess):
        """{span name: rounded total seconds} for one telemetry session."""
        return {
            name: round(agg["total_s"], 4)
            for name, agg in sorted(sess.stage_totals().items())
        }

    machine = get_machine(args.machine)
    walks = []
    real_run = ContentSimulator.run

    def counting_run(self, workload, max_accesses=None):
        walks.append(workload.name)
        return real_run(self, workload, max_accesses=max_accesses)

    ContentSimulator.run = counting_run
    try:
        if not args.no_warmup:
            # Untimed pass in a throwaway cache: pays import, page-cache
            # and allocator costs so the timed cold run measures the walk,
            # not first-process noise.
            with tempfile.TemporaryDirectory(prefix="repro-bench-warmup-") as wdir:
                run_experiment("fig6", SimConfig(
                    machine=machine, refs_per_core=args.refs,
                    seed=args.seed, stream_cache=wdir))
            clear_cache()
            walks.clear()

        with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
            cfg = SimConfig(machine=machine, refs_per_core=args.refs,
                            seed=args.seed, stream_cache=cache_dir)

            t0 = time.perf_counter()
            with telemetry.session(force=True, label="bench-cold") as cold_sess:
                run_experiment("fig6", cfg)
                cold_stages = stage_seconds(cold_sess)
                vector_counters = {
                    "vector_walks": int(
                        cold_sess.registry.counter_total("content.vector_walks")),
                    "sequential_walks": int(
                        cold_sess.registry.counter_total("content.sequential_walks")),
                    "chunks": int(
                        cold_sess.registry.counter_total("content.vector_chunks")),
                    "skipped_refs": int(
                        cold_sess.registry.counter_total("content.vector_skipped")),
                }
            cold_s = time.perf_counter() - t0
            cold_walks = len(walks)

            clear_cache()  # drop the in-process runner memo; disk stays
            walks.clear()
            t0 = time.perf_counter()
            with telemetry.session(force=True, label="bench-warm") as warm_sess:
                run_experiment("fig6", cfg)
                warm_stages = stage_seconds(warm_sess)
            warm_s = time.perf_counter() - t0
            warm_walks = len(walks)
            clear_cache()

            # Replay-kernel head-to-head on one stream.
            runner = ExperimentRunner(cfg)
            stream = runner.stream("mcf")
            period = cfg.recal_period
            t0 = time.perf_counter()
            seq = ReDHiPController(machine, recal_period=period)
            replay_predictor(stream, seq)
            replay_seq_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            vec = ReDHiPController(machine, recal_period=period)
            replay_redhip_vectorized(stream, vec)
            replay_vec_s = time.perf_counter() - t0
            assert seq.stats() == vec.stats(), "replay paths diverged"
    finally:
        ContentSimulator.run = real_run

    accesses = machine.cores * args.refs
    result = {
        "benchmark": "fig6 cold-vs-warm stream cache + ReDHiP replay kernel",
        "machine": args.machine,
        "refs_per_core": args.refs,
        "seed": args.seed,
        "python": platform.python_version(),
        "fig6_cold_s": round(cold_s, 4),
        "fig6_warm_s": round(warm_s, 4),
        "fig6_cold_walks": cold_walks,
        "fig6_warm_walks": warm_walks,
        "fig6_warm_speedup": round(cold_s / warm_s, 2) if warm_s else None,
        "replay_sequential_s": round(replay_seq_s, 4),
        "replay_vectorized_s": round(replay_vec_s, 4),
        "replay_speedup": round(replay_seq_s / replay_vec_s, 2)
        if replay_vec_s else None,
        "replay_misses_per_s_vectorized": round(
            int((stream.hit_level != 1).sum()) / replay_vec_s
        ) if replay_vec_s else None,
        "accesses_per_workload": accesses,
        "fig6_cold_stages": cold_stages,
        "fig6_warm_stages": warm_stages,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))

    # PR 6 cold-path contract: stage breakdown + ratio gates.
    baseline_path = args.baseline or args.pr6_out
    baseline = None
    if baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
    pr6 = {
        "benchmark": "fig6 cold-path contract (vectorized walk)",
        "machine": args.machine,
        "refs_per_core": args.refs,
        "seed": args.seed,
        "python": platform.python_version(),
        "warmup": not args.no_warmup,
        "fig6_cold_s": round(cold_s, 4),
        "fig6_warm_s": round(warm_s, 4),
        "cold_warm_ratio": round(cold_s / warm_s, 3) if warm_s else None,
        "max_cold_warm_ratio": args.max_cold_warm_ratio,
        "cold_stages": cold_stages,
        "warm_stages": warm_stages,
        "cold_only_s": {
            # What the warm path skips: generating workloads is shared,
            # walking and saving are cold-only, loading is warm-only.
            "content_walk": cold_stages.get("content_walk", 0.0),
            "cache_save": cold_stages.get("cache_save", 0.0),
        },
        "content": vector_counters,
    }
    failures = check_cold_path(pr6, baseline,
                               args.max_cold_warm_ratio, args.regression_slack)
    pr6["pass"] = not failures
    args.pr6_out.write_text(json.dumps(pr6, indent=2) + "\n")
    print(json.dumps(pr6, indent=2))

    if warm_walks != 0:
        failures.append(f"warm regeneration ran {warm_walks} content walks "
                        "(expected 0)")
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
