"""Command-line interface: regenerate paper artifacts from a shell.

Examples::

    python -m repro list
    python -m repro machines
    python -m repro run fig6
    python -m repro run fig7 --machine paper --refs 20000 --workloads mcf,lbm
    python -m repro run-all --out results/
    python -m repro workload mcf --refs 10000 --save mcf.npz
    python -m repro check --workloads mcf,lbm --redhip
    python -m repro check --replay .repro-replay/inclusion-mcf-inclusive-s1-r123.json
    python -m repro chaos --plan tests/golden/chaos_plan.json
    python -m repro sweep tests/golden/sweep_smoke.json --store results.sqlite
    python -m repro merge merged.sqlite hostA.sqlite hostB.sqlite
    python -m repro query results.sqlite --where scheme=redhip --csv
    python -m repro watch results.sqlite --once
    python -m repro report results.sqlite --json

``run`` prints the same rows/series the paper's figure shows; ``--out``
additionally writes a markdown file per artifact.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import telemetry
from repro.energy.params import MACHINES, get_machine
from repro.experiments import clear_cache, experiment_ids, run_experiment
from repro.hierarchy.inclusion import InclusionPolicy
from repro.sim.config import SimConfig
from repro.sim.report import ExperimentResult
from repro.util.validation import ReproError
from repro.workloads import PAPER_WORKLOADS, get_workload
from repro.workloads.tracefile import save_workload

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ReDHiP reproduction: regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible artifact ids")
    sub.add_parser("machines", help="list machine configurations")

    ex = sub.add_parser(
        "experiments",
        help="inspect the declarative experiment registry "
             "(ls: render spec metadata; smoke: cheap registry-wide run)",
    )
    ex.add_argument("action", choices=("ls", "smoke"),
                    help="ls: one row per spec (figure, kind, sweep axes, "
                         "schemes) without running anything; smoke: run "
                         "every spec through the driver with its smoke "
                         "overrides")
    ex.add_argument("--kind", default=None,
                    choices=("paper", "extension", "ablation"),
                    help="restrict to one spec kind")
    ex.add_argument("--machine", default="tiny", choices=sorted(MACHINES),
                    help="smoke machine configuration (default: tiny)")
    ex.add_argument("--refs", type=int, default=1500,
                    help="smoke references per core (default: 1500)")
    ex.add_argument("--seed", type=int, default=7,
                    help="smoke seed (default: 7)")
    ex.add_argument("--out", type=Path, default=None,
                    help="with smoke: directory to write <id>.md artifacts")

    def add_run_options(p):
        p.add_argument("--machine", default="scaled", choices=sorted(MACHINES),
                       help="machine configuration (default: scaled)")
        p.add_argument("--refs", type=int, default=80_000,
                       help="references per core (default: 80000)")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--workloads", default=None,
                       help="comma-separated subset of the paper's workloads")
        p.add_argument("--out", type=Path, default=None,
                       help="directory to write <id>.md result files")
        p.add_argument("--chart", action="store_true",
                       help="render the average row as a bar chart")
        p.add_argument("--telemetry", "-v", action="store_true",
                       help="collect spans/metrics and write run_manifest.json "
                            "(see `repro stats` / `repro trace`; "
                            "REPRO_TELEMETRY=1 does the same)")

    run = sub.add_parser("run", help="regenerate one artifact")
    run.add_argument("experiment", help="artifact id (see `repro list`)")
    run.add_argument("--store", type=Path, default=None,
                     help="persist the experiment's results store at this "
                          "path: an interrupted run resumes from it instead "
                          "of recomputing. Grid experiments only; any other "
                          "experiment exits with an error")
    add_run_options(run)

    run_all = sub.add_parser("run-all", help="regenerate every artifact")
    add_run_options(run_all)

    wl = sub.add_parser("workload", help="build (and optionally save) a workload")
    wl.add_argument("name", help=f"one of {', '.join(PAPER_WORKLOADS)}")
    wl.add_argument("--machine", default="scaled", choices=sorted(MACHINES))
    wl.add_argument("--refs", type=int, default=80_000)
    wl.add_argument("--seed", type=int, default=1)
    wl.add_argument("--save", type=Path, default=None, help="write a .npz trace file")

    an = sub.add_parser(
        "analyze",
        help="reuse-distance + phase anatomy of one workload (no scheme runs)",
    )
    an.add_argument("name", help=f"one of {', '.join(PAPER_WORKLOADS)}")
    an.add_argument("--machine", default="scaled", choices=sorted(MACHINES))
    an.add_argument("--refs", type=int, default=40_000)
    an.add_argument("--seed", type=int, default=1)

    ck = sub.add_parser(
        "check",
        help="run workloads in checked (invariant-verifying) mode and "
             "report content fingerprints, or replay a violation bundle",
    )
    ck.add_argument("--machine", default="scaled", choices=sorted(MACHINES))
    ck.add_argument("--refs", type=int, default=20_000,
                    help="references per core (default: 20000)")
    ck.add_argument("--seed", type=int, default=1)
    ck.add_argument("--workloads", default=None,
                    help="comma-separated subset of the paper's workloads")
    ck.add_argument("--policy", default="inclusive",
                    choices=[p.value for p in InclusionPolicy])
    ck.add_argument("--redhip", action="store_true",
                    help="also run a checked ReDHiP integrated pass per workload "
                         "(prediction-table + recalibration invariants)")
    ck.add_argument("--replay", type=Path, default=None, metavar="BUNDLE",
                    help="re-run the window recorded in a replay bundle; "
                         "exits 1 if the violation still reproduces")

    ca = sub.add_parser(
        "cache",
        help="inspect the persistent stream cache "
             "(REPRO_STREAM_CACHE / SimConfig.stream_cache)",
    )
    ca.add_argument("action", choices=("ls", "clear", "verify"),
                    help="ls: list entries; clear: delete all entries; "
                         "verify: re-fingerprint every entry (exit 1 on any "
                         "corrupt/stale file)")
    ca.add_argument("--dir", type=Path, default=None,
                    help="cache directory (default: $REPRO_STREAM_CACHE, "
                         "else .repro-cache)")
    ca.add_argument("--discard", action="store_true",
                    help="with verify: delete the entries that fail "
                         "(still exits 1 when anything was discarded)")

    ch = sub.add_parser(
        "chaos",
        help="run an experiment clean and under a fault-injection plan; "
             "fail unless the artifacts are byte-identical and every "
             "fault was handled (see repro.faults)",
    )
    ch.add_argument("experiment", nargs="?", default="fig6",
                    help="artifact id to regenerate (default: fig6)")
    ch.add_argument("--plan", type=Path, required=True,
                    help="fault plan JSON (e.g. tests/golden/chaos_plan.json)")
    ch.add_argument("--machine", default="tiny", choices=sorted(MACHINES),
                    help="machine configuration (default: tiny — chaos is "
                         "a smoke harness, not a benchmark)")
    ch.add_argument("--refs", type=int, default=4000,
                    help="references per core (default: 4000)")
    ch.add_argument("--seed", type=int, default=1)
    ch.add_argument("--workloads", default="mcf,lbm",
                    help="comma-separated workloads (default: mcf,lbm)")
    ch.add_argument("--workers", type=int, default=2,
                    help="worker processes for the cold pass through "
                         "the sweep pool (default: 2; the pool is where "
                         "worker faults fire)")
    ch.add_argument("--out", type=Path, default=Path(".repro-chaos"),
                    help="directory for both runs' artifacts + manifests "
                         "(default: .repro-chaos)")

    sw = sub.add_parser(
        "sweep",
        help="run (or resume) a declarative sweep grid; every completed "
             "cell lands in an append-only results store keyed by its "
             "content fingerprint, so a killed sweep restarts where it "
             "stopped (see repro.sweep)",
    )
    sw.add_argument("spec", type=Path,
                    help="sweep JSON file (see tests/golden/sweep_smoke.json)")
    sw.add_argument("--store", type=Path, default=None,
                    help="results store path (default: <spec>.sqlite next "
                         "to the spec file)")
    sw.add_argument("--workers", type=int, default=None,
                    help="worker processes (default: cpu-derived; 1 = serial)")
    sw.add_argument("--timeout", type=float, default=None,
                    help="per-shard worker timeout in seconds, > 0; inf "
                         "never times out (default: REPRO_WORKER_TIMEOUT "
                         "or 600)")
    sw.add_argument("--max-cells", type=int, default=None,
                    help="stop after this many pending cells (resume "
                         "later; used by CI to exercise the resume path)")
    sw.add_argument("--plan", action="store_true",
                    help="expand and print the grid without running anything")
    sw.add_argument("--faults", type=Path, default=None,
                    help="fault-injection plan JSON applied to the run")
    sw.add_argument("--telemetry", "-v", action="store_true",
                    help="collect sweep-level spans/counters and print a "
                         "summary (REPRO_TELEMETRY=1 does the same)")

    mg = sub.add_parser(
        "merge",
        help="merge results stores into one: pure union of canonical rows "
             "keyed by cell fingerprint (cross-host sweep consolidation)",
    )
    mg.add_argument("dst", type=Path,
                    help="destination store (created if missing)")
    mg.add_argument("src", type=Path, nargs="+",
                    help="source stores to fold in, in order")

    qu = sub.add_parser(
        "query",
        help="filter, aggregate or export the rows of a sweep results store",
    )
    qu.add_argument("store", type=Path, help="results store (.sqlite)")
    qu.add_argument("--where", action="append", default=[], metavar="COL=VAL",
                    help="exact-match filter on an identity column "
                         "(repeatable; VAL 'none' matches NULL)")
    qu.add_argument("--by", default=None, metavar="COLS",
                    help="comma-separated group-by columns; switches to "
                         "aggregation output")
    qu.add_argument("--value", default="total_nj",
                    help="metric to aggregate (default: total_nj)")
    qu.add_argument("--agg", default="mean",
                    choices=("mean", "sum", "min", "max", "count"),
                    help="aggregation function (default: mean)")
    qu.add_argument("--columns", default=None,
                    help="comma-separated column subset for row/CSV output")
    qu.add_argument("--csv", nargs="?", type=Path, const=Path("-"),
                    default=None, metavar="FILE",
                    help="emit CSV (to FILE, or stdout when no FILE given)")
    qu.add_argument("--digest", action="store_true",
                    help="print only the canonical-view digest (two stores "
                         "filled by any mix of resumed runs of one spec "
                         "agree here)")

    wa = sub.add_parser(
        "watch",
        help="live (or --once snapshot) view of a sweep's progress "
             "journal + results store: cell counts, throughput, stage "
             "tails, worker heartbeats, ETA, recent fault events; works "
             "on in-progress, killed, and finished runs",
    )
    wa.add_argument("target", type=Path,
                    help="results store (.sqlite) or journal "
                         "(.journal.ndjson) path")
    wa.add_argument("--once", action="store_true",
                    help="render one frame and exit (default: refresh "
                         "until the journal records run_finished)")
    wa.add_argument("--interval", type=float, default=2.0,
                    help="refresh period in seconds (default: 2)")
    wa.add_argument("--events", type=int, default=5,
                    help="how many recent fault/failure events to show "
                         "(default: 5)")

    rp = sub.add_parser(
        "report",
        help="post-run sweep summary joining the journal and the "
             "results store — the artifact CI archives next to the store "
             "digest",
    )
    rp.add_argument("target", type=Path,
                    help="results store (.sqlite) or journal "
                         "(.journal.ndjson) path")
    rp.add_argument("--journal", type=Path, default=None,
                    help="explicit journal path (default: next to the "
                         "store by stem)")
    rp.add_argument("--json", action="store_true",
                    help="emit the full report as JSON instead of text")
    rp.add_argument("--events", type=int, default=8,
                    help="tail length for event lists (default: 8)")

    st = sub.add_parser(
        "stats",
        help="human-readable summary of a run manifest "
             "(per-stage wall times, cache/replay/invariant counters)",
    )
    st.add_argument("manifest", nargs="?", type=Path,
                    default=Path(telemetry.MANIFEST_NAME),
                    help=f"manifest path (default: ./{telemetry.MANIFEST_NAME})")

    tr = sub.add_parser(
        "trace",
        help="export a run's spans as Chrome/Perfetto trace_event JSON",
    )
    tr.add_argument("run", type=Path,
                    help="run manifest (run_manifest.json) to export")
    tr.add_argument("-o", "--out", type=Path, default=Path("trace.json"),
                    help="output file (default: trace.json); load it at "
                         "ui.perfetto.dev or chrome://tracing")
    return parser


def _config(args) -> SimConfig:
    return SimConfig(
        machine=get_machine(args.machine),
        refs_per_core=args.refs,
        seed=args.seed,
        telemetry=getattr(args, "telemetry", False),
    )


def _emit(result: ExperimentResult, out: Path | None, chart: bool = False) -> None:
    print(f"== {result.experiment_id}: {result.title} ==")
    print(result.table)
    if chart:
        avg = result.series.get("average")
        if isinstance(avg, dict) and all(isinstance(v, (int, float)) for v in avg.values()):
            from repro.viz import bar_chart

            print()
            print(bar_chart(avg))
    if result.notes:
        print(result.notes)
    print()
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{result.experiment_id}.md"
        path.write_text(
            f"# {result.experiment_id}: {result.title}\n\n```\n{result.table}\n```\n\n"
            + (result.notes + "\n" if result.notes else "")
        )
        print(f"wrote {path}", file=sys.stderr)


def _run_kwargs(args) -> dict:
    kwargs = {}
    if args.workloads:
        kwargs["workloads"] = tuple(w.strip() for w in args.workloads.split(","))
    return kwargs


def _experiments(args) -> int:
    """``repro experiments {ls,smoke}``: the declarative registry itself."""
    from repro.experiments import SPECS, run_spec

    specs = [s for s in SPECS.values() if args.kind in (None, s.kind)]
    if args.action == "ls":
        id_w = max(len(s.experiment_id) for s in specs)
        fig_w = max(len(s.figure) for s in specs)
        kind_w = max(len(s.kind) for s in specs)
        sweep_w = max(len(", ".join(s.sweep) or "-") for s in specs)
        header = (f"{'id'.ljust(id_w)}  {'figure'.ljust(fig_w)}  "
                  f"{'kind'.ljust(kind_w)}  {'sweep'.ljust(sweep_w)}  schemes")
        print(header)
        print("-" * len(header))
        for s in specs:
            sweep = ", ".join(s.sweep) or "-"
            schemes = ", ".join(s.schemes) or "-"
            print(f"{s.experiment_id.ljust(id_w)}  {s.figure.ljust(fig_w)}  "
                  f"{s.kind.ljust(kind_w)}  {sweep.ljust(sweep_w)}  {schemes}")
        print(f"{len(specs)} experiments")
        return 0
    # smoke: every spec through the shared driver, cheap overrides applied.
    cfg = SimConfig(
        machine=get_machine(args.machine),
        refs_per_core=args.refs,
        seed=args.seed,
    )
    print(f"smoke: {len(specs)} specs on {cfg.machine.name}, "
          f"{cfg.refs_per_core} refs/core, seed {cfg.seed}")
    for s in specs:
        result = run_spec(s, cfg, smoke=True)
        print(f"ok  {s.experiment_id:24s} {result.title}")
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            path = args.out / f"{result.experiment_id}.md"
            path.write_text(
                f"# {result.experiment_id}: {result.title}\n\n"
                f"```\n{result.table}\n```\n\n"
                + (result.notes + "\n" if result.notes else "")
            )
    clear_cache()
    print("all specs ran")
    return 0


def _analyze(args) -> None:
    """Reuse-distance and phase anatomy of one workload."""
    from repro.analysis import profile_trace, windowed_stats
    from repro.energy.params import BLOCK_SIZE
    from repro.sim.content import ContentSimulator
    from repro.viz import sparkline

    cfg = _config(args)
    machine = cfg.machine
    workload = get_workload(args.name, machine, cfg.refs_per_core, cfg.seed)
    trace = workload.traces[0].head(min(cfg.refs_per_core, 40_000))
    profile = profile_trace(trace)
    print(f"{args.name} on {machine.name} (core 0, {trace.num_refs} refs)")
    print(f"cold fraction: {profile.cold_fraction:.1%}; "
          f"90% working set: {profile.working_set_blocks(0.9)} blocks")
    for lvl in range(1, machine.num_levels + 1):
        cap = machine.level(lvl).size // BLOCK_SIZE
        print(f"  analytic {machine.level(lvl).name} hit rate (FA LRU): "
              f"{profile.hit_rate(cap):.1%}")
    stream = ContentSimulator(cfg).run(workload)
    window = max(1024, stream.num_accesses // 64)
    stats = windowed_stats(stream, window=window)
    print(f"L1 miss rate {sparkline(stats.l1_miss_rate.tolist())} "
          f"(mean {stats.l1_miss_rate.mean():.1%})")
    print(f"memory rate  {sparkline(stats.memory_rate.tolist())} "
          f"(mean {stats.memory_rate.mean():.1%})")


def _check(args) -> int:
    """Checked-mode verification pass: the shared CI/human entry point."""
    from repro.checking import replay
    from repro.sim.content import ContentSimulator

    if args.replay is not None:
        report = replay(args.replay)
        print(report.message)
        return 1 if report.violation is not None else 0

    cfg = SimConfig(
        machine=get_machine(args.machine),
        refs_per_core=args.refs,
        seed=args.seed,
        policy=args.policy,
        checked=True,
    )
    names = (
        tuple(w.strip() for w in args.workloads.split(","))
        if args.workloads
        else PAPER_WORKLOADS
    )
    print(f"checked mode: {cfg.machine.name}, {cfg.policy.value}, "
          f"{cfg.refs_per_core} refs/core, seed {cfg.seed}")
    for name in names:
        workload = get_workload(name, cfg.machine, cfg.refs_per_core, cfg.seed)
        stream = ContentSimulator(cfg).run(workload)
        print(f"{name:10s} {stream.fingerprint()}  "
              f"({stream.num_accesses} accesses, {len(stream.llc_op)} LLC events)")
        if args.redhip:
            from repro.core.redhip import redhip_scheme
            from repro.sim.integrated import IntegratedSimulator

            result = IntegratedSimulator(cfg).run(
                workload, redhip_scheme(recal_period=cfg.recal_period)
            )
            sweeps = int(result.predictor_stats.get("recal_sweeps", 0))
            print(f"{'':10s} ReDHiP ok: {result.skips} skips, "
                  f"{result.false_positives} false positives, {sweeps} sweeps")
    print("all invariants held")
    return 0


def _cache(args) -> int:
    """``repro cache {ls,clear,verify}``: persistent stream-cache admin."""
    import os

    from repro.sim.streamcache import CACHE_ENV, DEFAULT_CACHE_DIR, StreamCache

    directory = args.dir
    if directory is None:
        env = os.environ.get(CACHE_ENV, "").strip()
        directory = env if env not in ("", "0", "1") else DEFAULT_CACHE_DIR
    cache = StreamCache(directory)
    if args.action == "ls":
        entries = cache.entries()
        if not entries:
            print(f"{cache.directory}: empty")
            return 0
        total = 0
        for e in entries:
            total += e.size_bytes
            if e.ok:
                print(f"{e.path.name}  {e.num_accesses} accesses  "
                      f"{e.size_bytes >> 10} KiB  fp {e.fingerprint[:12]}")
            else:
                print(f"{e.path.name}  {e.size_bytes >> 10} KiB  UNREADABLE")
        print(f"{len(entries)} entries, {total >> 10} KiB total in {cache.directory}")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.directory}")
        return 0
    ok, bad = cache.verify()
    for path in ok:
        print(f"ok      {path.name}")
    for path in bad:
        print(f"CORRUPT {path.name}")
    print(f"{len(ok)} ok, {len(bad)} corrupt/stale in {cache.directory}")
    if bad and args.discard:
        removed = cache.discard_bad()
        for path in removed:
            print(f"discarded {path.name}")
    # Non-zero whenever anything failed verification — with or without
    # --discard — so a cron'd `cache verify` never hides a poisoned cache.
    return 1 if bad else 0


def _chaos(args) -> int:
    """``repro chaos``: clean-vs-faulted equivalence as a shell command."""
    from repro.faults import load_plan
    from repro.faults.chaos import run_chaos

    plan = load_plan(args.plan)
    cfg = SimConfig(
        machine=get_machine(args.machine),
        refs_per_core=args.refs,
        seed=args.seed,
    )
    names = tuple(w.strip() for w in args.workloads.split(",")) \
        if args.workloads else None
    print(f"chaos: {args.experiment} on {cfg.machine.name}, "
          f"{cfg.refs_per_core} refs/core, seed {cfg.seed}, "
          f"plan {args.plan} ({len(plan.faults)} fault spec(s), "
          f"plan seed {plan.seed})")
    report = run_chaos(args.experiment, cfg, plan, args.out,
                       workloads=names, workers=args.workers)
    for record in report.injected:
        print(f"injected  {record['site']:18s} {record['kind']:13s} "
              f"key={record['key']} hit#{record['hit']}")
    print(f"fault kinds exercised: {sorted(report.kinds)}")
    print(f"recovery sites seen:   {sorted(report.handled_sites)}")
    print("artifact: " + ("byte-identical to baseline" if report.identical
                          else "DIFFERS from baseline"))
    for line in report.artifact_diff:
        print(f"  {line}")
    for problem in report.problems:
        print(f"FAIL: {problem}")
    if report.ok:
        print(f"chaos ok — every fault handled, results unchanged "
              f"(artifacts under {report.out_dir}/)")
        return 0
    return 1


def _sweep(args) -> int:
    """``repro sweep``: run/resume a grid; print what this invocation did."""
    from repro.sweep import load_sweep, run_sweep
    from repro.sweep.scheduler import shard_cells, sweep_stream_cache

    spec = load_sweep(args.spec)
    store_path = args.store if args.store is not None \
        else args.spec.with_suffix(".sqlite")
    if args.plan:
        cells = spec.cells()
        for cell in cells:
            print(f"{cell.fingerprint()}  {cell.label()}")
        cache = sweep_stream_cache(spec, store_path)
        print(f"{len(cells)} cells in {len(shard_cells(cells))} shard(s); "
              f"store {store_path}, stream cache "
              f"{cache if cache else '$REPRO_STREAM_CACHE'}")
        return 0
    force = True if args.telemetry else None
    with telemetry.session(force=force, label=f"sweep-{spec.name}") as sess:
        report = run_sweep(
            spec, store_path,
            workers=args.workers,
            timeout_s=args.timeout,
            max_cells=args.max_cells,
            faults_plan=str(args.faults) if args.faults else None,
        )
        if sess is not None:
            path = telemetry.write_manifest(store_path.parent, sess)
            print(f"wrote {path}", file=sys.stderr)
    print(f"sweep {report.sweep}: {report.total} cells, "
          f"{report.resumed} resumed, {report.completed} completed, "
          f"{len(report.failed)} failed "
          f"({report.shards} shard(s) x {report.workers} worker(s), "
          f"{report.wall_s:.2f} s)")
    for fingerprint, label, reason in report.failed:
        print(f"FAILED {label}: {reason}  [{fingerprint}]")
    print(f"store {report.store_path} ({report.resumed + report.completed}"
          f"/{report.total} cells) digest {report.digest}")
    if report.journal_path is not None:
        print(f"journal {report.journal_path} "
              f"(watch with `repro watch {report.store_path}`)")
    if report.failed:
        print("rerun the same sweep to retry the failed cells "
              "(completed cells are skipped by fingerprint)")
        return 1
    return 0


def _merge(args) -> int:
    """``repro merge``: consolidate sharded/cross-host stores into one.

    Union by fingerprint; the same fingerprint with a different canonical
    payload is a hard error (one store is corrupt or was produced by
    incompatible code), surfaced as a non-zero exit with nothing further
    merged from that source.  Every source must exist before the
    destination is opened, so a missing one leaves ``dst`` untouched.
    """
    from repro.results import ResultsStore

    for src_path in args.src:
        if not src_path.exists():
            raise ReproError(
                f"no results store at {src_path}; "
                f"produce one with `repro sweep <spec>`"
            )
    with ResultsStore(args.dst) as dst:
        for src_path in args.src:
            with ResultsStore(src_path) as src:
                added, skipped = dst.merge_from(src)
            print(f"{src_path}: {added} added, {skipped} already present")
        print(f"store {args.dst} ({len(dst)} rows) digest {dst.digest()}")
    return 0


def _query(args) -> int:
    """``repro query``: the shell view of one results store."""
    from repro.results import ResultsStore

    if not args.store.exists():
        raise ReproError(f"no results store at {args.store}; "
                         f"produce one with `repro sweep <spec>`")
    where = {}
    for item in args.where:
        col, sep, value = item.partition("=")
        if not sep:
            raise ReproError(f"bad --where {item!r}: expected COL=VAL")
        where[col.strip()] = value.strip()
    columns = [c.strip() for c in args.columns.split(",")] \
        if args.columns else None
    with ResultsStore(args.store) as store:
        if args.digest:
            print(store.digest())
            return 0
        if args.by:
            by = tuple(c.strip() for c in args.by.split(","))
            groups = store.aggregate(args.value, by=by, agg=args.agg,
                                     where=where)
            for g in groups:
                key = " ".join(f"{c}={g[c]}" for c in by)
                print(f"{key}  {args.agg}({args.value})={g[args.agg]:g}  "
                      f"n={g['n']}")
            return 0
        rows = store.rows(where)
        if args.csv is not None:
            text = store.export_csv(rows, columns)
            if str(args.csv) == "-":
                sys.stdout.write(text)
            else:
                args.csv.parent.mkdir(parents=True, exist_ok=True)
                args.csv.write_text(text)
                print(f"wrote {args.csv} ({len(rows)} rows)", file=sys.stderr)
            return 0
        for row in rows:
            if columns:
                print("  ".join(f"{c}={row.get(c)}" for c in columns))
            else:
                print(f"{row['fingerprint']}  {row['machine']}-"
                      f"{row['workload']}-{row['scheme']}-{row['policy']}"
                      f"-s{row['seed']}  total {row.get('total_nj', 0):.0f} nJ"
                      f"  cycles {row.get('exec_cycles', 0):.0f}")
        print(f"{len(rows)} row(s) in {args.store}")
    return 0


def _watch(args) -> int:
    """``repro watch``: journal + store joined into live/snapshot frames."""
    import time as time_mod

    from repro.sweep.watch import build_view, render_view

    while True:
        view = build_view(args.target, events=args.events)
        print(render_view(view))
        if args.once or view.finished:
            return 0
        print()
        time_mod.sleep(max(0.1, args.interval))


def _report(args) -> int:
    """``repro report``: the static journal+store summary."""
    from repro.sweep.report import build_report, render_report, report_json

    report = build_report(args.target, journal=args.journal,
                          events=args.events)
    if args.json:
        print(report_json(report))
    else:
        print(render_report(report))
    return 0


def _write_manifest(sess, cfg: SimConfig, experiments: list, out: Path | None) -> None:
    """Write ``run_manifest.json`` next to the run's artifacts."""
    if sess is None:
        return
    path = telemetry.write_manifest(
        out if out is not None else Path("."), sess,
        config=cfg, experiments=experiments,
    )
    print(f"wrote {path}", file=sys.stderr)


def _load_manifest(path: Path) -> dict:
    try:
        return telemetry.load_manifest(path)
    except FileNotFoundError:
        raise ReproError(
            f"no run manifest at {path}; produce one with "
            f"`repro run <id> --telemetry`"
        ) from None
    except ValueError as exc:
        raise ReproError(str(exc)) from None


def _stats(args) -> int:
    """``repro stats``: the human-readable view of one run manifest."""
    m = _load_manifest(args.manifest)
    cfg = m["config"]
    versions = m["versions"]
    git = m["git"]
    wall = m["wall_s"]

    print(f"== run manifest: {m['label']} "
          f"(schema v{m['schema_version']}) ==")
    if cfg:
        print(f"config: machine {cfg['machine']}, {cfg['policy']}, "
              f"{cfg['refs_per_core']} refs/core, seed {cfg['seed']}, "
              f"replacement {cfg['replacement']}"
              + (", checked" if cfg.get("checked") else ""))
    print(f"versions: repro {versions.get('repro')}, "
          f"python {versions.get('python')}, numpy {versions.get('numpy')}"
          + (f"; git {git['commit'][:12]}"
             + (" (dirty)" if git.get("dirty") else "") if git else ""))
    if m["experiments"]:
        print(f"experiments: {', '.join(m['experiments'])}")
    print(f"wall time: {wall:.3f} s")
    print()

    stages = m["stages"]
    if stages:
        name_w = max(len("stage"), max(len(n) for n in stages))
        print(f"{'stage'.ljust(name_w)}  {'count':>6}  {'total s':>9}  "
              f"{'self s':>9}  {'% wall':>7}")
        print("-" * (name_w + 38))
        for name, agg in sorted(
            stages.items(), key=lambda kv: -kv[1]["total_s"]
        ):
            pct = agg["total_s"] / wall if wall else 0.0
            print(f"{name.ljust(name_w)}  {agg['count']:>6}  "
                  f"{agg['total_s']:>9.3f}  {agg.get('self_s', 0.0):>9.3f}  "
                  f"{pct:>7.1%}")
        top_level = sum(
            s["duration_s"] for s in m["spans"] if s["depth"] == 0
        )
        print(f"top-level spans cover {top_level / wall:.1%} of wall time"
              if wall else "")
    else:
        print("no spans recorded")
    print()

    s = m["summary"]
    cache, replay = s["cache"], s["replay"]
    content, inv = s["content"], s["invariants"]
    print(f"stream cache: {cache['hits']:.0f} hits, {cache['misses']:.0f} misses, "
          f"{cache['rejects']:.0f} rejects, {cache['saves']:.0f} saves "
          f"({cache['memo_hits']:.0f} in-process memo hits)")
    print(f"replay paths: {replay['vector']:.0f} vector, "
          f"{replay['sequential']:.0f} sequential "
          f"({replay['epochs']:.0f} epochs, {replay['sweeps']:.0f} sweeps)")

    def listing(counts: dict) -> str:
        return ", ".join(f"{n:.0f} {kind}" for kind, n in counts.items()) or "none"

    # Both blocks are absent in manifests written before them.
    for label, key in (("replay plans", "plans"), ("code tables", "tables")):
        memo = s.get(key)
        if memo and (memo["built"] or memo["reused"]):
            print(f"{label}: built {listing(memo['built'])}; "
                  f"reused {listing(memo['reused'])}")
    print(f"content: {content['walks']:.0f} walks, "
          f"{content['accesses']:.0f} accesses")
    if content.get("vector") and "classes" in content:  # absent before lockstep
        print(f"lockstep: {content['classes']:.0f} classes over "
              f"{content['vector']:.0f} vector walks, "
              f"{content['template_refs']:.0f} template refs, "
              f"{content['llc_pass_refs']:.0f} LLC-pass refs, "
              f"{content['live_victims_checked']:.0f} victims checked; "
              f"{content['switches']:.0f} switched to the exact loop "
              f"({content['exact_refs']:.0f} refs)")
    print(f"invariants: {inv['violations']:.0f} violations, "
          f"{inv['inclusion_sweeps']:.0f} inclusion sweeps, "
          f"{inv['result_checks']:.0f} result checks")
    flt = s.get("faults", {})  # absent in pre-faults manifests
    if any(flt.values()):
        print(f"faults: {flt.get('injected', 0):.0f} injected, "
              f"{flt.get('handled', 0):.0f} handled, "
              f"{flt.get('retries', 0):.0f} retries, "
              f"{flt.get('workers_lost', 0):.0f} workers lost")
    hists = {k: h for k, h in m["histograms"].items() if h.get("count")}
    if hists:
        print()
        name_w = max(len("histogram"), max(len(n) for n in hists))
        print(f"{'histogram'.ljust(name_w)}  {'count':>6}  {'mean':>10}  "
              f"{'p50':>10}  {'p95':>10}  {'max':>10}")
        print("-" * (name_w + 54))
        for name, h in sorted(hists.items()):
            # p50/p95 appear in manifests written after log-bucket
            # percentiles landed; older ones fall back to "-".
            p50 = f"{h['p50']:>10.4g}" if "p50" in h else f"{'-':>10}"
            p95 = f"{h['p95']:>10.4g}" if "p95" in h else f"{'-':>10}"
            print(f"{name.ljust(name_w)}  {h['count']:>6}  "
                  f"{h['mean']:>10.4g}  {p50}  {p95}  {h['max']:>10.4g}")
    if m["events"]:
        print(f"events: {len(m['events'])} "
              f"(first: {m['events'][0].get('name')})")
    return 0


def _trace(args) -> int:
    """``repro trace``: manifest spans -> Chrome/Perfetto trace_event."""
    import json

    m = _load_manifest(args.run)
    doc = telemetry.chrome_trace(m["spans"], label=m.get("label", "repro"))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc) + "\n")
    print(f"wrote {args.out} ({len(m['spans'])} spans; open at "
          f"ui.perfetto.dev or chrome://tracing)")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            for eid in experiment_ids():
                print(eid)
        elif args.command == "machines":
            for name in sorted(MACHINES):
                m = get_machine(name)
                sizes = "/".join(f"{lvl.size >> 10}K" for lvl in m.levels)
                print(f"{name:8s} {m.cores} cores, {sizes}, "
                      f"PT {m.prediction_table.size >> 10}KB "
                      f"({m.pt_overhead_ratio:.2%}, p-k={m.p_minus_k})")
        elif args.command == "run":
            cfg = _config(args)
            with telemetry.session(cfg, label=f"run-{args.experiment}") as sess:
                result = run_experiment(args.experiment, cfg,
                                        store=args.store, **_run_kwargs(args))
                _emit(result, args.out, chart=args.chart)
                clear_cache()
                _write_manifest(sess, cfg, [args.experiment], args.out)
        elif args.command == "run-all":
            cfg = _config(args)
            with telemetry.session(cfg, label="run-all") as sess:
                ids = experiment_ids()
                for eid in ids:
                    result = run_experiment(eid, cfg, **_run_kwargs(args))
                    _emit(result, args.out, chart=args.chart)
                clear_cache()
                _write_manifest(sess, cfg, ids, args.out)
        elif args.command == "workload":
            workload = get_workload(args.name, get_machine(args.machine),
                                    args.refs, args.seed)
            print(f"{workload.name}: {workload.cores} cores x "
                  f"{workload.traces[0].num_refs} refs "
                  f"({workload.total_refs} total), CPIs "
                  f"{sorted(set(t.cpi for t in workload.traces))}")
            if args.save:
                path = save_workload(workload, args.save)
                print(f"wrote {path}")
        elif args.command == "experiments":
            return _experiments(args)
        elif args.command == "analyze":
            _analyze(args)
        elif args.command == "check":
            return _check(args)
        elif args.command == "cache":
            return _cache(args)
        elif args.command == "chaos":
            return _chaos(args)
        elif args.command == "sweep":
            return _sweep(args)
        elif args.command == "merge":
            return _merge(args)
        elif args.command == "query":
            return _query(args)
        elif args.command == "watch":
            return _watch(args)
        elif args.command == "report":
            return _report(args)
        elif args.command == "stats":
            return _stats(args)
        elif args.command == "trace":
            return _trace(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
