"""The repository benchmark: five workloads through ``run_spec``/``run_cells``.

Every timed run is one fresh child process (:mod:`child`): one thread,
``workers=1``, no ``REPRO_*`` environment, a fresh results store and, for
the cold workloads, a fresh stream cache.  Rounds interleave: round *r*
runs each selected workload once before round *r + 1* starts, so a slow
spell on a shared machine lands on every workload rather than on one
workload's whole batch.  End-to-end metrics come only from these runs,
which carry no hooks; ``--trace`` adds one round with the layer hooks
attached and reports the per-layer table.  Outputs are checked against
the digests pinned in ``expected.json``.

Every child times a fixed calibration kernel (``child.calibrate``) beside
its work, and every end-to-end time is scaled by ``REF_CAL_S / cal_s``:
seconds at the reference host's speed.  On a shared host the raw speed
drifts by tens of per cent from one minute to the next; the scaled times
do not.  The raw seconds and the calibration readings are reported too
(``host`` in the report, ``host.*`` per-layer metrics).

Usage, from the repository root::

    python3 benchmarks/perf/run.py --seed 1 [--rounds 5] [--trace] [--out FILE]
    python3 benchmarks/perf/run.py --workload recal-warm --seed 3 --seconds 34 --trace 0
    python3 benchmarks/perf/run.py --smoke --trace --seed 1

Every metric is printed by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--workload`` the metrics are the ``end_to_end`` ones of
``BENCHMARK.json`` (or its ``per_layer`` ones under ``--trace``); without
it every key is prefixed with the workload name.  The exit code is 0 only
when every cell succeeded and every digest matched.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from child import REF_CAL_S, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"
#: A child that has not finished by then is killed and the run aborts.
CHILD_TIMEOUT_S = 60
#: Fewest timed rounds when ``--seconds`` sets the run length.
MIN_TIMED_ROUNDS = 3
#: Set-up children per workload: stream-cache prefills for the warm
#: workloads, ready-only children for the cold ones.
SETUPS = 3


class BenchError(RuntimeError):
    """A child crashed or printed no result: the benchmark cannot report."""


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS),
                    help="run one workload (default: all five, interleaved)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=None,
                    help="timed rounds (default 5; with --seconds, at least "
                         f"{MIN_TIMED_ROUNDS} and until the time is spent)")
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="keep adding timed rounds while one more is "
                         "expected to end within this many seconds")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="add one traced round (per-layer table)")
    ap.add_argument("--out", type=Path, help="write the full report as JSON")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny machine, small inputs, one round, no digest pins")
    ap.add_argument("--update-expected", action="store_true",
                    help="rewrite this seed's digests in expected.json")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.rounds is None:
        args.rounds = 1 if args.smoke else (MIN_TIMED_ROUNDS if args.seconds else 5)
    if args.smoke and args.update_expected:
        ap.error("--update-expected pins the default shape, not --smoke")
    return args


def child_env(tmp: Path) -> tuple:
    """(environment, scrubbed names): no ``REPRO_*`` knob reaches a child."""
    scrubbed = sorted(name for name in os.environ if name.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               TMPDIR=str(tmp), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env, scrubbed


def spawn(job: dict, env: dict) -> dict:
    """Run one child to completion; its result dict plus ``spawned_at``."""
    spawned_at = time.monotonic()
    proc = subprocess.run([sys.executable, str(CHILD), json.dumps(job)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{job['mode']} child for {job['workload']} exited "
            f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    return {**json.loads(lines[-1]), "spawned_at": spawned_at}


def summary(values: list) -> dict:
    """Median and quartiles of the rounds.  The quartiles interpolate
    between samples (``method="inclusive"``): with five rounds they are
    the second and fourth, so one outlying round does not set the spread."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def _filesystem(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (Linux mountinfo)."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[4]
                kind = fields[fields.index("-") + 1]
                if (str(path) + "/").startswith(mount.rstrip("/") + "/") \
                        and len(mount) >= len(best):
                    best, fstype = mount, kind
    except (OSError, ValueError, IndexError):
        pass
    return fstype


def metadata_block(work: Path, scrubbed: list) -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        rev = ""
    return {
        "git_revision": rev or None,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "env_scrubbed": scrubbed,
        "work_filesystem": _filesystem(work),
    }


def at_ref(seconds: float, res: dict) -> float:
    """``seconds`` measured by the child ``res`` at the reference speed."""
    return seconds * REF_CAL_S / res["cal_s"]


class WorkloadRuns:
    """Everything measured for one workload across the rounds.  Set-up
    times (``prefill_s``, ``ready``) are already at the reference speed."""

    def __init__(self) -> None:
        self.prefill_s = 0.0
        self.ready: list = []
        self.runs: list = []
        self.traced: "dict | None" = None
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.outputs: "tuple | None" = None

    def add(self, res: dict, expected: "dict | None") -> None:
        """Count one child's cells; a raised run or a digest that disagrees
        with the pin (or with this workload's earlier rounds) fails all of
        its cells."""
        self.attempted += res["attempted"]
        outputs = (res["digest"], res["table_sha256"])
        problem = res["error"]
        if problem is None and expected is not None and \
                outputs != (expected["digest"], expected["table_sha256"]):
            problem = f"digest {outputs[0]} differs from expected.json"
        if problem is None and self.outputs not in (None, outputs):
            problem = f"digest {outputs[0]} differs from an earlier round"
        if problem is None:
            self.outputs = outputs
            self.failed += res["failed"]
        else:
            self.failed += res["attempted"]
            self.problems.append(problem)

    def e2e(self) -> dict:
        walls = [at_ref(r["wall_s"], r) for r in self.runs]
        ready = self.ready + [at_ref(r["ready_at"] - r["spawned_at"], r)
                              for r in self.runs]
        return {
            "wall_s": summary(walls),
            "sim_refs_per_s": summary([r["refs"] / w for r, w in zip(self.runs, walls)]),
            "setup_s": summary([self.prefill_s + s for s in ready]),
            "peak_rss_mb": summary([r["peak_rss_mb"] for r in self.runs]),
        }

    def host(self) -> dict:
        """The timed runs' raw host seconds and calibration readings."""
        return {"wall_s": summary([r["wall_s"] for r in self.runs]),
                "cal_s": summary([r["cal_s"] for r in self.runs])}

    def layers(self) -> dict:
        out = dict(self.traced["layers"])
        untraced = statistics.median(at_ref(r["wall_s"], r) for r in self.runs)
        traced = at_ref(self.traced["wall_s"], self.traced)
        out["trace.overhead_frac"] = traced / untraced - 1.0
        out.update({f"host.{k}": v["value"] for k, v in self.host().items()})
        return out


def bench(args, names: list, work: Path) -> tuple:
    """Set up, run the interleaved rounds and the traced round."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    env, scrubbed = child_env(tmp)
    pins = {} if args.smoke or args.update_expected else \
        json.loads(EXPECTED.read_text()).get(str(args.seed), {})
    runs = {name: WorkloadRuns() for name in names}
    base = {"seed": args.seed, "smoke": args.smoke}

    for name in names:
        warm = WORKLOADS[name].warm
        prefills = []
        for i in range(SETUPS):
            # Every prefill starts from an empty directory; the timed runs
            # read the first one.
            cache = work / f"{name}-cache{i or ''}"
            job = {**base, "mode": "prefill" if warm else "ready",
                   "workload": name, "cache": str(cache), "store": ""}
            res = spawn(job, env)
            runs[name].ready.append(at_ref(res["ready_at"] - res["spawned_at"], res))
            if warm:
                prefills.append(at_ref(res["prefill_s"], res))
            if i:
                shutil.rmtree(cache, ignore_errors=True)
        runs[name].prefill_s = statistics.median(prefills) if warm else 0.0

    def one(name: str, mode: str, tag: str, events: "Path | None" = None) -> dict:
        own = work / f"{name}-{tag}"
        own.mkdir()
        warm_cache = work / f"{name}-cache"
        job = {**base, "mode": mode, "workload": name, "run_id": f"{name}-{tag}",
               "cache": str(warm_cache if WORKLOADS[name].warm else own / "cache"),
               "store": str(own / "store.sqlite"),
               "events": str(events) if events else None}
        try:
            res = spawn(job, env)
        finally:
            shutil.rmtree(own, ignore_errors=True)
        runs[name].add(res, pins.get(name))
        return res

    # A round is expected to take as long as the one before it, so with
    # --seconds the timed rounds end within that time once the minimum
    # number of rounds is done.
    started, rounds, last = time.monotonic(), 0, 0.0
    while rounds < args.rounds or \
            time.monotonic() - started + last <= args.seconds:
        round_started = time.monotonic()
        for name in names:
            runs[name].runs.append(one(name, "run", f"r{rounds}"))
        rounds += 1
        last = time.monotonic() - round_started
    events = []
    if args.trace:
        for name in names:
            path = work / f"{name}-events.json" if args.out else None
            runs[name].traced = one(name, "trace", "traced", path)
            if path is not None:
                events.extend(json.loads(path.read_text()))
    return runs, metadata_block(work, scrubbed), events


def report(args, runs: dict, meta: dict, declared: dict) -> dict:
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    out = {"schema": 1, "meta": meta,
           "args": {"seed": args.seed, "rounds": args.rounds,
                    "seconds": args.seconds, "trace": args.trace,
                    "smoke": args.smoke},
           "workloads": {}}
    for name, wr in runs.items():
        entry = {
            "attempted": wr.attempted, "failed": wr.failed,
            "failed_frac": wr.failed / wr.attempted,
            "problems": wr.problems,
            "digest": wr.outputs[0] if wr.outputs else None,
            "table_sha256": wr.outputs[1] if wr.outputs else None,
            "prefill_s": wr.prefill_s,
            "metrics": {k: {**v, "unit": units[k]} for k, v in wr.e2e().items()},
            "host": {k: {**v, "unit": "s"} for k, v in wr.host().items()},
        }
        if wr.traced is not None:
            entry["layers"] = {k: {"value": v, "unit": units[k]}
                               for k, v in wr.layers().items()}
        model = next((r["model"] for r in wr.runs if "model" in r), None)
        if model is not None:
            entry["model"] = model
        out["workloads"][name] = entry
    return out


def result_line(args, rep: dict, declared: dict) -> dict:
    """The last output line: the declared metrics, prefixed with the
    workload name when more than one workload ran."""
    if args.workload:
        kinds = ["per_layer"] if args.trace else ["end_to_end"]
    else:
        kinds = ["end_to_end"] + (["per_layer"] if args.trace else [])
    wanted = [m["name"] for kind in kinds for m in declared[kind]]
    metrics = {}
    for name, entry in rep["workloads"].items():
        table = {**entry["metrics"], **entry.get("layers", {})}
        missing = [m for m in wanted if m not in table]
        if missing:
            raise BenchError(f"{name}: no value for declared metric(s) {missing}")
        for metric in wanted:
            key = metric if args.workload else f"{name}.{metric}"
            metrics[key] = {"value": table[metric]["value"],
                            "unit": table[metric]["unit"]}
    attempted = sum(e["attempted"] for e in rep["workloads"].values())
    failed = sum(e["failed"] for e in rep["workloads"].values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def print_table(rep: dict) -> None:
    for name, entry in rep["workloads"].items():
        print(f"== {name}: {entry['attempted']} cells attempted, "
              f"{entry['failed']} failed (failed_frac {entry['failed_frac']:.4g} ratio)")
        for metric, m in entry["metrics"].items():
            print(f"  {metric:32s} {m['value']:.6g} {m['unit']}"
                  f"  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})")
        for metric, m in entry["host"].items():
            print(f"  {'raw host ' + metric:32s} {m['value']:.6g} {m['unit']}"
                  f"  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})")
        for metric, m in entry.get("layers", {}).items():
            print(f"  {metric:32s} {m['value']:.6g} {m['unit']}")
        for problem in entry["problems"]:
            print(f"  FAILED: {problem}")


def update_expected(seed: int, rep: dict) -> None:
    pins = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    pins[str(seed)] = {
        name: {"digest": e["digest"], "table_sha256": e["table_sha256"]}
        for name, e in sorted(rep["workloads"].items())}
    EXPECTED.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [args.workload] if args.workload else list(WORKLOADS)
    work = ROOT / ".perf-work" / f"run-{os.getpid()}"
    try:
        runs, meta, events = bench(args, names, work)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    rep = report(args, runs, meta, declared)
    print_table(rep)
    try:
        line = result_line(args, rep, declared)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(rep, indent=1) + "\n")
        if events:
            args.out.with_suffix(".trace.json").write_text(
                json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    if args.update_expected:
        if any(e["problems"] for e in rep["workloads"].values()):
            print("error: not pinning a seed whose runs disagree", file=sys.stderr)
            return 1
        update_expected(args.seed, rep)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _terminated(signum, _frame) -> None:
    """SIGTERM unwinds like an exit: ``subprocess.run`` kills and waits
    for the running child, and ``main`` removes its work directory."""
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminated)
    sys.exit(main())
