"""Self-tests of the benchmark harness: hook hygiene, self-time
arithmetic, and a smoke run that emits every declared metric."""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from recorder import HOOKS, Recorder, Span, self_times

ROOT = Path(__file__).resolve().parents[2]


def _originals() -> dict:
    out = {}
    for module, path in HOOKS:
        *owner_path, attr = path.split(".")
        owner = importlib.import_module(module)
        for name in owner_path:
            owner = getattr(owner, name)
        out[(module, path)] = (owner, attr, vars(owner)[attr])
    return out


def test_detach_restores_every_hooked_attribute_even_when_the_call_raises():
    from repro.energy.params import get_machine
    from repro.results.store import ResultsStore
    from repro.sim import runner
    from repro.util.validation import ConfigError

    before = _originals()
    recorder = Recorder()
    with pytest.raises(ConfigError):
        with recorder:
            for owner, attr, original in before.values():
                assert vars(owner)[attr] is not original
            runner.get_workload("no-such-workload", get_machine("tiny"), 10)
    for owner, attr, original in before.values():
        assert vars(owner)[attr] is original
    assert ResultsStore.export_csv([{"a": 1}]) == "a\n1\n"  # staticmethod back
    [span] = recorder.spans
    assert span.name == "get_workload" and span.end >= span.start
    assert span.result is None


def test_self_time_subtracts_only_direct_children():
    # root [0, 10] > a [1, 4], b [5, 9] > c [6, 7]
    spans = [Span("root", 0.0, None, 10.0), Span("a", 1.0, 0, 4.0),
             Span("b", 5.0, 0, 9.0), Span("c", 6.0, 2, 7.0)]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    assert sum(self_times(spans)) == spans[0].duration


def test_wrapped_calls_record_their_parent(tmp_path):
    from repro.results.store import ResultsStore

    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))
    with ResultsStore(tmp_path / "s.sqlite") as store, recorder:
        store.aggregate("total_nj")  # calls self.rows() inside
    assert [(s.name, s.parent) for s in recorder.spans] == [
        ("ResultsStore.aggregate", None), ("ResultsStore.rows", 0)]
    assert self_times(recorder.spans) == [2.0, 1.0]


def test_smoke_run_emits_every_declared_metric_for_every_workload():
    from child import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in declared[kind]]
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--smoke", "--trace",
         "--seed", "1"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert time.monotonic() - t0 < 30
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    expected = {f"{w}.{m}" for w in WORKLOADS for m in names}
    assert set(line["metrics"]) == expected
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and metric["unit"]
