"""Telemetry layer: null-object fast path, span export, cross-process
merge equivalence, manifest schema stability, and the stats/trace CLI.

The load-bearing properties pinned here:

* disabled telemetry is the *default* and costs one attribute check —
  no session is created, ``span()`` hands back one shared null object,
  and nothing is recorded anywhere;
* span nesting (depth/parent) survives the export round trip into
  Chrome/Perfetto ``trace_event`` JSON;
* a pooled grid merges worker snapshots into the same aggregate
  counters an inline run produces (parallel ≡ serial);
* the ``run_manifest.json`` shape is pinned by a golden file — changing
  it silently is a test failure, changing it deliberately means bumping
  :data:`MANIFEST_SCHEMA_VERSION` and regenerating the golden.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import telemetry
from repro.sim.config import SimConfig
from repro.sim.runner import ExperimentRunner
from repro.telemetry import manifest as tmanifest
from repro.telemetry.registry import MetricsRegistry, metric_key
from repro.telemetry.spans import Tracer, chrome_trace
from repro.workloads import PAPER_WORKLOADS

GOLDEN = Path(__file__).parent / "golden" / "manifest_schema.json"


@pytest.fixture(autouse=True)
def _isolated_session():
    """No test inherits (or leaks) a process-global telemetry session."""
    telemetry.stop()
    yield
    telemetry.stop()


# --------------------------------------------------------------- disabled
class TestDisabledFastPath:
    def test_span_is_shared_null_object(self):
        assert telemetry.active() is None
        s1 = telemetry.span("stage", tag=1)
        s2 = telemetry.span("other")
        assert s1 is s2 is telemetry.NULL_SPAN
        with s1 as inner:  # usable as a context manager, still a no-op
            inner.tag(path="vector")

    def test_recording_helpers_are_noops(self):
        telemetry.count("x")
        telemetry.gauge("y", 3.0)
        telemetry.observe("z", 0.5)
        telemetry.event("warned", detail="nothing listens")
        with telemetry.timer("t"):
            pass
        telemetry.merge_snapshot({"metrics": {"counters": {"x": 9}}})
        assert telemetry.active() is None

    def test_runner_does_not_autostart_without_intent(self, tiny_config,
                                                      monkeypatch):
        monkeypatch.delenv(telemetry.TELEMETRY_ENV, raising=False)
        runner = ExperimentRunner(tiny_config)
        runner.stream(PAPER_WORKLOADS[0])
        assert telemetry.active() is None

    def test_enabled_reads_config_and_env(self, tiny_config, monkeypatch):
        monkeypatch.delenv(telemetry.TELEMETRY_ENV, raising=False)
        assert not telemetry.enabled(tiny_config)
        assert telemetry.enabled(SimConfig(
            machine=tiny_config.machine, refs_per_core=1000, telemetry=True))
        monkeypatch.setenv(telemetry.TELEMETRY_ENV, "1")
        assert telemetry.enabled(tiny_config)
        monkeypatch.setenv(telemetry.TELEMETRY_ENV, "off")
        assert not telemetry.enabled(tiny_config)

    def test_telemetry_flag_outside_cache_key(self, tiny_config):
        on = SimConfig(machine=tiny_config.machine,
                       refs_per_core=tiny_config.refs_per_core,
                       seed=tiny_config.seed, telemetry=True)
        assert on.cache_key() == tiny_config.cache_key()


# ------------------------------------------------------------------- spans
class TestSpans:
    def test_nesting_depth_and_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("mid", k="v"):
                with tracer.span("inner"):
                    pass
            with tracer.span("sibling"):
                pass
        recs = {r.name: r for r in tracer.records}
        assert recs["outer"].depth == 0 and recs["outer"].parent == -1
        assert recs["mid"].depth == 1 and recs["mid"].parent == recs["outer"].index
        assert recs["inner"].depth == 2 and recs["inner"].parent == recs["mid"].index
        assert recs["sibling"].parent == recs["outer"].index
        assert all(r.duration_s >= 0 for r in tracer.records)

    def test_stage_totals_self_time(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        totals = tracer.stage_totals()
        outer, inner = totals["outer"], totals["inner"]
        assert outer["count"] == inner["count"] == 1
        assert outer["self_s"] == pytest.approx(
            outer["total_s"] - inner["total_s"])

    def test_chrome_trace_roundtrip(self):
        tracer = Tracer()
        with tracer.span("a", scheme="redhip"):
            with tracer.span("b"):
                pass
        doc = chrome_trace(tracer.to_dicts(), label="unit")
        body = json.loads(json.dumps(doc))  # JSON-serialisable end to end
        events = body["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert meta and complete
        by_name = {e["name"]: e for e in complete}
        assert by_name["a"]["args"] == {"scheme": "redhip"}
        # b nests inside a on the same timeline, in microseconds.
        assert by_name["a"]["ts"] <= by_name["b"]["ts"]
        assert (by_name["b"]["ts"] + by_name["b"]["dur"]
                <= by_name["a"]["ts"] + by_name["a"]["dur"] + 1e-3)
        assert all(e["pid"] == complete[0]["pid"] for e in complete)


# ---------------------------------------------------------------- registry
class TestRegistry:
    def test_metric_key_tags_are_sorted(self):
        assert metric_key("n", {}) == "n"
        assert (metric_key("n", {"b": 2, "a": 1})
                == metric_key("n", {"a": 1, "b": 2})
                == "n{a=1,b=2}")

    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.count("hits")
        reg.count("hits", 2)
        reg.gauge("depth", 3)
        reg.gauge("depth", 4)
        reg.observe("lat", 1.0)
        reg.observe("lat", 3.0)
        snap = reg.snapshot()
        assert snap["counters"]["hits"] == 3
        assert snap["gauges"]["depth"] == 4  # last-wins
        h = snap["histograms"]["lat"]
        assert h["count"] == 2 and h["min"] == 1.0 and h["max"] == 3.0

    def test_merge_adds_counters_and_combines_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.count("walks", 2)
        b.count("walks", 3)
        a.observe("t", 1.0)
        b.observe("t", 5.0)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["walks"] == 5
        merged = snap["histograms"]["t"]
        assert merged["count"] == 2 and merged["mean"] == 3.0
        assert merged["min"] == 1.0 and merged["max"] == 5.0

    def test_histogram_percentiles_bound_the_tail(self):
        from repro.telemetry.registry import Histogram

        h = Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        # log buckets are ~12% wide: p50/p95 land within one bucket of
        # the exact ranks (50, 95) and never outside [min, max]
        assert h.percentile(0.50) == pytest.approx(50.0, rel=0.15)
        assert h.percentile(0.95) == pytest.approx(95.0, rel=0.15)
        assert h.min <= h.percentile(0.50) <= h.percentile(0.95) <= h.max
        d = h.to_dict()
        assert d["p50"] == h.percentile(0.50) and d["p95"] == h.percentile(0.95)
        assert sum(d["buckets"].values()) == 100

    def test_histogram_percentile_edge_cases(self):
        from repro.telemetry.registry import Histogram

        assert Histogram().percentile(0.5) == 0.0
        single = Histogram()
        single.observe(7.5)
        # min/max clamping makes a single-valued histogram exact
        assert single.percentile(0.5) == 7.5 == single.percentile(0.95)
        nonpos = Histogram()
        nonpos.observe(0.0)
        nonpos.observe(-2.0)
        assert nonpos.percentile(0.5) == -2.0   # underflow bucket -> min

    def test_histogram_merge_is_percentile_exact(self):
        """Worker snapshots merging into the parent must not distort the
        tail: bucket counts add, so the merged percentiles equal those of
        one registry that saw every observation — the parallel ≡ serial
        equivalence extended to histograms."""
        values = [0.01 * i for i in range(1, 200)]
        whole, a, b = (MetricsRegistry() for _ in range(3))
        for i, v in enumerate(values):
            whole.observe("t", v)
            (a if i % 2 else b).observe("t", v)
        a.merge(b.snapshot())
        merged = a.snapshot()["histograms"]["t"]
        single = whole.snapshot()["histograms"]["t"]
        assert merged["buckets"] == single["buckets"]
        assert merged["p50"] == single["p50"]
        assert merged["p95"] == single["p95"]
        assert merged["count"] == single["count"]
        assert merged["total"] == pytest.approx(single["total"])

    def test_histogram_merge_tolerates_pre_bucket_snapshots(self):
        from repro.telemetry.registry import Histogram

        h = Histogram()
        h.observe(1.0)
        # a snapshot from before log buckets existed: moments only
        h.merge({"count": 3, "total": 9.0, "min": 2.0, "max": 4.0})
        assert h.count == 4 and h.max == 4.0
        assert h.percentile(0.5) >= h.min       # still well-defined


# ------------------------------------------------- cross-process equivalence
class TestParallelEquivalence:
    #: counter families a grid must report identically, inline or pooled
    PREFIXES = ("content.", "workload.", "replay.")

    @classmethod
    def _run(cls, tmp_path, cells, workers):
        from repro.sweep import run_cells

        with telemetry.session(force=True, label="equiv") as sess:
            report = run_cells(cells, "equiv", tmp_path / f"w{workers}.sqlite",
                               workers=workers,
                               stream_cache=str(tmp_path / f"cache{workers}"))
            counters = dict(sess.registry.snapshot()["counters"])
            spans = {s["name"] for s in sess.tracer.to_dicts()}
        assert report.ok
        family = {k: v for k, v in counters.items()
                  if k.startswith(cls.PREFIXES)}
        return family, counters, spans

    def test_parallel_matches_serial(self, tmp_path):
        """Worker sessions merge into the parent: a pooled run reports the
        counters an inline run does, and the walks' spans are there."""
        from repro.sweep import SweepSpec

        cells = SweepSpec(name="equiv", machines=("tiny",),
                          workloads=tuple(PAPER_WORKLOADS[:2]),
                          schemes=("base", "redhip", "cbf"),
                          refs_per_core=1000).cells()
        inline, inline_all, _ = self._run(tmp_path, cells, workers=1)
        pooled, pooled_all, spans = self._run(tmp_path, cells, workers=2)
        assert inline["content.walks"] == 2
        assert pooled == inline
        assert "parallel.pools" not in inline_all
        assert pooled_all["parallel.pools"] == 1
        assert {"content_walk", "workload_build"} <= spans

    def test_worker_snapshot_merges_spans_and_events(self, tmp_path):
        """A traced shard's snapshot carries its spans, counters and events
        (what a pool worker of a traced parent returns), and merging it
        folds all three into the parent session."""
        from repro.sweep import SweepSpec
        from repro.sweep.scheduler import run_shard

        cells = SweepSpec(name="equiv", machines=("tiny",),
                          workloads=(PAPER_WORKLOADS[0],),
                          schemes=("base", "redhip"),
                          refs_per_core=500).cells()
        rows, failures, _stages, _handled, snapshot = run_shard(
            cells, [c.fingerprint() for c in cells], "equiv",
            str(tmp_path / "cache"), None, traced=True)
        assert len(rows) == len(cells) and not failures
        assert snapshot["metrics"]["counters"]["content.walks"] == 1
        assert snapshot["label"] == f"sweep-{PAPER_WORKLOADS[0]}"
        with telemetry.session(force=True, label="parent") as parent:
            parent.event("parent.marker")
            with parent.tracer.span("sweep"):
                telemetry.merge_snapshot(snapshot)
            names = [s["name"] for s in parent.tracer.to_dicts()]
            counters = parent.registry.snapshot()["counters"]
            events = list(parent.events)
        assert "content_walk" in names and "workload_build" in names
        assert counters["content.walks"] == 1
        assert events[0]["name"] == "parent.marker"
        assert events[1:] == snapshot["events"]


# ---------------------------------------------------------------- manifest
class TestManifest:
    @staticmethod
    def _session_with_work(tiny_machine):
        cfg = SimConfig(machine=tiny_machine, refs_per_core=500, seed=7)
        with telemetry.session(force=True, label="unit") as sess:
            ExperimentRunner(cfg).stream(PAPER_WORKLOADS[0])
            yielded = sess
        return cfg, yielded

    def test_schema_matches_golden(self):
        names = {int: "integer", float: "number", str: "string",
                 list: "array", dict: "object", type(None): "null"}

        def type_name(spec):
            if isinstance(spec, tuple):
                if set(spec) == {int, float}:
                    return "number"
                return "|".join(sorted(names[t] for t in spec))
            return names[spec]

        current = {k: type_name(v) for k, v in tmanifest._SCHEMA.items()}
        golden = json.loads(GOLDEN.read_text())
        assert current == golden, (
            "run_manifest.json shape changed: bump MANIFEST_SCHEMA_VERSION "
            "and regenerate tests/golden/manifest_schema.json"
        )

    def test_build_validate_write_load(self, tiny_machine, tmp_path):
        cfg, sess = self._session_with_work(tiny_machine)
        data = telemetry.build_manifest(sess, config=cfg, experiments=["x"])
        assert telemetry.validate_manifest(data) == []
        assert data["summary"]["content"]["walks"] == 1
        assert data["config"]["machine"] == "tiny"
        assert data["config"]["cache_key"] == list(cfg.cache_key())
        path = telemetry.write_manifest(tmp_path, sess, config=cfg)
        assert path.name == telemetry.MANIFEST_NAME
        loaded = telemetry.load_manifest(path)
        assert loaded["counters"] == data["counters"]
        assert "content_walk" in loaded["stages"]

    def test_load_rejects_corrupt(self, tiny_machine, tmp_path):
        cfg, sess = self._session_with_work(tiny_machine)
        path = telemetry.write_manifest(tmp_path, sess, config=cfg)
        data = json.loads(path.read_text())
        del data["stages"]
        data["schema_version"] = 999
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="schema_version"):
            telemetry.load_manifest(path)
        assert len(telemetry.validate_manifest(data)) >= 2
        assert telemetry.validate_manifest([]) != []


# --------------------------------------------------------------------- CLI
class TestCli:
    def test_run_stats_trace_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "results"
        assert main(["run", "fig6", "--machine", "tiny", "--refs", "1000",
                     "--telemetry", "--out", str(out)]) == 0
        manifest_path = out / telemetry.MANIFEST_NAME
        assert manifest_path.exists()
        assert telemetry.active() is None  # session scoped to the run

        assert main(["stats", str(manifest_path)]) == 0
        stats_out = capsys.readouterr().out
        assert "content_walk" in stats_out and "replay paths" in stats_out

        trace_path = tmp_path / "trace.json"
        assert main(["trace", str(manifest_path),
                     "-o", str(trace_path)]) == 0
        doc = json.loads(trace_path.read_text())
        assert any(e["ph"] == "X" and e["name"] == "experiment"
                   for e in doc["traceEvents"])

    def test_stats_counts_replay_plans(self, tmp_path, capsys):
        """study-recal replays every cadence of a workload from one plan
        per kind: one presence (ReDHiP and LevelPred), one LevelPred and
        one EHC plan built per workload, the other cells reuse them."""
        from repro.cli import main
        from repro.experiments.studies import STUDY_WORKLOADS

        out = tmp_path / "results"
        assert main(["run", "study-recal", "--machine", "tiny", "--refs", "1000",
                     "--telemetry", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["stats", str(out / telemetry.MANIFEST_NAME)]) == 0
        n = len(STUDY_WORKLOADS)
        assert (f"replay plans: built {n} ehc, {n} levelpred, {n} presence; "
                f"reused {3 * n} ehc, {3 * n} levelpred, {7 * n} presence"
                in capsys.readouterr().out)

    def test_stats_counts_code_tables(self, tmp_path, capsys, monkeypatch):
        """study-recal charges every evaluation from one code table per
        (kernel, flow, consults, skips): ReDHiP and Base (presence),
        LevelPred and EHC are built once, every other cell reuses them.
        The table memo is per process, so the test starts it empty."""
        from repro.cli import main
        from repro.experiments.studies import STUDY_WORKLOADS
        from repro.sim import charging

        monkeypatch.setattr(charging, "_TABLES", {})
        out = tmp_path / "results"
        assert main(["run", "study-recal", "--machine", "tiny", "--refs", "1000",
                     "--telemetry", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["stats", str(out / telemetry.MANIFEST_NAME)]) == 0
        n = len(STUDY_WORKLOADS)
        assert (f"code tables: built 1 ehc, 1 levelpred, 2 presence; "
                f"reused {4 * n - 1} ehc, {4 * n - 1} levelpred, "
                f"{5 * n - 2} presence" in capsys.readouterr().out)
        manifest = telemetry.load_manifest(out / telemetry.MANIFEST_NAME)
        assert manifest["summary"]["tables"]["built"] == {
            "ehc": 1, "levelpred": 1, "presence": 2}

    def test_stats_reports_lockstep(self, tmp_path, capsys):
        """Every fig6 walk is a vector walk; its lockstep counters reach
        the manifest's content block and the ``lockstep:`` line."""
        from repro.cli import main

        out = tmp_path / "results"
        assert main(["run", "fig6", "--machine", "tiny", "--refs", "3000",
                     "--telemetry", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["stats", str(out / telemetry.MANIFEST_NAME)]) == 0
        printed = capsys.readouterr().out
        content = telemetry.load_manifest(
            out / telemetry.MANIFEST_NAME)["summary"]["content"]
        assert content["vector"] == 11
        assert 11 <= content["classes"] <= 11 * 2
        assert content["template_refs"] > 0
        assert content["llc_pass_refs"] > 0
        assert content["switches"] <= content["vector"]
        assert (f"lockstep: {content['classes']:.0f} classes over 11 vector "
                f"walks, {content['template_refs']:.0f} template refs"
                in printed)

    def test_stats_missing_manifest_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["stats", str(tmp_path / "nope.json")]) != 0
        assert "manifest" in capsys.readouterr().err
