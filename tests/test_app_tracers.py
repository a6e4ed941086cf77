"""The algorithm-level tracers: Graph500 BFS and PMF-SGD."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro
from repro.energy.params import get_machine
from repro.workloads.graph500 import bfs_reference_stream, build_graph500_trace
from repro.workloads.pmf import ROW_BYTES, build_pmf_trace, sgd_reference_stream


def test_bfs_stream_shape_and_determinism():
    m = get_machine("tiny")
    a1, w1 = bfs_reference_stream(m, seed=5, max_refs=3000)
    a2, w2 = bfs_reference_stream(m, seed=5, max_refs=3000)
    assert len(a1) <= 3000 and len(a1) == len(w1)
    assert (a1 == a2).all() and (w1 == w2).all()
    a3, _ = bfs_reference_stream(m, seed=6, max_refs=3000)
    assert len(a3) == 0 or (a1[: len(a3)] != a3[: len(a1)]).any()


def test_bfs_stream_contains_reads_and_writes():
    m = get_machine("tiny")
    addr, write = bfs_reference_stream(m, seed=1, max_refs=5000)
    assert write.any() and (~write).any()
    assert addr.dtype == np.uint64


def test_bfs_visits_are_irregular():
    """The visited-bitmap probes are the cache-hostile part: consecutive
    BFS addresses must not be monotonically sequential overall."""
    m = get_machine("tiny")
    addr, _ = bfs_reference_stream(m, seed=1, max_refs=5000)
    diffs = np.diff(addr.astype(np.int64))
    assert (diffs < 0).mean() > 0.1


def test_graph500_trace_builds():
    m = get_machine("tiny")
    t = build_graph500_trace(m, refs=2000, seed=3, process_id=0)
    t.validate()
    assert t.num_refs == 2000
    assert t.name == "blas"
    other = build_graph500_trace(m, refs=2000, seed=3, process_id=1)
    assert (t.addr != other.addr).any()  # distinct per-process graphs


def test_blas_build_does_not_import_numpy_ma():
    """``np.unique`` imports ``numpy.ma`` on first use (~11 ms per
    process, paid inside every cold figure that builds ``blas``); the BFS
    tracer dedups its frontier without it."""
    code = (
        "import sys\n"
        "from repro.energy.params import get_machine\n"
        "from repro.workloads import get_workload\n"
        "get_workload('blas', get_machine('tiny'), 2000, 1)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_sgd_stream_pattern():
    m = get_machine("tiny")
    addr, write = sgd_reference_stream(m, seed=2, max_refs=9 * 50)
    assert len(addr) == 9 * 50
    pat = addr.reshape(50, 9)
    wr = write.reshape(50, 9)
    # Reads first (rating + U + V), then the four row writes.
    assert not wr[:, :5].any()
    assert wr[:, 5:].all()
    # The write-back addresses equal the read addresses of the same rows.
    assert (pat[:, 5] == pat[:, 1]).all()
    assert (pat[:, 8] == pat[:, 4]).all()
    # Factor rows are two consecutive cache lines.
    assert ((pat[:, 2] - pat[:, 1]) == 64).all()


def test_sgd_rating_stream_is_sequential():
    m = get_machine("tiny")
    addr, _ = sgd_reference_stream(m, seed=2, max_refs=9 * 100)
    ratings = addr.reshape(-1, 9)[:, 0].astype(np.int64)
    assert (np.diff(ratings) == 16).all()


def test_pmf_trace_builds():
    m = get_machine("tiny")
    t = build_pmf_trace(m, refs=1500, seed=4, process_id=2)
    t.validate()
    assert t.num_refs == 1500
    assert t.name == "pmf"
    assert ROW_BYTES == 128  # 16 doubles = 2 cache lines
