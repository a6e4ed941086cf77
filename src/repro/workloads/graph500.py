"""Graph500 BFS workload model (the paper's CombBLAS application).

The paper traces a Graph500 breadth-first search implemented with the
Combinatorial BLAS, run as 8 parallel processes.  We reproduce the memory
behaviour at the algorithm level: an actual level-synchronous BFS is run
over a synthetic random graph laid out in CSR form, and the address
sequence the traversal *would* issue is recorded:

* ``offsets[u]``/``offsets[u+1]`` reads per frontier vertex (near-sequential
  over a sorted frontier);
* a sequential burst of ``targets[...]`` reads per vertex's adjacency list;
* one random ``visited[v]`` read per edge (the cache-hostile part);
* sequential appends to the next frontier.

The emitted stream is blended with a hot compute component (CombBLAS does
real arithmetic between memory bursts) using the standard mixture
machinery, and each of the 8 processes gets its own graph partition
(distinct seed and address space), matching the MPI execution model.

Graph size is chosen relative to the machine so the CSR arrays span a few
multiples of the per-core LLC share — several gigabytes in the paper's
full-scale runs, a few megabytes on the scaled machine.
"""

from __future__ import annotations

import numpy as np

from repro.energy.params import MachineConfig
from repro.util.rng import make_rng
from repro.workloads.synthetic import Component, Region, assemble_mixture
from repro.workloads.trace import Trace

__all__ = ["bfs_reference_stream", "build_graph500_trace", "GRAPH500_CPI", "graph500_block_stream"]

GRAPH500_CPI = 3.0

#: Average out-degree of the synthetic graph (Graph500 uses 16).
AVG_DEGREE = 16


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` without its first-use import of ``numpy.ma``
    (~11 ms per process)."""
    values = np.sort(values)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def bfs_reference_stream(
    machine: MachineConfig, seed: int, max_refs: int
) -> tuple[np.ndarray, np.ndarray]:
    """Run a real BFS and return its (addr, write) reference stream.

    Addresses are relative to 0; the mixture assembler relocates them.
    """
    rng = make_rng(seed, "graph500")
    share = machine.llc.size // machine.cores
    # Size the vertex count so the targets array is ~4x the LLC share.
    n = max(1024, (4 * share) // (8 * AVG_DEGREE))
    degrees = rng.poisson(AVG_DEGREE, size=n).astype(np.int64)
    degrees[degrees < 1] = 1
    offsets = np.concatenate([[0], np.cumsum(degrees)])
    m = int(offsets[-1])
    targets = rng.integers(0, n, size=m, dtype=np.int64)

    # Memory layout of the three arrays plus the frontier buffers.
    base_offsets = 0
    base_targets = base_offsets + 8 * (n + 1)
    base_visited = base_targets + 8 * m
    base_frontier = base_visited + n

    visited = np.zeros(n, dtype=bool)
    source = int(rng.integers(0, n))
    visited[source] = True
    frontier = np.array([source], dtype=np.int64)

    addr_chunks: list[np.ndarray] = []
    write_chunks: list[np.ndarray] = []
    emitted = 0
    frontier_cursor = 0

    while len(frontier) and emitted < max_refs:
        frontier = np.sort(frontier)
        # Per-vertex offset reads (two 8-byte loads, near-sequential).
        off_addr = np.empty(2 * len(frontier), dtype=np.uint64)
        off_addr[0::2] = base_offsets + 8 * frontier.astype(np.uint64)
        off_addr[1::2] = base_offsets + 8 * (frontier.astype(np.uint64) + 1)

        # Edge expansion: adjacency reads interleaved with visited probes.
        starts = offsets[frontier]
        ends = offsets[frontier + 1]
        counts = ends - starts
        edge_idx = np.repeat(starts, counts) + _ragged_arange(counts)
        neigh = targets[edge_idx]
        adj_addr = base_targets + 8 * edge_idx.astype(np.uint64)
        vis_addr = base_visited + neigh.astype(np.uint64)
        pair = np.empty(2 * len(edge_idx), dtype=np.uint64)
        pair[0::2] = adj_addr
        pair[1::2] = vis_addr
        pair_write = np.zeros(2 * len(edge_idx), dtype=bool)

        # Discovered vertices: visited writes plus frontier appends.
        fresh_mask = ~visited[neigh]
        fresh = _sorted_unique(neigh[fresh_mask])
        visited[fresh] = True
        disc_addr = np.concatenate([
            base_visited + fresh.astype(np.uint64),
            base_frontier + 8 * (frontier_cursor + np.arange(len(fresh), dtype=np.uint64)),
        ])
        disc_write = np.ones(len(disc_addr), dtype=bool)
        frontier_cursor += len(fresh)

        addr_chunks.extend([off_addr, pair, disc_addr])
        write_chunks.extend(
            [np.zeros(len(off_addr), dtype=bool), pair_write, disc_write]
        )
        emitted += len(off_addr) + len(pair) + len(disc_addr)
        frontier = fresh

    addr = np.concatenate(addr_chunks) if addr_chunks else np.zeros(1, dtype=np.uint64)
    write = np.concatenate(write_chunks) if write_chunks else np.zeros(1, dtype=bool)
    return addr[:max_refs], write[:max_refs]


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(c)`` for each c in counts, vectorized."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ids = np.repeat(np.arange(len(counts)), counts)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return np.arange(total, dtype=np.int64) - starts[ids]


def build_graph500_trace(
    machine: MachineConfig, refs: int, seed: int, process_id: int
) -> Trace:
    """One process's trace: BFS stream blended with hot compute."""
    bfs_weight = 0.30
    addr, write = bfs_reference_stream(
        machine, seed + process_id, max_refs=max(1, int(refs * bfs_weight) + 1)
    )
    return assemble_mixture(
        name="blas",
        components=(
            Component("seq", 0.62, Region(0.3, "L1"), stride=8),
            Component("seq", 0.08, Region(0.6, "L2"), stride=8),
        ),
        refs=refs,
        machine=machine,
        seed=seed + 7919 * process_id,
        cpi=GRAPH500_CPI,
        extra_streams=((addr, write, bfs_weight),),
    )


def graph500_block_stream(
    machine: MachineConfig, refs: int, seed: int, process_id: int,
    chunk_refs: "int | None" = None,
):
    """Native chunked emitter: one BFS process as a NumPy block stream."""
    trace = build_graph500_trace(machine, refs, seed, process_id)
    return trace.block_stream(chunk_refs=chunk_refs)
