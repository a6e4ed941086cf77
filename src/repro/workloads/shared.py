"""Workload plumbing shared by every generator family.

Two things live here:

* **Block streams** — the array-shaped hand-off between the workload
  generators and the simulators.  A :class:`BlockStreamIterator` yields
  fixed-size :class:`BlockChunk`\\ s of NumPy arrays (core, block, write,
  gap) in the merged multi-core access order, so the vectorized content
  walk (:mod:`repro.sim.vector_content`) never touches per-reference
  Python objects.  :func:`iter_refs` is the thin per-reference adapter
  the sequential walk keeps for back-compat: same order, same values,
  one Python scalar tuple at a time.  :func:`merge_order` (the §IV
  virtual-time interleaving) is memoized per :class:`Workload` object —
  a walk and its checked-mode double never pay for the sort twice.

* **Multi-threaded (shared-data) workload construction** — the
  multiprogrammed workloads of §IV live in disjoint address spaces; a
  multi-*threaded* application shares data between cores, which
  exercises the coherence machinery (:mod:`repro.hierarchy.coherence`)
  and the claim that ReDHiP needs no protocol changes.
  :func:`build_shared_workload` takes any per-core private recipe and
  redirects a chosen fraction of each core's references into one region
  that all cores address identically.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple, Protocol, runtime_checkable

import numpy as np

from repro.energy.params import BLOCK_SIZE, MachineConfig
from repro.util.rng import make_rng
from repro.util.validation import ConfigError, check_range
from repro.workloads.spec import build_spec_trace
from repro.workloads.synthetic import Region
from repro.workloads.trace import Trace, Workload, per_core_address_space

__all__ = [
    "ArrayBlockStream",
    "BlockChunk",
    "BlockRef",
    "BlockStreamIterator",
    "DEFAULT_CHUNK_REFS",
    "NOMINAL_ACCESS_CYCLES",
    "SHARED_BASE",
    "build_shared_workload",
    "iter_refs",
    "merge_order",
    "trace_block_stream",
    "workload_block_stream",
]

#: Nominal memory cycles per access used only for core interleaving.
NOMINAL_ACCESS_CYCLES = 5.0

#: Default references per chunk.  Large enough that per-chunk NumPy fixed
#: costs (sort, gather) amortize to nothing, small enough that a chunk's
#: working arrays stay cache-resident.
DEFAULT_CHUNK_REFS = 1 << 16


# --------------------------------------------------------- block streams
@dataclass(frozen=True)
class BlockChunk:
    """One fixed-size slice of a merged access stream, as NumPy arrays.

    ``start`` is the global index (in the merged multi-core order) of the
    chunk's first reference; the arrays share that order.  ``core`` is
    int64 (merge bookkeeping), ``block`` uint64, ``write`` bool and
    ``gap`` uint32 — the exact dtypes the outcome stream pins.
    """

    start: int
    core: np.ndarray
    block: np.ndarray
    write: np.ndarray
    gap: np.ndarray

    @property
    def num_refs(self) -> int:
        return int(len(self.block))


class BlockRef(NamedTuple):
    """One reference of a block stream, as Python scalars (the per-ref
    adapter's unit; see :func:`iter_refs`)."""

    index: int
    core: int
    block: int
    write: bool
    gap: int


@runtime_checkable
class BlockStreamIterator(Protocol):
    """Anything that yields :class:`BlockChunk`\\ s in merged order.

    Implementations must be *restartable*: every ``iter()`` starts from
    the first chunk, chunk boundaries are determined solely by
    ``chunk_refs``, and concatenating the chunks of any two iterations
    (at any two chunk sizes) yields identical arrays.
    """

    @property
    def num_refs(self) -> int: ...

    @property
    def chunk_refs(self) -> int: ...

    def __iter__(self) -> Iterator[BlockChunk]: ...


class ArrayBlockStream:
    """A block stream over materialized merged arrays (the one concrete
    implementation every generator family funnels into — the families
    differ in how they *build* the arrays, not in how they chunk them)."""

    def __init__(
        self,
        core: np.ndarray,
        block: np.ndarray,
        write: np.ndarray,
        gap: np.ndarray,
        chunk_refs: int = DEFAULT_CHUNK_REFS,
    ) -> None:
        if not (len(core) == len(block) == len(write) == len(gap)):
            raise ConfigError("block stream: field length mismatch")
        if chunk_refs < 1:
            raise ConfigError(f"chunk_refs must be >= 1, got {chunk_refs}")
        self._core = core
        self._block = block
        self._write = write
        self._gap = gap
        self._chunk_refs = int(chunk_refs)

    @property
    def num_refs(self) -> int:
        return int(len(self._block))

    @property
    def chunk_refs(self) -> int:
        return self._chunk_refs

    def head(self, n: int) -> "ArrayBlockStream":
        """The stream truncated to its first ``n`` references."""
        return ArrayBlockStream(
            self._core[:n], self._block[:n], self._write[:n], self._gap[:n],
            chunk_refs=self._chunk_refs,
        )

    def __iter__(self) -> Iterator[BlockChunk]:
        step = self._chunk_refs
        for start in range(0, self.num_refs, step):
            stop = start + step
            yield BlockChunk(
                start=start,
                core=self._core[start:stop],
                block=self._block[start:stop],
                write=self._write[start:stop],
                gap=self._gap[start:stop],
            )


def iter_refs(stream: BlockStreamIterator) -> Iterator[BlockRef]:
    """Per-reference adapter over any block stream (back-compat path).

    Yields exactly the references the chunks carry, as Python scalars, in
    order — what the sequential content walk consumes.  ``tolist()`` per
    chunk keeps the conversion amortized (NumPy scalar iteration is
    several times slower than list iteration).
    """
    for chunk in stream:
        index = chunk.start
        for core, block, write, gap in zip(
            chunk.core.tolist(), chunk.block.tolist(),
            chunk.write.tolist(), chunk.gap.tolist(),
        ):
            yield BlockRef(index, core, block, write, gap)
            index += 1


# ------------------------------------------------- merged multi-core order
# Memoization is keyed by object identity: Workload is a frozen dataclass
# but not hashable (its traces hold ndarrays), and identity is exactly the
# lifetime the cache should have.  weakref.finalize evicts the entry when
# the workload is collected, so long sweeps do not accumulate dead arrays.
_MERGE_CACHE: dict[int, tuple] = {}
_MERGED_REFS_CACHE: dict[int, tuple] = {}


def _evict(cache: dict, key: int) -> None:
    cache.pop(key, None)


def merge_order(workload: Workload) -> "tuple[np.ndarray, np.ndarray]":
    """Global access order across cores by virtual time (memoized).

    Each core advances by its compute gaps (at its application CPI) plus a
    nominal per-access memory cost; accesses merge in virtual-time order.
    Returns ``(core_of_access, index_within_core)`` arrays.  Deterministic:
    ties break by core id (stable mergesort).  The result is cached on the
    workload object — callers must not mutate the returned arrays.
    """
    key = id(workload)
    cached = _MERGE_CACHE.get(key)
    if cached is not None:
        return cached
    vtimes = []
    cores = []
    idxs = []
    for core, trace in enumerate(workload.traces):
        cost = trace.gap.astype(np.float64) * trace.cpi + NOMINAL_ACCESS_CYCLES
        vt = np.cumsum(cost)
        vtimes.append(vt)
        cores.append(np.full(trace.num_refs, core, dtype=np.int64))
        idxs.append(np.arange(trace.num_refs, dtype=np.int64))
    all_vt = np.concatenate(vtimes)
    all_core = np.concatenate(cores)
    all_idx = np.concatenate(idxs)
    order = np.argsort(all_vt, kind="stable")
    result = (all_core[order], all_idx[order])
    _MERGE_CACHE[key] = result
    weakref.finalize(workload, _evict, _MERGE_CACHE, key)
    return result


def _merged_refs(workload: Workload) -> tuple:
    """Merged (core, block, write, gap) arrays for a workload (memoized).

    One vectorized gather over the per-core trace arrays, reused by every
    stream the workload hands out (vector walk, sequential walk, checked-
    mode double — all within one process lifetime of the object).
    """
    key = id(workload)
    cached = _MERGED_REFS_CACHE.get(key)
    if cached is not None:
        return cached
    merged_core, merged_idx = merge_order(workload)
    # Flatten per-core arrays and convert the (core, idx) pairs into flat
    # offsets so one fancy-index gather produces each merged field.
    starts = np.zeros(workload.cores, dtype=np.int64)
    counts = np.asarray([t.num_refs for t in workload.traces], dtype=np.int64)
    starts[1:] = np.cumsum(counts)[:-1]
    flat = starts[merged_core] + merged_idx
    result = (
        merged_core,
        np.concatenate([t.blocks for t in workload.traces])[flat],
        np.concatenate([t.write for t in workload.traces])[flat],
        np.concatenate([t.gap for t in workload.traces])[flat],
    )
    _MERGED_REFS_CACHE[key] = result
    weakref.finalize(workload, _evict, _MERGED_REFS_CACHE, key)
    return result


def workload_block_stream(
    workload: Workload,
    chunk_refs: int = DEFAULT_CHUNK_REFS,
    max_refs: "int | None" = None,
) -> ArrayBlockStream:
    """The workload's merged multi-core access stream, chunked.

    ``max_refs`` truncates the merged order (a truncated stream is a
    prefix of the full one — the merge is deterministic).
    """
    core, block, write, gap = _merged_refs(workload)
    stream = ArrayBlockStream(core, block, write, gap, chunk_refs=chunk_refs)
    if max_refs is not None:
        stream = stream.head(max_refs)
    return stream


def trace_block_stream(
    trace: Trace, core: int = 0, chunk_refs: int = DEFAULT_CHUNK_REFS
) -> ArrayBlockStream:
    """A single trace as a block stream (its own program order)."""
    return ArrayBlockStream(
        np.full(trace.num_refs, core, dtype=np.int64),
        trace.blocks,
        trace.write,
        trace.gap,
        chunk_refs=chunk_refs,
    )


#: Base address of the shared region (above all per-process spaces).
SHARED_BASE = 1 << 45


def build_shared_workload(
    machine: MachineConfig,
    refs_per_core: int,
    seed: int = 1,
    shared_fraction: float = 0.3,
    shared_region: Region = Region(0.5, "SHARE"),
    shared_write_frac: float = 0.3,
    base_recipe: str = "milc",
) -> Workload:
    """A multi-threaded workload: per-core private traffic plus a shared
    random-access region touched by every core.

    ``shared_fraction`` of each core's references are redirected to random
    blocks of the shared region (think: a shared hash table or frontier
    under a work-stealing runtime).
    """
    check_range("shared_fraction", shared_fraction, 0.0, 1.0)
    region_bytes = shared_region.resolve(machine)
    blocks_in_region = max(1, region_bytes // BLOCK_SIZE)
    traces = []
    for core in range(machine.cores):
        private = per_core_address_space(
            build_spec_trace(base_recipe, machine, refs_per_core, seed + 31 * core),
            core, seed,
        )
        rng = make_rng(seed, f"shared-core{core}")
        positions = rng.random(refs_per_core) < shared_fraction
        count = int(positions.sum())
        addr = private.addr.copy()
        write = private.write.copy()
        picks = rng.integers(0, blocks_in_region, size=count, dtype=np.uint64)
        addr[positions] = np.uint64(SHARED_BASE) + picks * np.uint64(BLOCK_SIZE)
        write[positions] = rng.random(count) < shared_write_frac
        traces.append(replace(private, addr=addr, write=write,
                              name=f"{base_recipe}+shared"))
    return Workload(
        name=f"shared-{int(shared_fraction * 100)}",
        traces=tuple(traces),
        meta={"shared_fraction": shared_fraction, "base": base_recipe},
    )
