"""Synthetic access-pattern primitives and the mixture assembler.

Each SPEC benchmark in §IV is modelled as a *mixture* of primitive access
patterns (see :mod:`repro.workloads.spec` for the recipes).  The mixture
assembler draws, per reference, which component issues it — so components
interleave naturally at fine grain, as loop nests do — while each
component's internal address sequence stays coherent (streams stay
sequential, pointer chases stay chase-ordered).

Primitives (all vectorized; the pointer chase costs one Python loop over
the *region*, not over the references):

``seq``
    Circular sequential walk: ``stride``-byte steps wrapping at the region
    boundary.  Region <= L1 models a hot loop/stack; region >> LLC models a
    streaming sweep whose only hits are spatial (7/8 of 8-byte steps land
    in the line the previous step fetched).
``random``
    Uniformly random *block*-granular touches in the region — an
    irregular, unprefetchable pattern whose hit rate at a level is roughly
    capacity/region.
``chase``
    A pointer chase along a random permutation cycle: like ``random`` for
    the caches but with a deterministic repeating order, which matters for
    the prefetcher (it defeats stride detection) and for recalibration
    staleness studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.energy.params import BLOCK_SIZE, MachineConfig
from repro.util.rng import make_rng
from repro.util.validation import ConfigError, check_positive, check_range
from repro.workloads.trace import Trace

__all__ = ["Region", "Component", "assemble_mixture", "component_addresses",
           "mixture_block_stream"]

#: Spacing between component address spaces inside one trace.
COMPONENT_STRIDE = 1 << 32

#: Non-memory instructions per reference: uniform over [0, GAP_MAX).  The
#: paper traces ~1.5 G instructions per 500 M references; memory-bound SPEC
#: cores retire a further stretch of compute per reference once CPI is
#: folded in, and a mean of three keeps the compute/memory time split in
#: the regime the paper's speedups imply.
GAP_MAX = 7  # uniform over [0, 6] -> mean 3


@dataclass(frozen=True)
class Region:
    """A working-set size expressed relative to the target machine.

    ``base`` names a capacity: ``L1``/``L2``/``L3`` (private levels),
    ``LLC`` (the whole shared cache) or ``SHARE`` (the LLC divided by the
    core count — the capacity one program of a multiprogrammed mix can
    expect).  ``scale`` multiplies it.  Expressing regions this way keeps
    benchmark *personalities* portable between the paper and scaled
    machines.
    """

    scale: float
    base: str = "SHARE"

    def resolve(self, machine: MachineConfig) -> int:
        check_positive("region scale", self.scale)
        if self.base == "L1":
            size = machine.level(1).size
        elif self.base == "L2":
            size = machine.level(2).size
        elif self.base == "L3":
            size = machine.level(3).size
        elif self.base == "LLC":
            size = machine.llc.size
        elif self.base == "SHARE":
            size = machine.llc.size // machine.cores
        else:
            raise ConfigError(f"unknown region base {self.base!r}")
        nbytes = int(self.scale * size)
        # At least one cache line, block-aligned.
        return max(BLOCK_SIZE, (nbytes // BLOCK_SIZE) * BLOCK_SIZE)


@dataclass(frozen=True)
class Component:
    """One primitive pattern inside a benchmark mixture."""

    kind: str              # "seq" | "random" | "chase"
    weight: float          # fraction of the trace's references
    region: Region
    stride: int = 8        # byte stride for "seq"
    write_frac: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("seq", "random", "chase"):
            raise ConfigError(f"unknown component kind {self.kind!r}")
        check_range("weight", self.weight, 0.0, 1.0)
        check_range("write_frac", self.write_frac, 0.0, 1.0)
        check_positive("stride", self.stride)


def _component_base(ci: int, rng: np.random.Generator) -> int:
    """Base address for component ``ci``: its own 4 GiB arena, placed at a
    random page offset within it.

    The random page offset is load-bearing: if component bases were all
    aligned multiples of the arena size they would be congruent modulo
    every power-of-two index (cache sets, prediction-table bits-hash), so
    component k's n-th page would collide with every sibling component's
    n-th page — systematic aliasing no real heap layout exhibits.  A random
    page-granular start restores the independent placement real allocators
    produce.
    """
    return (ci + 1) * COMPONENT_STRIDE + int(rng.integers(0, 1 << 18)) * 4096


def component_addresses(
    comp: Component,
    count: int,
    machine: MachineConfig,
    rng: np.random.Generator,
    base: int,
) -> np.ndarray:
    """Generate ``count`` byte addresses for one component."""
    region = comp.region.resolve(machine)
    if count == 0:
        return np.empty(0, dtype=np.uint64)
    if comp.kind == "seq":
        steps = (np.arange(count, dtype=np.uint64) * np.uint64(comp.stride)) % np.uint64(region)
        return np.uint64(base) + steps
    blocks_in_region = max(1, region // BLOCK_SIZE)
    if comp.kind == "random":
        picks = rng.integers(0, blocks_in_region, size=count, dtype=np.uint64)
        return np.uint64(base) + picks * np.uint64(BLOCK_SIZE)
    # chase: walk the permutation cycle through block 0, stopping once
    # ``count`` blocks are in hand (a shorter cycle repeats below).
    perm = rng.permutation(blocks_in_region)
    cycle = [0]
    nxt = int(perm[0])
    while nxt != 0 and len(cycle) < count:
        cycle.append(nxt)
        nxt = int(perm[nxt])
    walk = np.resize(np.asarray(cycle, dtype=np.uint64), count)
    return np.uint64(base) + walk * np.uint64(BLOCK_SIZE)


def assemble_mixture(
    name: str,
    components: tuple[Component, ...],
    refs: int,
    machine: MachineConfig,
    seed: int,
    cpi: float = 1.0,
    extra_streams: tuple[tuple[np.ndarray, np.ndarray, float], ...] = (),
) -> Trace:
    """Interleave components into one trace.

    Per-reference component choice is i.i.d. with the component weights, so
    streams interleave at instruction grain.  ``extra_streams`` lets the
    algorithm-level tracers (BFS, SGD) inject a pre-computed
    ``(addr, write, weight)`` stream into the same mixture machinery.

    Each component occupies its own slice of the trace's address space and
    issues from its own small set of PCs (one per component — a loop body),
    which is what lets the stride prefetcher lock onto sequential
    components while irregular ones defeat it, as in real code.
    """
    check_positive("refs", refs)
    weights = [c.weight for c in components] + [w for (_, _, w) in extra_streams]
    if not weights:
        raise ConfigError(f"{name}: mixture needs at least one component")
    total_w = float(sum(weights))
    if not 0.999 <= total_w <= 1.001:
        raise ConfigError(f"{name}: component weights sum to {total_w}, expected 1.0")
    probs = np.asarray(weights, dtype=np.float64) / total_w

    rng = make_rng(seed, f"mixture-{name}")
    choice = rng.choice(len(probs), size=refs, p=probs)
    addr = np.zeros(refs, dtype=np.uint64)
    pc = np.zeros(refs, dtype=np.uint64)
    write = np.zeros(refs, dtype=bool)

    for ci, comp in enumerate(components):
        positions = np.nonzero(choice == ci)[0]
        count = len(positions)
        comp_rng = make_rng(seed, f"{name}-comp{ci}")
        base = _component_base(ci, comp_rng)
        addr[positions] = component_addresses(comp, count, machine, comp_rng, base)
        pc[positions] = np.uint64(0x400000 + ci * 0x100)
        if comp.write_frac > 0 and count:
            write[positions] = comp_rng.random(count) < comp.write_frac

    for si, (s_addr, s_write, _w) in enumerate(extra_streams):
        ci = len(components) + si
        positions = np.nonzero(choice == ci)[0]
        count = len(positions)
        if count > len(s_addr):
            # Recycle the injected stream if the mixture asks for more.
            reps = -(-count // len(s_addr))
            s_addr = np.tile(s_addr, reps)
            s_write = np.tile(s_write, reps)
        base = _component_base(ci, make_rng(seed, f"{name}-stream{si}"))
        addr[positions] = s_addr[:count] + np.uint64(base)
        write[positions] = s_write[:count]
        pc[positions] = np.uint64(0x500000 + si * 0x100)

    gap = rng.integers(0, GAP_MAX, size=refs, dtype=np.uint32)
    return Trace(name=name, pc=pc, addr=addr, write=write, gap=gap, cpi=cpi)


def mixture_block_stream(
    name: str,
    components: tuple[Component, ...],
    refs: int,
    machine: MachineConfig,
    seed: int,
    cpi: float = 1.0,
    extra_streams: tuple[tuple[np.ndarray, np.ndarray, float], ...] = (),
    chunk_refs: "int | None" = None,
):
    """Native chunked emitter: the mixture as a NumPy block stream.

    Same recipe, same arrays as :func:`assemble_mixture` — the stream is
    chunked views over the vectorized trace, never per-reference Python
    objects (see :mod:`repro.workloads.shared`).
    """
    trace = assemble_mixture(
        name, components, refs, machine, seed, cpi=cpi,
        extra_streams=extra_streams,
    )
    return trace.block_stream(chunk_refs=chunk_refs)
