"""Synthetic HPC communication traces (DUMPI substitute).

The paper replays two NERSC Hopper DUMPI traces, each using 1024 MPI ranks
[1, 12]:

* **CNS** — a compressible Navier-Stokes solver: iterative 3D
  nearest-neighbour halo exchange plus periodic small allreduce phases;
  traffic is neighbour-dominated.
* **MOC** — a 3D method-of-characteristics transport code: angular sweeps
  create long-range, transpose-like exchange across the whole machine;
  traffic is long-range-dominated.

The original trace files are not bundled; these generators reproduce the
communication *structure* that the figures depend on (rank topology,
message sizes, neighbour vs long-range balance) deterministically from a
seed.  Ranks are embedded onto system nodes with
:func:`embed_ranks`; Fig 15 uses core (non-interface) nodes only.
"""

from __future__ import annotations

from array import array
from itertools import compress, repeat
from operator import add, ne
from typing import Sequence

from repro.topology.grid import ChipletGrid
from .rng import Stream
from .trace import Trace, TraceRecord

#: Bytes per flit (64-bit flits).
BYTES_PER_FLIT = 8


def _train_lengths(n_bytes: int, max_packet_flits: int = 16) -> list[int]:
    """Packet lengths (flits) of the train that carries one message."""
    flits = max(1, -(-n_bytes // BYTES_PER_FLIT))
    full, rest = divmod(flits, max_packet_flits)
    return [max_packet_flits] * full + ([rest] if rest else [])


def packetize(
    cycle: int,
    src: int,
    dst: int,
    n_bytes: int,
    *,
    max_packet_flits: int = 16,
    msg_class: str = "data",
    ordered: bool = True,
) -> list[TraceRecord]:
    """Split one message into packet records, one packet per cycle.

    Large MPI messages become trains of ``max_packet_flits``-flit packets
    injected on consecutive cycles (the source cannot produce faster than
    one packet per cycle anyway).
    """
    if src == dst:
        return []
    return [
        TraceRecord(cycle + offset, src, dst, length, msg_class, 0, ordered)
        for offset, length in enumerate(_train_lengths(n_bytes, max_packet_flits))
    ]


#: A batch of equal-size messages: (cycle, src, dst) per message and the byte count.
_Batch = tuple[Sequence[int], Sequence[int], Sequence[int], int]


def _to_trace(batches: list[_Batch], name: str) -> Trace:
    """Packetize message batches (as :func:`packetize` does one message)."""
    cycle, src, dst, length = array("q"), array("i"), array("i"), array("i")
    for starts, srcs, dsts, n_bytes in batches:
        remote = list(map(ne, srcs, dsts))  # a message to oneself never enters the network
        starts, srcs, dsts = (list(compress(c, remote)) for c in (starts, srcs, dsts))
        for offset, flits in enumerate(_train_lengths(n_bytes)):
            cycle.extend(map(add, starts, repeat(offset)))
            src.extend(srcs)
            dst.extend(dsts)
            length.extend(repeat(flits, len(srcs)))
    return Trace.from_columns(cycle, src, dst, length, msg_class="bulk", name=name)


def _rank_grid_shape(n_ranks: int) -> tuple[int, int, int]:
    """A near-cubic 3D factorization of the rank count."""
    best: tuple[int, int, int] | None = None
    for x in range(1, int(round(n_ranks ** (1 / 3))) + 2):
        if n_ranks % x:
            continue
        rest = n_ranks // x
        for y in range(x, int(rest**0.5) + 1):
            if rest % y:
                continue
            z = rest // y
            cand = (x, y, z)
            if best is None or (cand[2] - cand[0]) < (best[2] - best[0]):
                best = cand
    if best is None:
        best = (1, 1, n_ranks)
    return best


def generate_cns_trace(
    n_ranks: int = 1024,
    iterations: int = 20,
    *,
    halo_bytes: int = 512,
    allreduce_bytes: int = 64,
    allreduce_every: int = 4,
    iteration_gap: int = 2000,
    seed: int = 11,
) -> Trace:
    """Compressible Navier-Stokes: 3D halo exchange + periodic allreduce."""
    if n_ranks < 2:
        raise ValueError("need at least two ranks")
    rx, ry, rz = _rank_grid_shape(n_ranks)
    rng = Stream(seed)
    ranks = range(n_ranks)
    # Halo partners: the six face neighbours that exist, the same every iteration.
    halo_src: list[int] = []
    halo_dst: list[int] = []
    for coord, size, stride in (
        ([r % rx for r in ranks], rx, 1),
        ([r // rx % ry for r in ranks], ry, rx),
        ([r // (rx * ry) for r in ranks], rz, rx * ry),
    ):
        for step in (1, -1):
            inside = [r for r in ranks if 0 <= coord[r] + step < size]
            halo_src += inside
            halo_dst += (r + step * stride for r in inside)
    batches: list[_Batch] = []
    for it in range(iterations):
        base = it * iteration_gap
        jitter = [base + rng.integers(8) for _ in ranks]  # one draw per rank, in rank order
        batches.append((list(map(jitter.__getitem__, halo_src)), halo_src, halo_dst, halo_bytes))
        if it % allreduce_every == allreduce_every - 1:
            # Recursive-doubling allreduce, 4 cycles of pipelining per stage.
            t, stage = base + iteration_gap // 2, 1
            while stage < n_ranks:
                src = [r for r in ranks if r ^ stage < n_ranks]
                batches.append(([t] * len(src), src, [r ^ stage for r in src], allreduce_bytes))
                stage <<= 1
                t += 4
    return _to_trace(batches, name="hpc-cns")


def generate_moc_trace(
    n_ranks: int = 1024,
    iterations: int = 12,
    *,
    sweep_bytes: int = 256,
    partners_per_sweep: int = 4,
    iteration_gap: int = 1200,
    seed: int = 13,
) -> Trace:
    """3D method of characteristics: long-range angular-sweep exchange.

    Each sweep sends medium messages to strided partners across the whole
    rank space (``rank ^ 2^k`` and a transpose partner), modelling the
    characteristic lines crossing the domain.
    """
    if n_ranks < 2:
        raise ValueError("need at least two ranks")
    rng = Stream(seed)
    bits = max(1, (n_ranks - 1).bit_length())
    ranks = range(n_ranks)
    # transpose-like partner: bit-reversed rank
    reversed_rank = [int(f"{r:0{bits}b}"[::-1], 2) % n_ranks for r in ranks]
    batches: list[_Batch] = []
    for it in range(iterations):
        strides = rng.choice(bits, min(partners_per_sweep, bits))
        start = [it * iteration_gap + rng.integers(16) for _ in ranks]  # per-rank jitter
        for k in strides:
            batches.append((start, ranks, [(r ^ (1 << k)) % n_ranks for r in ranks], sweep_bytes))
        batches.append(([t + 8 for t in start], ranks, reversed_rank, sweep_bytes))
    return _to_trace(batches, name="hpc-moc")


def embed_ranks(
    trace: Trace, grid: ChipletGrid, *, core_only: bool = False
) -> Trace:
    """Map rank-indexed records onto system node ids.

    Ranks are spread evenly over the chosen node population (all nodes, or
    core nodes only for Fig 15).  Messages whose endpoints land on the
    same node become local and are dropped.  A negative rank is an error.
    """
    nodes = grid.core_nodes() if core_only else range(grid.n_nodes)
    if not len(nodes):
        raise ValueError("grid has no eligible nodes for embedding")
    if len(trace) and min(min(trace.src), min(trace.dst)) < 0:
        row, rank = next(
            (row, min(src, dst))
            for row, (src, dst) in enumerate(zip(trace.src, trace.dst))
            if src < 0 or dst < 0
        )
        raise ValueError(f"trace {trace.name!r} row {row}: rank {rank} is negative")
    n_ranks = max(max(trace.src), max(trace.dst)) + 1 if len(trace) else 0
    node_of_rank = [nodes[rank * len(nodes) // n_ranks] for rank in range(n_ranks)]
    src = array("i", map(node_of_rank.__getitem__, trace.src))
    dst = array("i", map(node_of_rank.__getitem__, trace.dst))
    # Ranks on distinct, ascending nodes keep the rows in record order.
    return trace._derived(
        f"{trace.name}-embedded",
        keep=list(map(ne, src, dst)),
        in_order=all(map(int.__lt__, node_of_rank, node_of_rank[1:])),
        src=src,
        dst=dst,
    )
