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

import numpy as np

from repro.topology.grid import ChipletGrid
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


#: A batch of equal-size messages: (cycle, src, dst) arrays and the byte count.
_Batch = tuple[np.ndarray, np.ndarray, np.ndarray, int]


def _to_trace(batches: list[_Batch], name: str) -> Trace:
    """Packetize message batches (as :func:`packetize` does one message)."""
    if not batches:
        return Trace(name=name)
    columns: tuple[list, ...] = ([], [], [], [])
    for cycle, src, dst, n_bytes in batches:
        remote = src != dst  # a message to oneself never enters the network
        lengths = np.array(_train_lengths(n_bytes), np.int32)
        columns[0].append((cycle[remote, None] + np.arange(len(lengths))).ravel())
        columns[1].append(np.repeat(src[remote], len(lengths)))
        columns[2].append(np.repeat(dst[remote], len(lengths)))
        columns[3].append(np.tile(lengths, int(remote.sum())))
    return Trace.from_columns(*map(np.concatenate, columns), msg_class="bulk", name=name)


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
    rng = np.random.default_rng(seed)
    ranks = np.arange(n_ranks, dtype=np.int32)
    x, y, z = ranks % rx, (ranks // rx) % ry, ranks // (rx * ry)
    # Halo partners: the six face neighbours that exist, the same every iteration.
    halo_src, halo_dst = [], []
    for coord, size, stride in ((x, rx, 1), (y, ry, rx), (z, rz, rx * ry)):
        for step in (1, -1):
            inside = (coord + step >= 0) & (coord + step < size)
            halo_src.append(ranks[inside])
            halo_dst.append(ranks[inside] + step * stride)
    halo_src, halo_dst = np.concatenate(halo_src), np.concatenate(halo_dst)
    batches: list[_Batch] = []
    for it in range(iterations):
        base = it * iteration_gap
        jitter = rng.integers(0, 8, size=n_ranks)  # one draw per rank, in rank order
        batches.append((base + jitter[halo_src], halo_src, halo_dst, halo_bytes))
        if it % allreduce_every == allreduce_every - 1:
            # Recursive-doubling allreduce, 4 cycles of pipelining per stage.
            t, stage = base + iteration_gap // 2, 1
            while stage < n_ranks:
                src = ranks[ranks ^ stage < n_ranks]
                batches.append((np.full(len(src), t), src, src ^ stage, allreduce_bytes))
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
    rng = np.random.default_rng(seed)
    bits = max(1, (n_ranks - 1).bit_length())
    ranks = np.arange(n_ranks, dtype=np.int32)
    # transpose-like partner: bit-reversed rank
    reversed_rank = np.zeros_like(ranks)
    for bit in range(bits):
        reversed_rank |= ((ranks >> bit) & 1) << (bits - 1 - bit)
    reversed_rank %= n_ranks
    batches: list[_Batch] = []
    for it in range(iterations):
        strides = rng.choice(bits, size=min(partners_per_sweep, bits), replace=False)
        start = it * iteration_gap + rng.integers(0, 16, size=n_ranks)  # per-rank jitter
        for k in strides:
            batches.append((start, ranks, (ranks ^ (1 << int(k))) % n_ranks, sweep_bytes))
        batches.append((start + 8, ranks, reversed_rank, sweep_bytes))
    return _to_trace(batches, name="hpc-moc")


def embed_ranks(
    trace: Trace, grid: ChipletGrid, *, core_only: bool = False
) -> Trace:
    """Map rank-indexed records onto system node ids.

    Ranks are spread evenly over the chosen node population (all nodes, or
    core nodes only for Fig 15).  Messages whose endpoints land on the
    same node become local and are dropped.
    """
    nodes = np.array(grid.core_nodes() if core_only else range(grid.n_nodes), np.int32)
    if not len(nodes):
        raise ValueError("grid has no eligible nodes for embedding")
    n_ranks = int(max(trace.src.max(), trace.dst.max())) + 1 if len(trace) else 0
    node_of_rank = nodes[np.arange(n_ranks) * len(nodes) // max(n_ranks, 1) % len(nodes)]
    src, dst = node_of_rank[trace.src], node_of_rank[trace.dst]
    return trace.with_columns(f"{trace.name}-embedded", src=src, dst=dst, keep=src != dst)
