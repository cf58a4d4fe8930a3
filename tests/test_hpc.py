"""Tests for the HPC (DUMPI-substitute) trace generators."""

import subprocess
import sys

import pytest

from repro.topology.grid import ChipletGrid
from repro.traffic.hpc import (
    embed_ranks,
    generate_cns_trace,
    generate_moc_trace,
    packetize,
)
from repro.traffic.trace import TraceWorkload

from .helpers import rows_sha256

GRID = ChipletGrid(4, 4, 4, 4)


def test_packetize_splits_large_messages():
    records = packetize(100, 3, 7, n_bytes=1000, max_packet_flits=16)
    # 1000 bytes = 125 flits -> 7x16 + 13.
    assert len(records) == 8
    assert sum(r.length for r in records) == 125
    assert all(r.length <= 16 for r in records)
    # packets of one message injected on consecutive cycles
    assert [r.cycle for r in records] == list(range(100, 108))


def test_packetize_drops_self_messages():
    assert packetize(0, 4, 4, 64) == []


def test_packetize_minimum_one_flit():
    records = packetize(0, 0, 1, n_bytes=1)
    assert len(records) == 1
    assert records[0].length == 1


def test_cns_structure_neighbour_dominated():
    trace = generate_cns_trace(n_ranks=64, iterations=3)
    assert len(trace) > 0
    # rank grid for 64 ranks is 4x4x4: halo partners differ by 1, 4 or 16.
    strides = {abs(r.dst - r.src) for r in trace.records if r.msg_class == "bulk"}
    # allreduce adds power-of-two partners, but halo strides dominate.
    from collections import Counter

    counts = Counter(abs(r.dst - r.src) for r in trace.records)
    top = {s for s, _ in counts.most_common(3)}
    assert top <= {1, 4, 16}


def test_moc_structure_long_range():
    trace = generate_moc_trace(n_ranks=64, iterations=2)
    distances = [abs(r.dst - r.src) for r in trace.records]
    assert max(distances) > 16  # long-range exchange present


def test_rank_validation():
    with pytest.raises(ValueError):
        generate_cns_trace(n_ranks=1)
    with pytest.raises(ValueError):
        generate_moc_trace(n_ranks=1)


def test_zero_iterations_give_an_empty_trace():
    assert len(generate_cns_trace(8, 0)) == len(generate_moc_trace(8, 0)) == 0
    assert len(embed_ranks(generate_moc_trace(8, 0), GRID)) == 0


def test_traces_deterministic():
    a = generate_cns_trace(64, 2, seed=5)
    b = generate_cns_trace(64, 2, seed=5)
    assert a.records == b.records


def test_embed_ranks_all_nodes():
    trace = generate_cns_trace(64, 2)
    embedded = embed_ranks(trace, GRID)
    assert embedded.records
    for record in embedded.records:
        assert 0 <= record.src < GRID.n_nodes
        assert 0 <= record.dst < GRID.n_nodes
        assert record.src != record.dst


def test_embed_ranks_core_only():
    trace = generate_moc_trace(16, 2)
    embedded = embed_ranks(trace, GRID, core_only=True)
    core = set(GRID.core_nodes())
    for record in embedded.records:
        assert record.src in core
        assert record.dst in core


def test_embed_spreads_over_distinct_nodes():
    trace = generate_cns_trace(64, 1)
    embedded = embed_ranks(trace, GRID)
    endpoints = {r.src for r in embedded.records} | {r.dst for r in embedded.records}
    assert len(endpoints) >= 32


def test_cns_load_in_sane_range():
    """The generated offered load must be below network capacity."""
    trace = embed_ranks(generate_cns_trace(256, 5), ChipletGrid(4, 4, 4, 4))
    load = trace.offered_load(256)
    assert 0.01 < load < 1.0


def test_moc_load_in_sane_range():
    trace = embed_ranks(generate_moc_trace(256, 3), ChipletGrid(4, 4, 4, 4))
    load = trace.offered_load(256)
    assert 0.01 < load < 1.0


# -- pinned rows ---------------------------------------------------------------
# (records, sha256 over the rows), recorded with the row-at-a-time generators
# of the commit before traces became columnar: the vectorised jitter draws
# (one ``rng.integers(0, k, size=n_ranks)`` per iteration) must be the same
# random stream as the per-rank scalar draws they replaced.  The first four
# of each are Fig 13 / Fig 15 at tiny and small scale.
CNS_PINS = {
    (16, 3): (672, 'd796584e4c2d853cd7ae71a20b95195e771c31236737482b2ebaa4d6547da9d1'),
    (64, 3): (3456, '2fecdd1eaf89fa9d1c9dd71a19ffee46860409d1a9a59b9fae1169b38b325427'),
    (64, 5): (6144, '4fa94af184887f2fa76e1a2e05e5f19d0af5d4e2ef31a5eb4d6e77e5b2c9078a'),
    (256, 5): (27648, '04a4ef40183b9dbc86958ecdfe9e8341b8f4dce0581f4e054ac6272ae332c2a1'),
}
MOC_PINS = {
    (16, 2): (304, 'a6955502237166aeeb7b132767e08d201d5df6bcd9d807d1a3e881cee0b79e25'),
    (64, 2): (1248, 'a8ce55c63da53cae1f68d269b8dceeadaa91faa1b71976f790fd58dad8560a43'),
    (64, 3): (1872, '894023cdb44fdf954715e77e5623916ee93ec8ff457256fb36039d82559d8ae3'),
    (256, 3): (7584, '449a068fc2452a3d5602a1981363780dd6f0bf50b0d0cb842962c1bc0a96ba09'),
}
#: The repo benchmark's trace (``channel_moc_trace_256``, seed 1).
BENCH_MOC = dict(sweep_bytes=64, partners_per_sweep=10, seed=1)


@pytest.mark.parametrize("args, pin", CNS_PINS.items())
def test_cns_rows_are_pinned(args, pin):
    trace = generate_cns_trace(*args)
    assert (len(trace), rows_sha256(trace)) == pin


@pytest.mark.parametrize("args, pin", MOC_PINS.items())
def test_moc_rows_are_pinned(args, pin):
    trace = generate_moc_trace(*args)
    assert (len(trace), rows_sha256(trace)) == pin


def test_odd_rank_counts_are_pinned():
    """Rank counts that are no power of two or cube: grid edges, ``% n_ranks``
    wrap-around, bit-reversed partners that fall on the rank itself."""
    cns = generate_cns_trace(30, 5, seed=3, halo_bytes=200)
    assert (len(cns), rows_sha256(cns)) == (1322, 'a4036c6eb4561eb79d0b9c06a8d020bf51d0d123953876a753f85b5bd4b2f5ad')
    moc = generate_moc_trace(24, 2, seed=3)
    assert (len(moc), rows_sha256(moc)) == (456, '61e95b1546ae9d8e5ced9649cab7f1e3db26c1bffb378ebe7def259db293f84c')


def test_benchmark_trace_is_pinned():
    base = generate_moc_trace(1024, 3, **BENCH_MOC)
    assert (len(base), rows_sha256(base)) == (33696, 'e91328b4153285e4f32bd4f72afeb842c198181fabdc1314358aabfad26ab46b')
    trace = embed_ranks(base, GRID, core_only=True).scaled(0.5)
    assert trace.name == "hpc-moc-embedded@x0.5"
    assert (len(trace), trace.duration, trace.total_flits) == (21408, 4847, 171264)
    assert rows_sha256(trace) == 'b3f05b88352cc9081f74675ba18ac6dbc3c0eafe98851dfb12b7d2a3e085a3a8'


def test_paper_scale_setup_stays_small():
    """Scaling guard: Fig 15's trace set-up at paper scale (1024 ranks on
    64 chiplets of 7x7 nodes, 491,520 CNS records) plus its replay workload
    grows the resident set by under 80 MB (measured: 66 MB) — as lists of
    records it took 335 MB before the workload existed.  It runs in a fresh
    interpreter so the high-water mark is the set-up's own (``tracemalloc``
    would make it 15 times slower); the workload is a cursor into the
    columns, not a copy of the rows."""
    script = """
import resource, tracemalloc
from repro.topology.grid import ChipletGrid
from repro.traffic.hpc import embed_ranks, generate_cns_trace, generate_moc_trace
from repro.traffic.trace import TraceWorkload

def maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

grid = ChipletGrid(8, 8, 7, 7)
start = maxrss_kb()
bases = (
    embed_ranks(generate_cns_trace(1024, 20), grid, core_only=True),
    embed_ranks(generate_moc_trace(1024, 12), grid, core_only=True),
)
for base in bases:
    for time_scale in (0.25, 0.5, 1.0, 2.0, 4.0):
        trace = base.scaled(time_scale)
trace = bases[0].scaled(4.0)
tracemalloc.start()
workload = TraceWorkload(trace)
workload.step(0)
cursor, _ = tracemalloc.get_traced_memory()
print(len(bases[0]), (maxrss_kb() - start) * 1024, cursor)
"""
    done = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True, text=True)
    records, grown, cursor = map(int, done.stdout.split())
    assert records == 491_520
    assert grown < 80e6
    assert cursor < 64e3
