"""Tests for the trace format, persistence, scaling and replay."""

import math
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.topology.grid import ChipletGrid
from repro.traffic.hpc import embed_ranks
from repro.traffic.trace import Trace, TraceRecord, TraceWorkload


def sample_trace():
    return Trace(
        [
            TraceRecord(10, 0, 1, 4),
            TraceRecord(0, 2, 3, 1, "coherence", 1, False),
            TraceRecord(5, 1, 2, 9),
        ],
        name="sample",
    )


def test_records_sorted_by_cycle():
    trace = sample_trace()
    assert [r.cycle for r in trace.records] == [0, 5, 10]


def test_equal_cycle_ties_keep_the_field_order():
    """The key-based sort orders ties exactly as ``TraceRecord.__lt__`` does:
    by the remaining fields in declaration order, equal records stable."""
    tied = [
        TraceRecord(4, 2, 1, 8, "data"),
        TraceRecord(4, 2, 1, 8, "bulk"),
        TraceRecord(4, 2, 0, 8),
        TraceRecord(4, 1, 3, 2, "data", 1),
        TraceRecord(4, 1, 3, 2, "data", 0, False),
        TraceRecord(4, 1, 3, 2),
        TraceRecord(3, 3, 0, 1),
        TraceRecord(4, 2, 1, 8, "bulk"),
    ]
    trace = Trace(tied)
    assert trace.records == sorted(tied)  # the dataclass-generated compare
    assert trace.records[0].cycle == 3
    # Scaling folds cycles 4..5 onto one cycle; the result is ordered the same way.
    folded = Trace([TraceRecord(5, 0, 1), TraceRecord(4, 2, 1), TraceRecord(4, 0, 2)])
    assert folded.scaled(2.0).records == [
        TraceRecord(2, 0, 1),
        TraceRecord(2, 0, 2),
        TraceRecord(2, 2, 1),
    ]
    # Replay hands out same-cycle records in that order.
    assert [(p.src, p.dst) for p in TraceWorkload(folded.scaled(2.0)).step(2)] == [
        (0, 1),
        (0, 2),
        (2, 1),
    ]


def test_record_validation():
    with pytest.raises(ValueError):
        TraceRecord(-1, 0, 1)
    with pytest.raises(ValueError):
        TraceRecord(0, 0, 1, 0)
    with pytest.raises(ValueError):
        TraceRecord(0, 3, 3)


def test_duration_and_flits():
    trace = sample_trace()
    assert trace.duration == 11
    assert trace.total_flits == 14
    assert len(trace) == 3


def test_offered_load():
    trace = sample_trace()
    assert trace.offered_load(n_nodes=4) == pytest.approx(14 / (11 * 4))
    assert Trace([]).offered_load(4) == 0.0


def test_time_scaling_compresses():
    trace = sample_trace()
    fast = trace.scaled(2.0)
    assert [r.cycle for r in fast.records] == [0, 2, 5]
    assert fast.total_flits == trace.total_flits
    # double the rate => roughly double the offered load
    assert fast.offered_load(4) > trace.offered_load(4)


def test_time_scaling_dilates():
    trace = sample_trace()
    slow = trace.scaled(0.5)
    assert [r.cycle for r in slow.records] == [0, 10, 20]


def test_time_scale_validation():
    """A scale must be finite and positive (``inf`` used to put every row
    at cycle 0; ``nan`` failed on a wrapped negative cycle)."""
    for time_scale in (0, -1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=rf"time_scale must be finite and > 0, got {time_scale!r}"):
            sample_trace().scaled(time_scale)


def test_a_scale_whose_cycles_overflow_the_column_is_rejected_by_name():
    for time_scale in (1e-300, 1e-18):
        with pytest.raises(ValueError, match=rf"time_scale {time_scale!r} moves cycle 10 .* int64"):
            sample_trace().scaled(time_scale)
    # The column holds cycles below 2**63, exactly.
    assert Trace([TraceRecord(2**61, 0, 1)]).scaled(0.5).duration == 2**62 + 1
    with pytest.raises(ValueError, match=r"time_scale 0\.5 moves cycle 4611686018427387904"):
        Trace([TraceRecord(2**62, 0, 1)]).scaled(0.5)


def test_dilation_shares_the_unchanged_columns():
    """A scale <= 1 keeps the row order, so only the cycle column is new."""
    trace = sample_trace()
    slow = trace.scaled(0.5)
    assert slow.src is trace.src and slow.msg_class is trace.msg_class
    assert trace.scaled(2.0).src is not trace.src  # compression re-sorts


def test_save_load_roundtrip(tmp_path):
    trace = sample_trace()
    path = tmp_path / "t.csv"
    trace.save(path)
    loaded = Trace.load(path)
    assert loaded.records == trace.records
    assert loaded.name == "t"


def test_load_rejects_non_trace(tmp_path):
    path = tmp_path / "bogus.csv"
    path.write_text("hello\n1,2\n")
    with pytest.raises(ValueError):
        Trace.load(path)


def test_workload_injects_at_trace_time():
    trace = sample_trace()
    workload = TraceWorkload(trace)
    by_cycle = {}
    for now in range(12):
        packets = list(workload.step(now))
        if packets:
            by_cycle[now] = packets
    assert set(by_cycle) == {0, 5, 10}
    assert by_cycle[0][0].msg_class == "coherence"
    assert by_cycle[0][0].priority == 1
    assert not by_cycle[0][0].ordered
    assert workload.done(11)


def test_workload_catches_up_after_gap():
    """Records are never lost even if step() is first called late."""
    workload = TraceWorkload(sample_trace())
    packets = list(workload.step(7))
    assert len(packets) == 2  # cycles 0 and 5
    assert packets[0].create_cycle == 0  # creation keeps the trace time


# -- the columnar store against row-wise references ---------------------------
# Names chosen so alphabetical (= code) order differs from insertion order,
# with an upper-case and an empty name among them.
CLASS_NAMES = ["data", "bulk", "coherence", "Zeta", "ack", ""]
N_RANKS = 12


@st.composite
def record_lists(draw):
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, 6) | st.integers(0, 10**9),  # many duplicate cycles
                st.integers(0, N_RANKS - 1),
                st.integers(1, N_RANKS - 1),  # dst offset, so src != dst
                st.integers(1, 20),
                st.sampled_from(CLASS_NAMES),
                st.integers(-2, 3),
                st.booleans(),
            ),
            max_size=30,
        )
    )
    return [
        TraceRecord(cycle, src, (src + step) % N_RANKS, length, name, priority, ordered)
        for cycle, src, step, length, name, priority, ordered in rows
    ]


def scaled_rowwise(records, time_scale):
    return sorted(
        TraceRecord(
            int(r.cycle / time_scale), r.src, r.dst, r.length, r.msg_class, r.priority, r.ordered
        )
        for r in records
    )


def embed_rowwise(records, grid, core_only):
    nodes = grid.core_nodes() if core_only else list(range(grid.n_nodes))
    n_ranks = max((max(r.src, r.dst) for r in records), default=-1) + 1
    out = []
    for r in records:
        src = nodes[r.src * len(nodes) // max(n_ranks, 1) % len(nodes)]
        dst = nodes[r.dst * len(nodes) // max(n_ranks, 1) % len(nodes)]
        if src != dst:
            out.append(
                TraceRecord(r.cycle, src, dst, r.length, r.msg_class, r.priority, r.ordered)
            )
    return sorted(out)


@given(record_lists())
def test_columns_hold_the_rows_in_record_order(records):
    trace = Trace(records, name="t")
    assert trace.records == sorted(records)
    assert list(trace) == trace.records and len(trace) == len(records)
    assert list(trace.classes) == sorted({r.msg_class for r in records})
    assert trace.total_flits == sum(r.length for r in records)
    assert trace.duration == max((r.cycle for r in records), default=-1) + 1
    assert trace == Trace(reversed(records), name="t")
    assert trace != Trace(records, name="other")


@given(record_lists())
def test_scaled_matches_the_rowwise_reference(records):
    trace = Trace(records, name="t")
    for time_scale in (0.25, 0.5, 1, 3, 7.5):
        scaled = trace.scaled(time_scale)
        assert scaled.records == scaled_rowwise(records, time_scale)
        assert scaled.name == f"t@x{time_scale:g}"


@given(record_lists(), st.booleans())
def test_embed_ranks_matches_the_rowwise_reference(records, core_only):
    # 2x1 chiplets of 3x3 nodes: 18 nodes, 2 core nodes -> most pairs collapse.
    grid = ChipletGrid(2, 1, 3, 3)
    embedded = embed_ranks(Trace(records, name="t"), grid, core_only=core_only)
    assert embedded.records == embed_rowwise(records, grid, core_only)
    assert embedded.name == "t-embedded"
    # A class that lost all its rows leaves the name table too.
    assert list(embedded.classes) == sorted({r.msg_class for r in embedded.records})


@given(record_lists())
def test_csv_roundtrip_property(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("trace") / "t.csv"
    trace = Trace(records, name="t")
    trace.save(path)
    assert Trace.load(path) == trace


def test_from_columns_equals_the_record_constructor():
    records = [TraceRecord(7, 0, 1, 3, "data"), TraceRecord(2, 4, 0, 3, "ack")]
    columns = Trace.from_columns(
        [7, 2], array("i", [0, 4]), (1, 0), 3, ["data", "ack"], name="t"
    )
    assert columns == Trace(records, name="t")
    assert columns.cycle.typecode == "q"
    assert columns.src.typecode == columns.dst.typecode == "i"
    assert columns.length.typecode == columns.priority.typecode == "i"
    assert columns.msg_class.typecode == columns.ordered.typecode == "B"
    assert Trace.from_columns([], [], []) == Trace([])
    with pytest.raises(ValueError, match="column dst has 1 rows, the cycle column 2"):
        Trace.from_columns([7, 2], [0, 4], [1])
    with pytest.raises(ValueError, match="column src: .*"):
        Trace.from_columns([7], [2**40], [1])


def test_saved_file_bytes_are_pinned(tmp_path):
    path = tmp_path / "sample.csv"
    sample_trace().save(path)
    assert path.read_bytes() == (
        b"cycle,src,dst,length,msg_class,priority,ordered\n"
        b"0,2,3,1,coherence,1,0\n"
        b"5,1,2,9,data,0,1\n"
        b"10,0,1,4,data,0,1\n"
    )


HEADER = "cycle,src,dst,length,msg_class,priority,ordered\n"


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "edited.csv"
    path.write_text(HEADER + "\n5,1,2,9,data,0,1\n   \n0,2,3,1,coherence,1,0\n\n")
    assert Trace.load(path).records == sample_trace().records[:2]


@pytest.mark.parametrize(
    "line, complaint",
    [
        ("5,3", "expected 7 fields"),
        ("5,3,x,1,data,0,1", "dst must be an integer, got 'x'"),
        ("5,3,3,1,data,0,1", "src and dst must differ"),
        ("-5,3,4,1,data,0,1", "cycle must be >= 0, got -5"),
        ("5,3,4,0,data,0,1", "length must be >= 1, got 0"),
    ],
)
def test_load_names_the_file_line_and_field(tmp_path, line, complaint):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER + "0,1,2,1,data,0,1\n\n" + line + "\n")
    with pytest.raises(ValueError) as err:
        Trace.load(path)
    assert str(err.value).startswith(f"{path}:4: ")  # the blank line 3 counts
    assert complaint in str(err.value)


def test_from_columns_names_the_first_offending_row():
    with pytest.raises(ValueError, match=r"trace 'cols' row 1: length must be >= 1, got 0"):
        Trace.from_columns([0, 1, 2], [0, 1, 2], [1, 2, 2], [1, 0, 1], name="cols")
    with pytest.raises(ValueError, match="row 2: src and dst must differ, both are 2"):
        Trace.from_columns([0, 1, 2], [0, 1, 2], [1, 2, 2])
    with pytest.raises(TypeError, match="unknown trace columns"):
        sample_trace().with_columns("x", cycles=[1, 2, 3])


def test_embed_ranks_rejects_a_negative_rank():
    """A negative rank used to index the node table from the end: rank -1
    of a 4-rank trace landed on rank 3's node."""
    trace = Trace.from_columns([0, 1, 2], [0, 2, 3], [1, -1, 1], name="neg")
    with pytest.raises(ValueError, match=r"trace 'neg' row 1: rank -1 is negative"):
        embed_ranks(trace, ChipletGrid(2, 2, 2, 2))


def test_workload_converts_only_the_rows_it_injects():
    trace = sample_trace()
    workload = TraceWorkload(trace)
    assert workload.step(3) != [] and workload.step(4) == ()
    held = [v for v in vars(workload).values() if v is not trace]
    assert all(isinstance(v, int) for v in held)  # a cursor, no copy of the rows
    packet = workload.step(5)[0]
    assert [type(v) for v in (packet.src, packet.length, packet.create_cycle)] == [int] * 3
    assert type(packet.ordered) is bool and type(packet.msg_class) is str
