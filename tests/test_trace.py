"""Tests for the trace format, persistence, scaling and replay."""

import pytest

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
    with pytest.raises(ValueError):
        sample_trace().scaled(0)


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
