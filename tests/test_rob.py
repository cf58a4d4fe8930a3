"""Tests for the reorder buffer and Eq (1) sizing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.rob import ReorderBuffer, RobOverflowError, rob_capacity
from repro.noc.flit import Packet


def make_flit(sn: int):
    """``(packet, index)`` of a flit whose index is ``sn``, so released flits
    show their sequence number."""
    return Packet(0, 1, sn + 1, 0), sn


def arrival(sn: int, vc: int):
    """One ``(packet, index, vc, sn)`` arrival as the hetero-PHY receiver
    hands it over."""
    return (*make_flit(sn), vc, sn)


def insert(rob: ReorderBuffer, sn: int, vc: int = 0):
    packet, index = make_flit(sn)
    rob.insert(packet, index, vc, sn)
    return packet, index


def test_eq1_sizing():
    # Table 2 parameters: B_p = 2, D_s = 20, D_p = 5 -> 30 flits.
    assert rob_capacity(2, 20, 5) == 30
    # Halved interface: B_p = 1 -> 15 flits.
    assert rob_capacity(1, 20, 5) == 15


def test_eq1_never_below_one():
    assert rob_capacity(2, 5, 5) == 1
    assert rob_capacity(2, 5, 20) == 1


def test_eq1_validation():
    with pytest.raises(ValueError):
        rob_capacity(0, 20, 5)


def test_in_order_passthrough():
    rob = ReorderBuffer(4)
    insert(rob, 0)
    insert(rob, 1)
    released = list(rob.release())
    assert [index for _p, index, _vc in released] == [0, 1]
    assert rob.occupancy == 0


def test_out_of_order_held_until_gap_fills():
    rob = ReorderBuffer(4)
    insert(rob, 1)
    assert list(rob.release()) == []
    assert rob.occupancy == 1
    insert(rob, 0)
    released = [index for _p, index, _vc in rob.release()]
    assert released == [0, 1]


def test_per_vc_independence():
    """A stalled VC does not block other VCs (no head-of-line blocking)."""
    rob = ReorderBuffer(8)
    insert(rob, 1, vc=0)  # gap on VC 0
    insert(rob, 0, vc=1)
    released = list(rob.release())
    assert [(index, vc) for _p, index, vc in released] == [(0, 1)]
    assert rob.occupancy == 1


def test_release_round_robins_over_vcs_in_ascending_order():
    """One flit per VC per round, lowest VC first, whatever the arrival order."""
    rob = ReorderBuffer(8)
    arrivals = [arrival(0, 1), arrival(0, 0), arrival(1, 0), arrival(1, 1)]
    released = rob.reorder(arrivals)
    assert [(vc, index) for _p, index, vc in released] == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_in_order_single_vc_arrivals_pass_straight_through():
    rob = ReorderBuffer(4)
    arrivals = [arrival(0, 2), arrival(1, 2)]
    assert rob.reorder(arrivals) == [entry[:3] for entry in arrivals]
    assert rob.occupancy == 0 and rob.max_occupancy == 0
    # The expected sequence number advanced: the next flit is in order too.
    nxt = arrival(2, 2)
    assert rob.reorder([nxt]) == [nxt[:3]]
    assert rob.reorder([]) == []


def test_duplicate_sequence_number_names_both_flits():
    """A second flit under a parked (vc, sn) is a lost flit, not an overwrite."""
    rob = ReorderBuffer(4)
    parked = insert(rob, 1)
    intruder = Packet(0, 1, 1, 0)
    with pytest.raises(ValueError) as raised:
        rob.insert(intruder, 0, 0, 1)
    assert f"flit 1 of packet {parked[0].pid}" in str(raised.value)
    assert f"flit 0 of packet {intruder.pid}" in str(raised.value)
    assert list(rob.waiting()) == [(*parked, 0)]
    with pytest.raises(ValueError, match="duplicate sequence number 1 on VC 0"):
        rob.reorder([arrival(1, 0)])
    insert(rob, 1, vc=1)  # same SN on another VC is a different slot


def test_insert_requires_sequence_number():
    """The sequence number is an argument: the flit itself carries none."""
    rob = ReorderBuffer(4)
    with pytest.raises(TypeError):
        rob.insert(Packet(0, 1, 1, 0), 0, 0)
    assert rob.occupancy == 0


def test_overflow_detected():
    rob = ReorderBuffer(2)
    for sn in (1, 2, 3):  # sn 0 missing: nothing can release
        insert(rob, sn)
    with pytest.raises(RobOverflowError):
        rob.release()


def test_capacity_validation():
    with pytest.raises(ValueError):
        ReorderBuffer(0)


def test_max_occupancy_tracks_waiting_flits():
    """max_occupancy samples flits still waiting after a release pass."""
    rob = ReorderBuffer(8)
    insert(rob, 2)
    insert(rob, 1)
    assert list(rob.release()) == []  # SN 0 missing: both wait
    assert rob.max_occupancy == 2
    insert(rob, 0)
    assert len(list(rob.release())) == 3
    assert rob.max_occupancy == 2  # nothing waited after the drain
    assert rob.occupancy == 0


@given(st.permutations(list(range(8))))
def test_release_always_in_order(order):
    """Whatever the arrival order, release is in sequence-number order."""
    rob = ReorderBuffer(8)
    released: list[int] = []
    for sn in order:
        insert(rob, sn)
        released.extend(index for _p, index, _vc in rob.release())
    assert released == sorted(released)
    assert released == list(range(8))


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 31)),
        max_size=64,
        unique=True,
    )
)
def test_release_in_order_per_vc(pairs):
    """Per-VC sequence order holds under interleaved multi-VC arrivals."""
    # build contiguous SN streams per VC from the draw
    per_vc: dict[int, int] = {}
    arrivals = []
    for vc, _ in pairs:
        sn = per_vc.get(vc, 0)
        per_vc[vc] = sn + 1
        arrivals.append((vc, sn))
    rob = ReorderBuffer(max(1, len(arrivals)))
    seen: dict[int, list[int]] = {}
    for vc, sn in arrivals:
        insert(rob, sn, vc)
        for _packet, index, flit_vc in rob.release():
            seen.setdefault(flit_vc, []).append(index)
    for vc, sns in seen.items():
        assert sns == list(range(len(sns)))


@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=3),
    st.integers(0, 4),
    st.lists(st.integers(0, 4), min_size=18, max_size=18),
    st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=24),
    st.integers(1, 6),
)
def test_reorder_matches_insert_then_release(streams, jitter, noise, cycles, capacity):
    """``reorder(arrivals)`` is ``insert`` per arrival + ``release()``.

    ``streams[vc]`` flits per VC arrive in cycles of 0-4 flits (then one
    per cycle), from in order (``jitter`` 0, the pass-through case) to
    scrambled, into a buffer small enough to overflow: released order,
    occupancy, both peaks and the overflow verdict must agree cycle by cycle.
    """
    pairs = [(vc, sn) for vc, count in enumerate(streams) for sn in range(count)]
    order = sorted(
        range(len(pairs)), key=lambda i: (pairs[i][1] + noise[i] % (jitter + 1), i)
    )
    one_call, single = ReorderBuffer(capacity), ReorderBuffer(capacity)

    def outcome(step, batch):
        try:
            return [
                (vc, index)
                for _p, index, vc in step([arrival(sn, vc) for vc, sn in batch])
            ]
        except RobOverflowError:
            return "overflow"

    def single_step(batch):
        for packet, index, vc, sn in batch:
            single.insert(packet, index, vc, sn)
        return single.release()

    def state(rob):
        snap = rob.snapshot_state()
        parked = [(entry["vc"], entry["sn"]) for entry in snap["waiting"]]
        return snap["occupancy"], snap["max_occupancy"], snap["expected"], parked

    pos = 0
    while pos < len(order):
        size, epoch_boundary = cycles.pop() if cycles else (1, False)
        batch = [pairs[i] for i in order[pos : pos + size]]
        pos += size
        assert outcome(one_call.reorder, batch) == outcome(single_step, batch)
        assert state(one_call) == state(single)
        if epoch_boundary:
            assert one_call.take_window_peak() == single.take_window_peak()
    assert one_call.take_window_peak() == single.take_window_peak()
