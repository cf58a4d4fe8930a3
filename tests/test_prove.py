"""Certification engine: `repro prove` semantics and certificates.

The core agreement property: `prove` certifies exactly what its static
passes pass plus the CDG cycles the model checker refutes *exhaustively*,
keeps a cycle's error when the refutation was only bounded, and keeps
failing (with a replayable counterexample) when a cycle is real.  Each
seeded defect is reported once per defective object, by the one pass that
owns the property.  The certificate artifact must round-trip through JSON
and reject foreign schemas.
"""

import json
from collections import Counter

import pytest

from repro.analysis import (
    Certificate,
    CertificateError,
    Report,
    load_certificate,
    load_certificates,
    prove_family,
    prove_network,
    write_certificate,
)
from repro.analysis.prove import _CYCLE_CODES
from repro.routing.functions import make_routing
from repro.sim.build import build_network
from repro.sim.config import SimConfig
from repro.sim.stats import Stats
from repro.topology.grid import ChipletGrid
from repro.topology.system import build_system

from .helpers import ring_routing
from .test_modelcheck import RING_GRID

MODES = ("vct", "wormhole")


@pytest.fixture(params=MODES)
def mode(request) -> str:
    return request.param


def test_prove_agrees_with_check_and_certifies(family, mode):
    """One verdict: prove certifies exactly when its static passes find
    nothing, and a CDG cycle refuted only within the budget keeps its
    error."""
    result = prove_family(family, mode=mode, fault_masks=False, max_states=1_500)
    errors = result.report.errors
    assert result.certified == (not errors), result.report.render(verbose=True)
    cert = result.certificate
    assert cert.family == family
    assert cert.mode == mode
    assert "CDG-CYCLE-REFUTED" not in result.report.codes()
    if result.certified:
        # Nothing to adjudicate: the checker never ran.
        assert "modelcheck" not in result.report.passes
        assert result.modelcheck is None
        assert cert.modelcheck == {}
    else:
        # The static passes failed only through CDG cycles; the model
        # checker found no deadlock but ran out of budget first, so each
        # cycle stays an error that says how far the search got.
        assert {f.code for f in errors} <= set(_CYCLE_CODES)
        assert "modelcheck" in result.report.passes
        assert not result.modelcheck.deadlock
        assert cert.modelcheck["verdict"] == "refuted-bounded"
        assert cert.modelcheck["explored"] == cert.modelcheck["max_states"] == 1_500
        cycles = [f.message for f in result.report.errors if f.code in _CYCLE_CODES]
        searched = (
            "model checker verdict refuted-bounded: 1500 states of the model "
            "checker's virtual cut-through allocation model explored (budget 1500)"
        )
        assert cycles and all(searched in m and "not exhaustive" in m for m in cycles)


def _ring_row_wormhole(**budget):
    """serial_torus on one 4-node torus row: its wormhole-mode CDG cycle is
    small enough for the model checker to search exhaustively (10,650
    states)."""
    return prove_family(
        "serial_torus",
        chiplets=(RING_GRID.chiplets_x, RING_GRID.chiplets_y),
        nodes=(RING_GRID.nodes_x, RING_GRID.nodes_y),
        mode="wormhole",
        fault_masks=False,
        **budget,
    )


def test_an_exhaustive_refutation_certifies():
    result = _ring_row_wormhole(max_states=20_000)
    assert result.certified
    assert result.certificate.modelcheck["verdict"] == "refuted-exhaustive"
    [refuted] = result.report.warnings
    assert refuted.code == "CDG-CYCLE-REFUTED"
    assert "verdict refuted-exhaustive" in refuted.message
    assert "explored exhaustively (10650 states" in refuted.message
    assert not any(f.code in _CYCLE_CODES for f in result.report.findings)


def test_a_bounded_refutation_refuses_certification():
    result = _ring_row_wormhole(max_states=10_000)
    assert not result.certified
    assert result.certificate.modelcheck["verdict"] == "refuted-bounded"
    [cycle] = result.report.errors
    assert cycle.code == "CDG-CYCLE-EXTENDED"
    assert "verdict refuted-bounded: 10000 states" in cycle.message
    assert "(budget 10000)" in cycle.message
    assert "CDG-CYCLE-REFUTED" not in result.report.codes()


def test_a_one_state_budget_refuses_certification():
    result = prove_family("serial_torus", mode="wormhole", fault_masks=False, max_states=1)
    assert not result.certified
    assert result.certificate.modelcheck["verdict"] == "refuted-bounded"
    assert result.certificate.modelcheck["explored"] == 1
    assert result.report.codes() == {"CDG-CYCLE-EXTENDED"}


def test_prove_runs_all_passes_in_order(family):
    result = prove_family(family, mode="vct", max_states=1_500)
    assert result.report.passes == ["lint", "deadlock", "reachability", "fault-sweep"]
    assert result.report.metrics["routing_states"] > 0
    assert result.certificate.fault_masks["swept"] == (
        result.report.metrics["fault_masks"]
    )
    assert result.certificate.fault_masks["broken"] == []


def test_broken_escape_is_refused_certification():
    result = prove_family(
        "serial_torus",
        chiplets=(RING_GRID.chiplets_x, RING_GRID.chiplets_y),
        nodes=(RING_GRID.nodes_x, RING_GRID.nodes_y),
        mode="vct",
        fault_masks=False,
        routing=ring_routing,
    )
    assert not result.certified
    report = result.report
    assert "MC-DEADLOCK" in {f.code for f in report.errors}
    assert "CDG-CYCLE-REFUTED" not in report.codes()
    cert = result.certificate
    assert cert.modelcheck["verdict"] == "deadlock"
    assert cert.modelcheck["counterexample"]["injections"]
    assert cert.modelcheck["replay"]["deadlocked"] is True


def _fails_at_4_to_0(answer):
    """parallel_mesh routing, except that the question 4 -> 0 gets
    ``answer()`` (which may raise) instead."""
    spec = build_system("parallel_mesh", ChipletGrid(2, 2, 3, 3), SimConfig())
    base = make_routing(spec)

    def routing(router, packet):
        if router.node == 4 and packet.dst == 0:
            return answer()
        return base(router, packet)

    return routing


def _raise():
    raise RuntimeError("no route from 4 to 0")


def test_raising_routing_is_a_finding_not_a_crash():
    """The two (4 -> 0) questions that raise, unbanned and banned, are one
    finding each, and refuse certification."""
    proof = prove_family("parallel_mesh", routing=_fails_at_4_to_0(_raise))
    assert not proof.certified
    raises = [f.target for f in proof.report.errors if f.code == "REACH-RAISES"]
    assert raises[:2] == ["dst 0 state (4, False, None)", "dst 0 state (4, True, None)"]
    assert len(raises) == len(set(raises))


#: Seeded defect -> the findings it must yield at 2x2(3x3): one per
#: defective object, a built link or a routing question.
SEEDED = {
    "undersized_rob": {"ROB-UNDERSIZED": 24},
    "raising_routing": {"REACH-RAISES": 2, "ESC-UNREACHABLE": 1},
    "empty_routing": {"REACH-DEADEND": 2, "ESC-UNREACHABLE": 1},
}


@pytest.mark.parametrize("defect", SEEDED)
def test_each_seeded_defect_is_reported_once(defect):
    """A 24-link hetero-PHY torus with one-flit reorder buffers, and mesh
    routing that raises or offers nothing for 4 -> 0.  (Ping-pong routing's
    one cycle: tests/test_analysis.py.)"""
    if defect == "undersized_rob":
        result = prove_family(
            "hetero_phy_torus", config=SimConfig(rob_capacity=1), fault_masks=False
        )
    else:
        answer = _raise if defect == "raising_routing" else lambda: []
        result = prove_family(
            "parallel_mesh", routing=_fails_at_4_to_0(answer), fault_masks=False
        )
    findings = result.report.findings
    expected = SEEDED[defect]
    assert Counter(f.code for f in findings) == expected
    assert len({(f.code, f.target) for f in findings}) == len(findings)


def test_wormhole_mode_builds_wormhole_routers():
    """Wormhole allocation takes any buffer depth: with 8-flit buffers
    (half a packet) serial_hypercube certifies; parallel_mesh keeps its
    extended CDG cycle, which the virtual cut-through model checker is
    not asked about, and no whole-packet finding appears."""
    config = SimConfig(onchip_buffer=8, interface_buffer=8)
    cube = prove_family("serial_hypercube", mode="wormhole", config=config)
    assert cube.certified, cube.report.render(verbose=True)
    mesh = prove_family("parallel_mesh", mode="wormhole", config=config, fault_masks=False)
    assert not mesh.certified
    [cycle] = mesh.report.findings
    assert cycle.code == "CDG-CYCLE-EXTENDED"
    assert "model was not consulted" in cycle.message
    assert "modelcheck" not in mesh.report.passes and mesh.modelcheck is None
    with pytest.raises(ValueError, match="whole-packet"):
        prove_family("parallel_mesh", mode="vct", config=config)


def _counted_network(spec):
    """A fresh network whose routers log every routing question they get."""
    network = build_network(spec, Stats())
    questions: list = []
    for router in network.routers:

        def counting(router, packet, base=router.routing_fn):
            questions.append(
                (router.node, packet.dst, packet.adaptive_banned, packet.subnet_choice)
            )
            return base(router, packet)

        router.routing_fn = counting
    return network, questions


def test_each_routing_question_is_asked_once():
    """`prove`'s passes, run on one network, ask the routing function each
    (node, dst, ban, subnet) question exactly once."""
    spec = build_system("hetero_channel", ChipletGrid(2, 2, 3, 3), SimConfig())
    network, questions = _counted_network(spec)
    result = prove_network(spec, lambda: network, fault_masks=False)
    assert result.certified
    assert questions and len(questions) == len(set(questions))


def test_certificate_round_trips_through_json(tmp_path):
    result = prove_family("parallel_mesh", mode="vct", fault_masks=False)
    cert = result.certificate
    path = write_certificate(cert, tmp_path)
    assert path.name == f"CERT_{cert.system}_vct.json"
    restored = load_certificate(path)
    assert restored.to_dict() == cert.to_dict()
    assert restored.certified
    # The embedded report rehydrates with identical findings and verdict.
    report = restored.report_obj
    assert isinstance(report, Report)
    assert report.ok == result.report.ok
    assert report.codes() == result.report.codes()
    [listed] = load_certificates(tmp_path)
    assert listed.system == cert.system


def test_certificate_rejects_foreign_schema(tmp_path):
    result = prove_family("parallel_mesh", mode="vct", fault_masks=False)
    data = result.certificate.to_dict()
    data["schema_version"] = 99
    with pytest.raises(CertificateError, match="schema v99"):
        Certificate.from_dict(data)
    data["schema_version"] = 1
    data["surprise"] = True
    with pytest.raises(CertificateError, match="unknown fields"):
        Certificate.from_dict(data)
    bad = tmp_path / "CERT_bad_vct.json"
    bad.write_text("not json", encoding="utf-8")
    with pytest.raises(CertificateError, match="unreadable"):
        load_certificate(bad)
    bad.write_text(json.dumps(["a", "list"]), encoding="utf-8")
    with pytest.raises(CertificateError, match="not a JSON object"):
        load_certificate(bad)


def test_prove_rejects_unknown_family_and_mode():
    with pytest.raises(ValueError):
        prove_family("ring_of_rings")
    with pytest.raises(ValueError):
        prove_family("parallel_mesh", mode="store_and_forward")


@pytest.mark.parametrize(
    "budget", [{"max_states": 0}, {"max_states": -1}, {"max_packets": 0}]
)
def test_prove_rejects_an_empty_model_checker_budget(budget):
    # serial_torus wormhole has a CDG cycle, so the model checker runs.
    with pytest.raises(ValueError, match="must be >= 1"):
        prove_family("serial_torus", mode="wormhole", fault_masks=False, **budget)


def test_report_round_trips_through_dict():
    report = Report(system="unit", mode="wormhole", passes=["lint"])
    report.metrics["x"] = 3
    report.error("BOOM", "z", "an error")
    report.warning("WARN", "y", "a warning")
    restored = Report.from_dict(report.to_dict())
    assert restored.to_dict() == report.to_dict()
    assert not restored.ok
    assert restored.findings == report.findings
