"""Certification engine: `repro prove` semantics and certificates.

The core agreement property: `prove` must certify exactly what `check`
passes *plus* the CDG cycles the model checker refutes — and must keep
failing (with a replayable counterexample) when a cycle is real.  The
certificate artifact must round-trip through JSON and reject foreign
schemas.
"""

import json

import pytest

from repro.analysis import (
    Certificate,
    CertificateError,
    Report,
    load_certificate,
    load_certificates,
    prove_family,
    prove_network,
    verify_family,
    verify_network,
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
    """CDG-vs-modelcheck agreement across every family and mode."""
    check_report = verify_family(family, mode=mode)
    result = prove_family(family, mode=mode, fault_masks=False, max_states=1_500)
    assert result.certified, result.report.render(verbose=True)
    assert result.report.ok
    cert = result.certificate
    assert cert.family == family
    assert cert.mode == mode
    if check_report.ok:
        # Nothing to adjudicate: the checker never ran.
        assert "modelcheck" not in result.report.passes
        assert result.modelcheck is None
        assert cert.modelcheck == {}
        assert "CDG-CYCLE-REFUTED" not in result.report.codes()
    else:
        # `check` failed only through CDG cycles, and every one of them
        # was refuted and downgraded to a warning.
        assert {f.code for f in check_report.errors} <= set(_CYCLE_CODES)
        assert "modelcheck" in result.report.passes
        assert result.modelcheck is not None
        assert not result.modelcheck.deadlock
        assert cert.modelcheck["verdict"].startswith("refuted")
        assert "CDG-CYCLE-REFUTED" in {
            f.code for f in result.report.warnings
        }
        assert not any(f.code in _CYCLE_CODES for f in result.report.errors)


def test_prove_runs_all_passes_in_order(family):
    result = prove_family(family, mode="vct", max_states=1_500)
    expected = ["lint", "deadlock", "livelock", "contracts", "reachability",
                "fault-sweep"]
    assert result.report.passes[: len(expected)] == expected
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


def test_raising_routing_is_a_finding_not_a_crash():
    """One (node, dst) question that raises is reported by both tools."""
    spec = build_system("parallel_mesh", ChipletGrid(2, 2, 3, 3), SimConfig())
    base = make_routing(spec)

    def raising(router, packet):
        if router.node == 4 and packet.dst == 0:
            raise RuntimeError("no route from 4 to 0")
        return base(router, packet)

    check = verify_family("parallel_mesh", routing=raising)
    assert {"ROUTE-RAISES", "ESC-UNREACHABLE"} <= check.codes()
    proof = prove_family("parallel_mesh", routing=raising)
    assert not proof.certified
    assert "REACH-RAISES" in {f.code for f in proof.report.errors}


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
    """`check`, and `prove` (check followed by the prove passes on one
    network), ask the routing function each (node, dst, ban, subnet)
    question exactly once."""
    spec = build_system("hetero_channel", ChipletGrid(2, 2, 3, 3), SimConfig())
    network, questions = _counted_network(spec)
    assert verify_network(spec, network).ok
    network.close()
    assert questions and len(questions) == len(set(questions))

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
