"""Tests for deterministic run digests (``repro.telemetry.digest``)."""

import json

import pytest

from repro.noc.flit import Packet
from repro.sim.config import SimConfig
from repro.sim.experiment import run_synthetic
from repro.telemetry import (
    DIGEST_ALGO,
    DIGEST_SCHEMA_VERSION,
    DigestError,
    RunDigest,
    TelemetryConfig,
    digests_comparable,
    pins,
    validate_digest_block,
)
from repro.telemetry.sentinel import render_sentinel
from repro.telemetry.diff import parse_sim_spec, resimulate
from repro.telemetry.digest import chain_hex
from repro.telemetry.runstore import RunRecord, RunStore, record_from_result
from repro.topology.grid import ChipletGrid
from repro.topology.system import build_system

from .helpers import build_chain, run_cycles, write_pins
from .test_bench_compare import judge
from .test_runstore import make_record


def digest_chain_run(cycles=40, *, checkpoint_every=10, capture=None):
    """Digest a tiny hand-built chain run; returns (network, digest)."""
    network, _stats = build_chain(3)
    digest = RunDigest(
        network, checkpoint_every=checkpoint_every, capture=capture
    )
    network.inject(Packet(0, 2, 4, 0))
    run_cycles(network, cycles)
    digest.detach()
    return network, digest


def digest_family_run(family, *, vct=True, seed=3):
    """One seeded uniform-traffic run of a family (600 cycles), fully digested."""
    spec = f"sim:family={family},rate=0.05,seed={seed},cycles=600,warmup=100,"
    meta = parse_sim_spec(f"{spec}checkpoint_every=200,vct={int(vct)}")
    return resimulate(meta).telemetry.digest


# -- chain encoding -----------------------------------------------------------
def test_chain_hex_is_canonical_16_digit_lowercase():
    assert chain_hex(0) == "0" * 16
    assert chain_hex(0xDEADBEEF) == "00000000deadbeef"
    assert chain_hex(1 << 64) == "0" * 16  # masked to 64 bits


def test_constructor_validates_arguments():
    network, _stats = build_chain(2)
    with pytest.raises(ValueError, match="checkpoint_every"):
        RunDigest(network, checkpoint_every=0)
    with pytest.raises(ValueError, match="lo <= hi"):
        RunDigest(network, capture=(9, 3))


def test_checkpoint_cadence_and_capture_window():
    _, digest = digest_chain_run(35, checkpoint_every=10, capture=(5, 8))
    assert [cycle for cycle, _ in digest.checkpoints] == [10, 20, 30]
    assert sorted(digest.captured) == [5, 6, 7, 8]
    assert digest.cycles == 35
    # The capture window records the same chain the checkpoints sample.
    _, again = digest_chain_run(35, checkpoint_every=10, capture=(10, 10))
    assert chain_hex(again.captured[10]) == chain_hex(dict(again.checkpoints)[10])


def test_detach_stops_the_taps():
    network, _stats = build_chain(3)
    digest = RunDigest(network)
    network.inject(Packet(0, 2, 4, 0))
    run_cycles(network, 20)
    final, total = digest.final, digest.events_total
    digest.detach()
    digest.detach()  # idempotent
    network.inject(Packet(0, 2, 4, 20))
    run_cycles(network, 20, start=20)
    assert digest.final == final
    assert digest.events_total == total


def test_raw_pids_are_canonicalized_across_runs():
    # Packet.pid comes from a process-global counter, so the raw ids of
    # these two otherwise-identical runs differ; the digests must not.
    _, first = digest_chain_run(40)
    _, second = digest_chain_run(40)
    assert first.final == second.final
    assert first.checkpoints == second.checkpoints
    assert first.events_total == second.events_total > 0


def test_different_traffic_diverges_the_chain():
    _, first = digest_chain_run(40)
    network, _stats = build_chain(3)
    digest = RunDigest(network, checkpoint_every=10)
    network.inject(Packet(0, 1, 4, 0))  # different destination
    run_cycles(network, 40)
    digest.detach()
    assert digest.final != first.final


# -- stability matrix: 5 families x {vct, wormhole} ---------------------------
@pytest.mark.parametrize("vct", [True, False], ids=["vct", "wormhole"])
def test_same_seed_twice_is_byte_identical(family, vct):
    first = digest_family_run(family, vct=vct)
    second = digest_family_run(family, vct=vct)
    assert first.events_total > 0
    assert first.final == second.final
    assert first.checkpoints == second.checkpoints
    assert first.counts == second.counts


def test_different_seeds_diverge():
    assert (
        digest_family_run("hetero_phy_torus", seed=1).final
        != digest_family_run("hetero_phy_torus", seed=2).final
    )


# -- summary block / validation ----------------------------------------------
def test_summary_block_passes_validation_and_hides_cycle_end():
    _, digest = digest_chain_run(40)
    digest.meta = {"family": "chain"}
    block = digest.summary()
    assert validate_digest_block(block) is block
    assert block["schema_version"] == DIGEST_SCHEMA_VERSION
    assert block["algo"] == DIGEST_ALGO
    assert block["cycles"] == 40
    assert block["final"] == digest.final
    assert "cycle_end" not in block["events"]
    assert block["events"]["flit_send"] > 0
    assert block["meta"] == {"family": "chain"}
    assert block["checkpoints"] == [
        [cycle, chain_hex(chain)] for cycle, chain in digest.checkpoints
    ]


def test_validate_digest_block_rejects_malformed_blocks():
    with pytest.raises(DigestError, match="not a JSON object"):
        validate_digest_block(["nope"])
    with pytest.raises(DigestError, match="not supported"):
        validate_digest_block({"schema_version": DIGEST_SCHEMA_VERSION + 1})
    block = digest_chain_run(10)[1].summary()
    del block["final"]
    with pytest.raises(DigestError, match="missing field 'final'"):
        validate_digest_block(block)
    block = digest_chain_run(10)[1].summary()
    block["checkpoints"] = "oops"
    with pytest.raises(DigestError, match="checkpoints is not a list"):
        validate_digest_block(block)


def test_digests_comparable_reasons():
    a = digest_chain_run(20)[1].summary()
    b = digest_chain_run(20)[1].summary()
    assert digests_comparable(a, b) is None
    short = digest_chain_run(10)[1].summary()
    assert "horizons differ" in digests_comparable(a, short)
    foreign = dict(a, algo="sha256-chain-v9")
    assert "algorithms differ" in digests_comparable(a, foreign)


# -- the pin store -------------------------------------------------------------
def test_golden_roundtrip(tmp_path):
    network, digest = digest_chain_run(40)
    pin = pins.observe(digest.summary(), network.stats)
    assert set(pin) == {"digest", "stats", "fingerprint"}
    assert pin["fingerprint"] == pins.stats_fingerprint(network.stats)
    path = write_pins(tmp_path / "PINS.json", chain=pin)
    (loaded,) = pins.load(path).values()
    assert loaded["digest"] == pin["digest"]
    # Equal through the file, NaN statistics of this tiny run included.
    assert any(value != value for value in pin["stats"].values())
    assert pins.check("chain", loaded, pin) == (True, f"chain: OK ({digest.final})")


def test_make_golden_validates_its_digest_block(tmp_path):
    bad = {"digest": {"schema_version": 0}, "stats": {}, "fingerprint": ""}
    with pytest.raises(DigestError, match="pin 'bad': digest schema v0"):
        pins.load(write_pins(tmp_path / "PINS.json", bad=bad))
    bad = {"digest": digest_chain_run(10)[1].summary()}
    with pytest.raises(DigestError, match="pin 'bad': missing 'stats' or 'fingerprint'"):
        pins.load(write_pins(tmp_path / "PINS.json", bad=bad))
    with pytest.raises(DigestError, match="pin 'bad': not a JSON object"):
        pins.load(write_pins(tmp_path / "PINS.json", bad=[]))


def test_load_golden_rejects_foreign_documents(tmp_path):
    path = tmp_path / "PINS.json"
    for text, complaint in (
        ("{not json", "not valid JSON"),
        ('{"kind": "bench"}', "not a pin store"),
        ('{"kind": "pins", "schema_version": 2, "pins": {}}', "pin schema v2 is not supported"),
        ('{"kind": "pins", "schema_version": 1}', "missing field 'pins'"),
    ):
        path.write_text(text)
        with pytest.raises(DigestError, match=complaint):
            pins.load(path)
    with pytest.raises(OSError):
        pins.load(tmp_path / "absent.json")


# -- run records --------------------------------------------------------------
def test_run_record_digest_roundtrips_and_old_records_load(tmp_path):
    store = RunStore(tmp_path / "runs")
    block = digest_chain_run(40)[1].summary()
    store.append(make_record(label="with", digest=block))
    # A record written before the field existed: same schema, no key.
    old = make_record(label="without").to_dict()
    del old["digest"]
    with store.path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(old) + "\n")
    loaded = store.load()
    assert loaded[0].digest == block
    assert loaded[1].digest == {}  # default for pre-digest records


def test_run_synthetic_digest_lands_on_result_and_record():
    grid = ChipletGrid(2, 2, 2, 2)
    spec = build_system("parallel_mesh", grid, SimConfig().scaled(600))
    plain = run_synthetic(spec, "uniform", 0.1, seed=3)
    assert plain.digest is None
    assert record_from_result(plain, git_rev="x").digest == {}

    result = run_synthetic(
        spec, "uniform", 0.1, seed=3, telemetry=TelemetryConfig(digest=True)
    )
    block = result.digest
    validate_digest_block(block)
    assert block["cycles"] == 600
    meta = block["meta"]
    assert meta["family"] == "parallel_mesh"
    assert meta["chiplets"] == [2, 2]
    assert meta["pattern"] == "uniform"
    assert meta["seed"] == 3
    record = record_from_result(result, git_rev="x")
    assert record.digest == block


# -- bench + regress ----------------------------------------------------------
TRACE_WORKLOAD = "channel_moc_trace_256"


def test_bench_case_carries_digest_and_compare_matches(bench_doc, tmp_path):
    block = bench_doc["workloads"][TRACE_WORKLOAD]
    # The traced pass's full chain rides at workload level; its low 48 bits
    # are the exact per-layer row a JSON number carries without loss.
    chain = block["per_layer"]["sim.stats.digest_chain"]["value"]
    assert chain == int(block["digest_chain"], 16) & ((1 << 48) - 1) != 0

    report = judge(tmp_path, bench_doc, bench_doc)
    [match] = [r for r in report.reports
               if (r.case, r.metric) == (TRACE_WORKLOAD, "sim.stats.digest_chain")]
    assert match.verdict == "noise"  # identical chains
    assert match.baseline == match.latest == chain
    assert f"{int(chain):012x}" in render_sentinel(report)  # printed in hex


def verdicts_of(report):
    return {(r.case, r.metric): r.verdict for r in report.reports}


def test_compare_renders_na_when_digest_block_is_missing(bench_doc, tmp_path):
    old = json.loads(json.dumps(bench_doc))
    old["workloads"][TRACE_WORKLOAD]["per_layer"] = {}  # a --trace 0 run: no chain
    for a, b in ((old, bench_doc), (bench_doc, old)):
        verdicts = verdicts_of(judge(tmp_path, a, b))
        assert verdicts[(TRACE_WORKLOAD, "sim.stats.digest_chain")] == "n/a"
    assert (TRACE_WORKLOAD, "sim.stats.digest_chain") not in verdicts_of(
        judge(tmp_path, old, old)
    )


def test_compare_flags_digest_mismatch(bench_doc, tmp_path):
    drifted = json.loads(json.dumps(bench_doc))
    drifted["workloads"][TRACE_WORKLOAD]["per_layer"]["sim.stats.digest_chain"]["value"] ^= 1
    verdicts = verdicts_of(judge(tmp_path, bench_doc, drifted))
    assert verdicts[(TRACE_WORKLOAD, "sim.stats.digest_chain")] == "regressed"
