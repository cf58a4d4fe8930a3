"""Tests for the differential run oracle (``repro.telemetry.diff``)."""

import json

import pytest

from repro.cli import main
from repro.telemetry import (
    Diffable,
    DiffError,
    diff_runs,
    load_diffable,
    parse_sim_spec,
    pins,
    resimulate,
)
from repro.telemetry.diff import PerturbedWorkload, run_described
from repro.telemetry.digest import chain_hex
from repro.telemetry.runstore import RunStore

from .helpers import write_pins
from .test_kernel_equivalence import PINS_PATH
from .test_runstore import make_record

#: A fast, fully specified re-simulation spec and its meta, shared across tests.
BASE_SPEC = (
    "sim:family=parallel_mesh,chiplets=2x2,nodes=2x2,pattern=uniform,"
    "rate=0.1,seed=5,cycles=600,warmup=100,checkpoint_every=200"
)
BASE_META = parse_sim_spec(BASE_SPEC)


@pytest.fixture
def committed(monkeypatch):
    """The committed pin store, with the cwd where its default path resolves."""
    monkeypatch.chdir(PINS_PATH.parents[2])
    return pins.load()


def sim_diffable(label="side", **meta_overrides):
    result = resimulate(dict(BASE_META, **meta_overrides))
    return Diffable(label, "sim", result.digest, result.stats.summary())


def base_pin(**meta_overrides):
    result = resimulate(dict(BASE_META, **meta_overrides))
    return pins.observe(result.digest, result.stats)


# -- sim spec parsing ---------------------------------------------------------
def test_parse_sim_spec_defaults_and_overrides():
    meta = parse_sim_spec("sim:family=serial_torus")
    assert meta["family"] == "serial_torus"
    assert meta["chiplets"] == [2, 2]
    assert meta["nodes"] == [3, 3]
    assert meta["pattern"] == "uniform"
    assert meta["cycles"] == 2_000
    assert "perturb" not in meta

    meta = parse_sim_spec(BASE_SPEC + ",policy=balanced,perturb=305")
    assert meta["nodes"] == [2, 2]
    assert meta["rate"] == 0.1
    assert meta["policy"] == "balanced"
    assert meta["perturb"] == 305
    assert meta["checkpoint_every"] == 200

    meta = parse_sim_spec(BASE_SPEC + ",vct=0,mix=3/5")
    assert meta["vct"] is False and meta["mix"] == [3, 5]
    # VCT is the default, so a meta block only ever says vct: false.
    assert "vct" not in parse_sim_spec(BASE_SPEC + ",vct=true")


def test_parse_sim_spec_rejects_malformed_specs():
    with pytest.raises(DiffError, match="requires family"):
        parse_sim_spec("sim:rate=0.1")
    with pytest.raises(DiffError, match="not key=value"):
        parse_sim_spec("sim:family=parallel_mesh,oops")
    with pytest.raises(DiffError, match="unknown sim spec key"):
        parse_sim_spec("sim:family=parallel_mesh,wombat=1")
    with pytest.raises(DiffError, match="expected e.g. 2x2"):
        parse_sim_spec("sim:family=parallel_mesh,chiplets=four")
    # vct and mix parse strictly: no bool("0"), no zero period.
    for key, value, example in (
        ("vct", "maybe", "0"), ("vct", "", "0"), ("mix", "3", "3/5"),
        ("mix", "0/5", "3/5"), ("mix", "3/5/7", "3/5"), ("mix", "a/b", "3/5"),
    ):
        with pytest.raises(DiffError, match=f"^invalid {key} '{value}'; expected e.g. {example}$"):
            parse_sim_spec(f"sim:family=parallel_mesh,{key}={value}")


# -- re-simulation harness ----------------------------------------------------
def test_resimulate_requires_complete_meta():
    meta = dict(BASE_META)
    del meta["seed"]
    meta["rate"] = None
    with pytest.raises(DiffError, match="missing: rate, seed"):
        resimulate(meta)


def test_resimulate_is_deterministic_and_prefix_stable():
    full = resimulate(BASE_META, capture=(200, 200)).telemetry.digest
    again = resimulate(BASE_META).telemetry.digest
    assert full.final == again.final
    assert full.events_total == again.events_total
    # Truncation yields exactly the full run's chain at that cycle, which
    # is what lets localization stop simulating at the divergent interval.
    prefix = resimulate(BASE_META, cycles=200).telemetry.digest
    assert prefix.final == chain_hex(full.captured[200])
    assert prefix.cycles == 200


def test_resimulate_meta_lands_on_the_digest():
    # ...as a fixed point: what the run harness adds (system, policy,
    # config hash) re-simulates to the same block, so a pin re-records
    # byte-identically from its own meta.
    block = resimulate(BASE_META).digest
    assert block["meta"].items() >= BASE_META.items()
    assert set(block["meta"]) - set(BASE_META) == {"system", "policy", "config_hash"}
    assert resimulate(block["meta"]).digest == block


def test_perturbed_workload_injects_one_extra_packet():
    class Quiet:
        def step(self, now):
            return []

        def done(self, now):
            return now > 99

    workload = PerturbedWorkload(Quiet(), 7, src=0, dst=3)
    assert workload.step(6) == []
    [extra] = workload.step(7)
    assert (extra.src, extra.dst, extra.length) == (0, 3, 1)
    assert workload.step(8) == []
    assert not workload.done(50) and workload.done(100)


def test_perturbation_changes_the_digest():
    base = sim_diffable()
    perturbed = sim_diffable(perturb=305)
    assert base.digest["final"] != perturbed.digest["final"]


# -- diffable loading ---------------------------------------------------------
def test_load_diffable_sim_spec():
    side = load_diffable(BASE_SPEC)
    assert side.source == "sim"
    assert side.resimulable
    assert side.digest["final"] == sim_diffable().digest["final"]
    assert side.stats  # summary stats ride along for granularity 1


def test_load_diffable_golden_and_record(tmp_path, committed):
    pinned = load_diffable("pin:parallel_mesh-saturated")
    assert pinned.source == "pin" and pinned.resimulable
    assert pinned.digest == committed["parallel_mesh-saturated"]["digest"]
    assert load_diffable("pin:parallel_mesh-wormhole").resimulable
    assert load_diffable("pin:hetero_channel-moc-trace").resimulable
    with pytest.raises(DiffError, match="no such pin: pin:fig99; known: .*fig11"):
        load_diffable("pin:fig99")

    block = sim_diffable().digest

    record_file = tmp_path / "record.json"
    record_file.write_text(
        json.dumps(make_record(run_id="rec0000000001", digest=block).to_dict())
    )
    record = load_diffable(str(record_file))
    assert record.source == "record"
    assert record.digest == block


def test_load_diffable_runstore_selectors(tmp_path):
    block = sim_diffable().digest
    store = RunStore(tmp_path / "runs")
    store.append(make_record(run_id="digested00001", digest=block))
    store.append(make_record(run_id="plain00000001"))  # no digest

    # Default: the latest digest-bearing record, not the latest record.
    side = load_diffable(str(store.path))
    assert side.digest == block
    assert load_diffable(f"{store.path}#digested00001").digest == block
    with pytest.raises(DiffError, match="carries no digest"):
        load_diffable(f"{store.path}#plain00000001")
    with pytest.raises(DiffError, match="no record 'missing'"):
        load_diffable(f"{store.path}#missing")


def test_load_diffable_rejects_foreign_inputs(tmp_path):
    with pytest.raises(DiffError, match="no such file"):
        load_diffable(str(tmp_path / "absent.json"))
    bench = tmp_path / "BENCH_1.json"
    bench.write_text(json.dumps({"schema": 1, "workloads": {}}))
    with pytest.raises(DiffError, match="repro regress"):
        load_diffable(str(bench))
    mystery = tmp_path / "mystery.json"
    mystery.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(DiffError, match="not a run record"):
        load_diffable(str(mystery))
    record = tmp_path / "plain.json"
    record.write_text(json.dumps(make_record().to_dict()))
    with pytest.raises(DiffError, match="carries no digest"):
        load_diffable(str(record))


# -- the three-granularity diff -----------------------------------------------
def test_diff_identical_runs_stops_at_granularity_one():
    report = diff_runs(sim_diffable("a"), sim_diffable("b"))
    assert report.identical
    assert report.exit_code == 0
    assert report.divergent_cycle is None
    assert "verdict: IDENTICAL" in report.render()


def test_diff_mismatched_horizons_is_not_comparable():
    report = diff_runs(sim_diffable("a"), sim_diffable("b", cycles=400))
    assert not report.identical and not report.comparable
    assert report.exit_code == 1
    assert "verdict: NOT COMPARABLE" in report.render()
    assert any("horizons differ" in note for note in report.notes)


def test_diff_localizes_single_perturbation_to_its_exact_cycle(committed):
    report = diff_runs(sim_diffable("base"), sim_diffable("bad", perturb=305))
    assert not report.identical
    assert report.exit_code == 1
    # Granularity 2: the census sees the one extra packet...
    census = {event: (a, b) for event, a, b in report.event_diffs}
    inject_a, inject_b = census["packet_inject"]
    assert inject_b == inject_a + 1
    # ...and checkpoint bisection brackets the divergence.
    assert report.interval == (200, 400)
    # Granularity 3: re-simulation names the exact cycle, with context.
    assert report.divergent_cycle == 305
    assert report.context
    assert all(event["cycle"] == 305 for event in report.context)
    text = report.render()
    assert "first divergent cycle: 305" in text
    assert "packet_inject" in text

    # Wormhole allocation and a trace replay are described by their meta
    # alone, so a perturbed copy localizes against them just the same (both
    # sides cut short: a replay truncates like a synthetic run).
    moc = committed["hetero_channel-moc-trace"]["digest"]["meta"]
    for meta, cycle, cut in ((parse_sim_spec(BASE_SPEC + ",vct=0"), 305, 320), (moc, 20, 30)):
        base, bad = (
            resimulate(dict(meta, **extra), cycles=cut).digest for extra in ({}, {"perturb": cycle})
        )
        report = diff_runs(Diffable("base", "sim", base), Diffable("bad", "sim", bad))
        assert report.divergent_cycle == cycle, report.render()


def test_diff_context_cap_reports_truncation():
    report = diff_runs(
        sim_diffable("base"), sim_diffable("bad", perturb=305), context=1
    )
    assert len(report.context) == 1
    assert report.context_truncated >= 0
    if report.context_truncated:
        assert "more event(s)" in report.render()


def test_diff_no_localize_stops_at_the_checkpoint_interval():
    report = diff_runs(
        sim_diffable("base"), sim_diffable("bad", perturb=305), localize=False
    )
    assert report.interval == (200, 400)
    assert report.divergent_cycle is None
    assert not report.context


def test_diff_without_resim_meta_degrades_gracefully():
    base = sim_diffable("base")
    stranger = sim_diffable("stranger", perturb=305)
    stranger.digest["meta"] = {}  # e.g. a trace-driven run: no pattern/rate
    report = diff_runs(base, stranger)
    assert not report.identical
    assert report.interval == (200, 400)
    assert report.divergent_cycle is None
    assert any("cannot localize" in note for note in report.notes)


# -- pin record / check -------------------------------------------------------
def test_check_golden_file_roundtrip_and_tampered_mismatch(tmp_path, capsys, committed):
    pin = base_pin()
    observed = pins.reobserve(pin)
    ok, message = pins.check("custom_case", pin, observed)
    assert ok and message == f"custom_case: OK ({pin['digest']['final']})"
    # A statistic that moved with the event stream intact is a mismatch too.
    observed["stats"]["avg_latency"] += 1e-9
    observed["fingerprint"] = "0" * 16
    ok, message = pins.check("custom_case", pin, observed)
    assert not ok
    assert message == "custom_case: MISMATCH in fingerprint, stats.avg_latency"

    # A copy of the committed store with one chain nibble flipped: the
    # check fails, names the case and brackets the damage between two
    # checkpoints (500 cycles, a checkpoint every 200).
    case = "parallel_mesh-saturated"
    final = committed[case]["digest"]["final"]
    flipped = final[:-1] + ("0" if final[-1] != "0" else "1")
    tampered = tmp_path / "PINS.json"
    tampered.write_text(PINS_PATH.read_text().replace(final, flipped))
    pin = pins.load(tampered)[case]
    ok, message = pins.check(case, pin, pins.reobserve(pin))
    assert not ok
    assert message.startswith(f"{case}: MISMATCH in digest.final\n")
    assert "chains agree through cycle 400, diverged by cycle 500" in message
    assert "granularity 2 — event census agrees" in message
    assert main(["golden", "check", case, "--file", str(tampered)]) == 1
    assert capsys.readouterr().out == f"{message}\n1/1 pin(s) FAILED\n"


# -- CLI ----------------------------------------------------------------------
def test_cli_diff_identical_and_perturbed(capsys):
    assert main(["diff", BASE_SPEC, BASE_SPEC]) == 0
    assert "verdict: IDENTICAL" in capsys.readouterr().out

    assert main(["diff", BASE_SPEC, BASE_SPEC + ",perturb=305"]) == 1
    out = capsys.readouterr().out
    assert "verdict: DIVERGED" in out
    assert "first divergent cycle: 305" in out


def test_cli_diff_bad_operand_is_a_clean_error(tmp_path):
    with pytest.raises(SystemExit, match="no such file"):
        main(["diff", str(tmp_path / "nope.json"), BASE_SPEC])


@pytest.mark.parametrize(
    "bad",
    ["rate=-1", "cycles=0", "family=bogus", "warmup=5000,cycles=100", "checkpoint_every=0"],
)
def test_cli_diff_rejects_a_spec_the_simulator_cannot_build(bad, capsys):
    spec = f"{BASE_SPEC},{bad}"
    with pytest.raises(SystemExit) as caught:
        main(["diff", spec, BASE_SPEC])
    message = str(caught.value.code)
    assert message.startswith(f"{spec}: ") and "\n" not in message
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    ("bad", "field"),
    [
        ("family=parallel_mesh,policy=nosuch", "policy"),
        ("family=parallel_mesh,policy=mesh", "policy"),
        ("family=parallel_mesh,onchip_buffer=8", "onchip_buffer"),
        ("family=hetero_phy_torus,interface_buffer=8", "interface_buffer"),
        ("family=serial_hypercube,n_vcs=1", "n_vcs"),
    ],
)
def test_a_system_the_builder_refuses_is_a_clean_diff_error(bad, field, capsys):
    """``build_network``'s refusals (policy, buffer depth, VC count) are
    bad operands, named by field, like the description's own."""
    spec = f"sim:{bad},cycles=300,warmup=30"
    with pytest.raises(DiffError, match=field):
        run_described(parse_sim_spec(spec), telemetry=None)
    with pytest.raises(SystemExit) as caught:
        main(["diff", spec, BASE_SPEC])
    message = str(caught.value.code)
    assert message.startswith(f"{spec}: ") and field in message and "\n" not in message
    assert capsys.readouterr().out == ""


def test_only_a_wedged_event_context_pass_leaves_a_bundle(tmp_path, monkeypatch):
    # The context pass attaches its flight recorder with forensics on, so a
    # re-simulation that raises there leaves the engine's postmortem bundle
    # in ./forensics/ like any other run; the plain passes write nothing.
    def wedge(self, now):
        raise RuntimeError("wedged")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(PerturbedWorkload, "step", wedge)
    with pytest.raises(RuntimeError, match="wedged"):
        resimulate(dict(BASE_META, perturb=305), capture=(1, 200))
    assert not list(tmp_path.iterdir())
    with pytest.raises(RuntimeError, match="wedged") as caught:
        resimulate(dict(BASE_META, perturb=305), recorder=True)
    [bundle] = tmp_path.glob("forensics/BUNDLE_runtime-error_*.json")
    assert caught.value.bundle_path == str(bundle.relative_to(tmp_path))


def test_cli_golden_record_then_check(tmp_path, capsys):
    # Recording on an unchanged tree rewrites the store byte for byte (no
    # timestamps or revisions in it).
    copy = tmp_path / "PINS.json"
    copy.write_bytes(PINS_PATH.read_bytes())
    assert main(["golden", "record", "fig14_hetero_channel", "--file", str(copy)]) == 0
    assert f"recorded 1 pin(s) in {copy}" in capsys.readouterr().out
    assert copy.read_bytes() == PINS_PATH.read_bytes()

    # A pin recorded from other behaviour is put right by `record`.
    pin = base_pin(perturb=305)
    del pin["digest"]["meta"]["perturb"]  # claims to be the unperturbed run
    # `repro diff pin:...` on it brackets the damage and — since re-simulating
    # the pin's meta yields current behaviour, not the recorded one — flags
    # the irreproducible side instead of inventing a divergent cycle.
    stale = Diffable("pin:custom_case", "pin", pin["digest"], pin["stats"])
    report = diff_runs(stale, sim_diffable())
    assert report.interval == (200, 400) and report.divergent_cycle is None
    assert any("did not re-simulate reproducibly" in n for n in report.notes)
    write_pins(copy, custom_case=pin)
    assert main(["golden", "check", "--file", str(copy)]) == 1
    assert "custom_case: MISMATCH in digest." in capsys.readouterr().out
    assert main(["golden", "record", "--file", str(copy)]) == 0
    assert main(["golden", "check", "--file", str(copy)]) == 0
    assert "custom_case: OK" in capsys.readouterr().out


def test_cli_golden_check_without_goldens_is_a_clean_error(tmp_path):
    with pytest.raises(SystemExit, match="No such file"):
        main(["golden", "check", "--file", str(tmp_path / "empty" / "PINS.json")])
    garbled = tmp_path / "PINS.json"
    garbled.write_text("{nope")
    with pytest.raises(SystemExit, match="not valid JSON") as caught:
        main(["golden", "check", "--file", str(garbled)])
    assert isinstance(caught.value.code, str)  # a message: exit status 1
    garbled.write_text(json.dumps({"kind": "golden", "schema_version": 1}))
    with pytest.raises(SystemExit, match="not a pin store"):
        main(["golden", "check", "--file", str(garbled)])


def test_cli_golden_record_rejects_unknown_case(tmp_path, committed):
    with pytest.raises(SystemExit, match="unknown case.*fig99; known: .*fig11"):
        main(["golden", "record", "fig99"])
    # A pin without re-simulation meta cannot be observed: record refuses
    # and leaves the file alone, check fails it and says what its meta lacks.
    pin = base_pin()
    pin["digest"]["meta"] = {}
    copy = write_pins(tmp_path / "PINS.json", bare=pin)
    before = copy.read_bytes()
    with pytest.raises(SystemExit, match="cannot be re-simulated; missing: family"):
        main(["golden", "record", "--file", str(copy)])
    assert main(["golden", "check", "--file", str(copy)]) == 1
    assert copy.read_bytes() == before


def test_cli_golden_check_reports_a_bad_pin_and_checks_the_rest(tmp_path, capsys):
    good = base_pin()
    bare = json.loads(json.dumps(good))
    bare["digest"]["meta"] = {}
    store = write_pins(tmp_path / "PINS.json", a_bare=bare, b_good=good)
    assert main(["golden", "check", "--file", str(store)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("a_bare: FAIL ")
    assert "cannot be re-simulated; missing: family" in out[0]
    assert out[1] == f"b_good: OK ({good['digest']['final']})"
    assert out[2] == "1/2 pin(s) FAILED"


def test_cli_simulate_digest_prints_chain_and_records_block(tmp_path, capsys):
    runs_dir = tmp_path / "runs"
    code = main(
        ["simulate", "--family", "parallel_mesh", "--chiplets", "2x2",
         "--nodes", "2x2", "--cycles", "600", "--rate", "0.1", "--seed", "5",
         "--digest", "--runs-dir", str(runs_dir)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "digest   :" in out
    [record] = RunStore(runs_dir).load()
    assert record.digest["final"] in out
    assert record.digest["meta"]["family"] == "parallel_mesh"


#: A small hetero-PHY point, where halving the interfaces changes the run.
HALVED_ARGS = ["simulate", "--family", "hetero_phy_torus", "--chiplets", "2x2",
               "--nodes", "2x2", "--cycles", "600", "--rate", "0.2", "--seed", "3"]


def test_a_halved_digest_run_resimulates_to_its_own_chain(tmp_path, capsys):
    """``--halved`` is part of the run's description (a meta ``config``
    block), so its record re-simulates to its own chain and config hash."""
    runs_dir = tmp_path / "runs"
    assert main([*HALVED_ARGS, "--halved", "--digest", "--runs-dir", str(runs_dir)]) == 0
    [record] = RunStore(runs_dir).load()
    meta = record.digest["meta"]
    assert meta["config"] == {"parallel_bandwidth": 1, "serial_bandwidth": 2}
    again = resimulate(meta)
    assert again.digest["final"] == record.digest["final"]
    assert again.config_hash == record.config_hash == meta["config_hash"]

    # The same point as a sim: spec, the SimConfig fields named as keys.
    spec = ("sim:family=hetero_phy_torus,chiplets=2x2,nodes=2x2,cycles=600,"
            "warmup=60,rate=0.2,seed=3,parallel_bandwidth=1,serial_bandwidth=2")
    capsys.readouterr()
    assert main(["diff", str(runs_dir / "runs.jsonl"), spec]) == 0
    assert "verdict: IDENTICAL" in capsys.readouterr().out

    # A meta that leaves a field out describes another system, and the
    # re-simulation says so instead of running it.
    del meta["config"]
    with pytest.raises(DiffError, match=f"config_hash {record.config_hash}.* built "):
        resimulate(meta)


def test_sim_spec_config_keys():
    meta = parse_sim_spec(
        "sim:family=serial_torus,vct=0,onchip_buffer=8,interface_buffer=8,"
        "rob_capacity=4,serial_energy_pj_per_bit=1.5,scheduling_policy=performance"
    )
    assert meta["config"] == {
        "onchip_buffer": 8, "interface_buffer": 8, "rob_capacity": 4,
        "serial_energy_pj_per_bit": 1.5, "scheduling_policy": "performance",
    }
    assert "config" not in parse_sim_spec("sim:family=serial_torus")
    with pytest.raises(DiffError, match="invalid onchip_buffer 'deep'; expected e.g. 32"):
        parse_sim_spec("sim:family=serial_torus,onchip_buffer=deep")
    # The horizon is cycles= / warmup=, not a config key.
    with pytest.raises(DiffError, match="unknown sim spec key.*sim_cycles"):
        parse_sim_spec("sim:family=serial_torus,sim_cycles=500")


def test_a_bad_config_value_is_a_clean_diff_error(capsys):
    meta = parse_sim_spec("sim:family=serial_torus,onchip_buffer=0")
    assert meta["config"] == {"onchip_buffer": 0}
    with pytest.raises(DiffError, match="onchip_buffer must be >= 1"):
        resimulate(meta)
    with pytest.raises(SystemExit) as caught:
        main(["diff", "sim:family=serial_torus,onchip_buffer=0", "sim:family=serial_torus"])
    # A message (exit status 1), not a traceback.
    assert caught.value.code == (
        "sim:family=serial_torus,onchip_buffer=0: onchip_buffer must be >= 1"
    )


# -- the fleet page ---------------------------------------------------------
def test_fleet_and_dashboard_render_determinism_sections(tmp_path, committed):
    from repro.telemetry.dashboard import (
        SECTIONS,
        Snapshot,
        determinism_section,
        render_sections,
    )

    runs_dir = tmp_path / "runs"
    store = RunStore(runs_dir)
    block = sim_diffable().digest
    store.append(make_record(digest=block))

    snap = Snapshot(runs_dir, bench_dirs=[tmp_path], results_dir=tmp_path)
    assert "<h2>Determinism</h2>" in render_sections(SECTIONS, snap)

    # The committed store: every pin, and whether it describes itself.
    section = determinism_section(snap)
    assert all(pin["digest"]["final"] in section for pin in committed.values())
    assert section.count("<td>yes</td>") == 22
    assert block["final"] in section  # the digested registry run

    # No store yet is an empty state; an unreadable one degrades to an
    # alarm row, not a crash.
    missing = tmp_path / "goldens" / "PINS.json"
    assert "no pinned runs yet" in determinism_section(snap, pins_path=missing)
    missing.parent.mkdir()
    missing.write_text("{nope")
    assert "unreadable pin store" in determinism_section(snap, pins_path=missing)
