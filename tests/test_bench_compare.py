"""Tests for the BENCH document reader and the noise-aware comparison."""

import json
import math

import pytest

from repro.telemetry.bench import (
    BENCH_SCHEMA_VERSION,
    ROOT,
    bench_files,
    case_metrics,
    catalogue,
    load_bench,
    next_bench_path,
    write_bench,
)
from repro.telemetry.compare import (
    chain_report,
    classify,
    compare_bench,
    compare_chain,
    compare_records,
    load_comparable,
    regressions,
    render_chain,
    render_comparison,
)
from .test_runstore import make_record


def cell(median, unit, iqr=0.0):
    """An ``end_to_end`` cell whose three samples have that median and IQR."""
    samples = [median - iqr, median, median + iqr]
    return {"unit": unit, "median": median, "n": 3, "samples": samples}


def make_case(hops=400_000.0, iqr=8_000.0, wall=4.0, rss=41.0, counts=None, layers=None):
    """One workload block in the shape ``benchmarks/perf/run.py --out`` writes.

    ``counts`` are exact per-layer rows (default: two of them), ``layers``
    host-time ones; ``counts={}`` alone is a ``--trace 0`` block.
    """
    counts = {"noc.router.flit_hops": 1_000, "core.rob.inserts": 50} if counts is None else counts
    end_to_end = {"wall_s": cell(wall, "s", 0.05), "setup_s": cell(0.2, "s"),
                  "flit_hops_per_s": cell(hops, "hops/s", iqr), "peak_rss_mb": cell(rss, "MB")}
    per_layer = {name: {"value": value} for name, value in {**counts, **(layers or {})}.items()}
    return {"seed": 1, "reps": 3, "end_to_end": end_to_end, "per_layer": per_layer,
            "fingerprint": "0123456789ab", "matches_pinned": 1, "points": 1, "failed_points": 0}


def make_bench_doc(seed=1, smoke=False, **workloads):
    return {"git_rev": "cafef00d", "created": "2026-01-01T00:00:00+00:00",
            "schema": BENCH_SCHEMA_VERSION, "seed": seed, "smoke": smoke, "workloads": workloads}


# -- verdict logic -----------------------------------------------------------
def test_classify_noise_within_floor():
    v = classify("c", "m", 100.0, 103.0, higher_is_better=True)
    assert v.verdict == "noise"
    assert v.rel_delta == pytest.approx(0.03)


def test_classify_improved_and_regressed():
    up = classify("c", "cps", 100.0, 120.0, higher_is_better=True)
    down = classify("c", "cps", 100.0, 80.0, higher_is_better=True)
    assert (up.verdict, down.verdict) == ("improved", "regressed")
    # For lower-is-better metrics the directions flip.
    lat_up = classify("c", "latency", 100.0, 120.0, higher_is_better=False)
    assert lat_up.verdict == "regressed"


def test_classify_iqr_widens_threshold():
    # 10% delta: past the 5% floor, but within 1.5x a wide IQR.
    v = classify("c", "m", 100.0, 110.0, higher_is_better=True, iqr=20.0)
    assert v.verdict == "noise"
    assert v.threshold == pytest.approx(30.0)


def test_classify_nan_is_not_applicable():
    v = classify("c", "m", float("nan"), 1.0, higher_is_better=True)
    assert v.verdict == "n/a"
    assert math.isnan(v.threshold)


# -- bench-vs-bench ----------------------------------------------------------
def test_compare_bench_flags_event_drift_not_timing_noise():
    a = make_bench_doc(fig11=make_case(hops=400_000.0, iqr=80_000.0))
    b = make_bench_doc(
        fig11=make_case(
            hops=290_000.0,  # past the 25% bound, but within 1.5 * IQR: noise
            iqr=80_000.0,
            counts={"noc.router.flit_hops": 1_001, "core.rob.inserts": 50},  # +0.1%: real
        )
    )
    verdicts = compare_bench(a, b)
    by_metric = {v.metric: v.verdict for v in verdicts}
    assert by_metric["flit_hops_per_s"] == "noise"
    assert by_metric["noc.router.flit_hops"] == "regressed"  # zero tolerance
    assert by_metric["core.rob.inserts"] == "noise"
    assert [v.metric for v in regressions(verdicts)] == ["noc.router.flit_hops"]
    # An exact row has no good direction: fewer hops is as much a behaviour change.
    by_metric = {v.metric: v.verdict for v in compare_bench(b, a)}
    assert by_metric["noc.router.flit_hops"] == "regressed"


def test_compare_bench_skips_non_overlapping_cases():
    a = make_bench_doc(only_in_a=make_case())
    b = make_bench_doc(only_in_b=make_case())
    assert compare_bench(a, b) == []
    assert "no overlapping" in render_comparison([])


def test_render_comparison_table():
    a = make_bench_doc(fig11=make_case(hops=400_000.0, iqr=0.0))
    b = make_bench_doc(fig11=make_case(hops=600_000.0, iqr=0.0))
    text = render_comparison(compare_bench(a, b), label_a="old", label_b="new")
    assert "flit_hops_per_s" in text
    assert "+ improved" in text
    assert "regression(s)" in text


def test_compare_bench_covers_mem_peak():
    a = make_bench_doc(fig11=make_case(rss=40.0))
    worse = make_bench_doc(fig11=make_case(rss=44.0))
    close = make_bench_doc(fig11=make_case(rss=41.0))
    by = {v.metric: v.verdict for v in compare_bench(a, worse)}
    assert by["peak_rss_mb"] == "regressed"  # +10% past BENCHMARK.json's 5% bound
    by = {v.metric: v.verdict for v in compare_bench(a, close)}
    assert by["peak_rss_mb"] == "noise"  # +2.5% inside it


def test_compare_bench_pre_mem_artifacts_read_na():
    old = make_bench_doc(fig11=make_case())
    del old["workloads"]["fig11"]["end_to_end"]["peak_rss_mb"]  # a block without the cell
    new = make_bench_doc(fig11=make_case())
    for pair in ((old, new), (new, old), (old, old)):
        [verdict] = [v for v in compare_bench(*pair) if v.metric == "peak_rss_mb"]
        assert verdict.verdict == "n/a"
        assert math.isnan(verdict.threshold)


def test_an_event_that_did_not_fire_counts_zero_not_na():
    # The harness writes every per-layer name on every workload, 0 = did not
    # happen: 0 -> 50 is drift on an exact row, not a missing value.
    a = make_bench_doc(fig11=make_case(counts={"noc.router.flit_hops": 1_000, "core.rob.inserts": 0}))
    b = make_bench_doc(fig11=make_case())
    [new_event] = [v for v in compare_bench(a, b) if v.metric == "core.rob.inserts"]
    assert (new_event.a, new_event.b, new_event.verdict) == (0.0, 50.0, "regressed")
    # (b) A --trace 0 document carries no per_layer at all: it loads and is
    # judged on the end-to-end rows only; against a traced one the rest is n/a.
    bare = make_bench_doc(fig11=make_case(counts={}))
    assert {v.metric for v in compare_bench(bare, bare)} == {
        "wall_s", "setup_s", "flit_hops_per_s", "peak_rss_mb", "failed_points"
    }
    assert {
        v.verdict for v in compare_bench(bare, b) if v.metric.startswith(("noc.", "core."))
    } == {"n/a"}


def test_a_small_host_phase_that_blows_up_is_judged_on_its_real_value():
    def phases(stats_ns):
        return {"noc.router.sa_st_ns_per_flit_hop": 1_000.0,
                "sim.engine.stats_ns_per_flit_hop": stats_ns}

    a = make_bench_doc(fig11=make_case(layers=phases(5.0)))  # 0.5% of the loop
    b = make_bench_doc(fig11=make_case(layers=phases(200.0)))  # 16.7%
    [stats] = [v for v in compare_bench(a, b) if v.metric == "sim.engine.stats_ns_per_flit_hop"]
    # Host time of one layer is printed as it is, delta included, without a
    # verdict (`run.py --agree`'s rule): it can never trip a gate.
    assert (stats.a, stats.b, stats.verdict, stats.rel_delta) == (5.0, 200.0, "info", 39.0)
    assert regressions(compare_bench(a, b)) == []


def test_documents_of_different_inputs_compare_host_metrics_only():
    """(a) Another seed or a --smoke run simulates something else: the timed
    rows are still judged, every exact row reads n/a, one line says why."""
    base = make_bench_doc(fig11=make_case(hops=400_000.0, iqr=0.0))
    slow = make_case(hops=200_000.0, iqr=0.0, counts={"noc.router.flit_hops": 7})
    for other in (make_bench_doc(seed=2, fig11=slow), make_bench_doc(smoke=True, fig11=slow)):
        verdicts = compare_bench(base, other)
        by_metric = {v.metric: v.verdict for v in verdicts}
        assert by_metric["flit_hops_per_s"] == "regressed"
        exact = [v for v in verdicts if v.exact]
        assert {v.metric for v in exact} >= {"failed_points", "noc.router.flit_hops"}
        assert {v.verdict for v in exact} == {"n/a"}
        text = render_comparison(verdicts)
        assert text.count("exact rows read n/a: the two runs differ in seed or --smoke") == 1
    assert "exact rows read n/a" not in render_comparison(compare_bench(base, base))


def test_the_catalogue_is_benchmark_json(bench_doc):
    """(c) `src/` carries no metric list of its own: what is read off a full
    document is exactly what BENCHMARK.json lists (plus the contract line's
    `failed`), with its units, directions and bounds."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m for m in contract["end_to_end"] + contract["per_layer"]}
    for name, block in bench_doc["workloads"].items():
        metrics = case_metrics(block)
        assert set(metrics) == set(listed) | {"failed_points"}, name
        for metric, entry in listed.items():
            got = metrics[metric]
            assert math.isfinite(got.value), (name, metric)
            assert (got.unit, got.higher_is_better) == (entry["unit"], entry["better"] == "higher")
            assert "bound" not in entry or (got.rel_floor, got.exact) == (entry["bound"], False)
    end_to_end, per_layer = catalogue()
    assert sum(m.exact for m in per_layer.values()) == 24  # spec.PER_LAYER's exact column
    assert all((m.rel_floor is None) != m.exact for m in per_layer.values())


# -- N-way chains ------------------------------------------------------------
def _write_chain(tmp_path, *hops_values):
    paths = []
    for index, hops in enumerate(hops_values):
        path = tmp_path / f"BENCH_{index}.json"
        path.write_text(json.dumps(make_bench_doc(fig11=make_case(hops=hops, iqr=0.0))))
        paths.append(path)
    return paths


def test_compare_chain_adjacent_pairs(tmp_path):
    paths = _write_chain(tmp_path, 500_000.0, 505_000.0, 300_000.0)
    steps = compare_chain(paths)
    assert [(a, b) for a, b, _ in steps] == [
        ("BENCH_0.json", "BENCH_1.json"),
        ("BENCH_1.json", "BENCH_2.json"),
    ]
    first = {v.metric: v.verdict for v in steps[0][2]}
    second = {v.metric: v.verdict for v in steps[1][2]}
    assert first["flit_hops_per_s"] == "noise"
    assert second["flit_hops_per_s"] == "regressed"

    text = render_chain(steps)
    assert "step 1/2: BENCH_0.json -> BENCH_1.json" in text
    assert "chain total: 1 regression(s) across 2 step(s)" in text


def test_render_chain_single_step_keeps_two_operand_output(tmp_path):
    paths = _write_chain(tmp_path, 500_000.0, 300_000.0)
    steps = compare_chain(paths)
    [(label_a, label_b, verdicts)] = steps
    assert render_chain(steps) == render_comparison(
        verdicts, label_a=label_a, label_b=label_b
    )
    assert "step 1/1" not in render_chain(steps)


def test_compare_chain_validates_operands(tmp_path):
    with pytest.raises(ValueError, match="at least two"):
        compare_chain([tmp_path / "only.json"])
    [bench] = _write_chain(tmp_path, 500_000.0)
    record_path = tmp_path / "record.json"
    record_path.write_text(json.dumps(make_record().to_dict()))
    with pytest.raises(ValueError, match="mixed kinds"):
        compare_chain([bench, record_path])


def test_chain_report_is_json_safe(tmp_path):
    paths = _write_chain(tmp_path, 500_000.0, 300_000.0, 300_000.0)
    doc = chain_report(compare_chain(paths), gate=["flit_hops_per_s"])
    assert doc["kind"] == "compare"
    assert doc["regressions"] == 1
    assert [s["regressions"] for s in doc["steps"]] == [1, 0]
    json.dumps(doc)  # NaN-free (n/a verdicts serialize as null)
    by_metric = {v["metric"]: v for v in doc["steps"][0]["verdicts"]}
    # A per-layer row the blocks do not carry still reports, as null / n/a.
    assert by_metric["sim.stats.digest_chain"]["a"] is None
    assert by_metric["sim.stats.digest_chain"]["verdict"] == "n/a"


# -- record-vs-record --------------------------------------------------------
def test_compare_records_metrics():
    a = make_record(cycles_per_second=4_000.0, stats={"avg_latency": 20.0})
    b = make_record(cycles_per_second=3_000.0, stats={"avg_latency": 20.2})
    by_metric = {v.metric: v.verdict for v in compare_records(a, b)}
    assert by_metric["cycles_per_second"] == "regressed"
    assert by_metric["stats.avg_latency"] == "noise"
    assert by_metric["stats.avg_energy_pj"] == "n/a"  # absent on both sides


# -- file-level dispatch -----------------------------------------------------
def test_load_comparable_dispatches_on_content(tmp_path):
    bench_path = write_bench(make_bench_doc(fig11=make_case()), tmp_path)
    kind, doc = load_comparable(bench_path)
    assert kind == "bench" and "fig11" in doc["workloads"]

    record = make_record()
    record_path = tmp_path / "one.json"
    record_path.write_text(json.dumps(record.to_dict()))
    kind, loaded = load_comparable(record_path)
    assert kind == "record" and loaded == record

    from repro.telemetry.runstore import RunStore

    store = RunStore(tmp_path / "runs")
    store.append(make_record(label="older"))
    store.append(record)
    kind, latest = load_comparable(store.path)
    assert kind == "record" and latest.run_id == record.run_id

    with pytest.raises(FileNotFoundError):
        load_comparable(tmp_path / "nope.json")
    junk = tmp_path / "junk.json"
    junk.write_text('{"neither": true}')
    with pytest.raises(ValueError, match="neither"):
        load_comparable(junk)


def test_compare_paths_rejects_mixed_kinds(tmp_path):
    bench_path = write_bench(make_bench_doc(fig11=make_case()), tmp_path)
    record_path = tmp_path / "one.json"
    record_path.write_text(json.dumps(make_record().to_dict()))
    with pytest.raises(ValueError, match="cannot compare"):
        compare_chain([bench_path, record_path])


# -- BENCH_<n>.json plumbing -------------------------------------------------
def test_bench_files_number_and_sort(tmp_path):
    doc = make_bench_doc(fig11=make_case())
    assert next_bench_path(tmp_path).name == "BENCH_0.json"
    first = write_bench(doc, tmp_path)
    assert first.name == "BENCH_0.json"
    (tmp_path / "BENCH_10.json").write_text(json.dumps(doc))
    second = write_bench(doc, tmp_path)
    assert second.name == "BENCH_11.json"
    (tmp_path / "BENCH_2.json").write_text(json.dumps(doc))
    (tmp_path / "BENCH_baseline.json").write_text(json.dumps(doc))  # no index
    names = [p.name for p in bench_files(tmp_path)]
    assert names == ["BENCH_0.json", "BENCH_2.json", "BENCH_10.json", "BENCH_11.json"]


def test_load_bench_rejects_foreign_schema(tmp_path):
    doc = make_bench_doc(fig11=make_case())
    doc["schema"] = BENCH_SCHEMA_VERSION + 1
    path = tmp_path / "BENCH_0.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="not supported"):
        load_bench(path)
    # The three-case format `repro bench` wrote before PR 24 has no reader.
    path.write_text(json.dumps({"schema_version": 1, "kind": "bench", "cases": {}}))
    with pytest.raises(ValueError, match="not supported"):
        load_bench(path)


# -- the recorded harness run --------------------------------------------------
def test_recorded_smoke_document_has_the_harness_shape(bench_doc, tmp_path):
    """``tests/data/BENCH_smoke.json`` is a real ``run.py --all --smoke --trace 1
    --out`` document: what every reader above is fed in production."""
    assert bench_doc["schema"] == BENCH_SCHEMA_VERSION and bench_doc["smoke"] is True
    assert list(bench_doc["workloads"]) == [
        "fig11_cli_tiny", "phy_steady_256", "mesh_saturated_256", "channel_moc_trace_256"
    ]
    for block in bench_doc["workloads"].values():
        assert block["failed_points"] == 0 and block["matches_pinned"] == -1  # smoke: no pin
        cellular = block["end_to_end"]["flit_hops_per_s"]
        assert cellular["median"] > 0 and len(cellular["samples"]) == cellular["n"]
        assert block["per_layer"]["noc.router.flit_hops"]["value"] > 0
        assert int(block["fingerprint"], 16) == block["per_layer"]["sim.stats.fingerprint"]["value"]
    path = write_bench(bench_doc, tmp_path)
    assert load_bench(path) == bench_doc
    # Against itself: every exact row `=`, nothing regressed, host rows unjudged.
    verdicts = compare_bench(bench_doc, bench_doc)
    assert {v.verdict for v in verdicts} == {"noise", "info"}
    assert {v.verdict for v in verdicts if v.exact} == {"noise"}
