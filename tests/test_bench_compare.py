"""Tests for the BENCH document reader and the noise-aware pairwise rule
(`repro regress A B`)."""

import json
import math
import tempfile
from pathlib import Path

import pytest

from repro.telemetry.bench import (
    BENCH_SCHEMA_VERSION,
    ROOT,
    bench_files,
    case_metrics,
    catalogue,
    load_bench,
    next_bench_path,
)
from repro.telemetry.compare import classify
from repro.telemetry.history import load_history
from repro.telemetry.sentinel import analyze_history, render_sentinel

from .test_runstore import make_record


def write_bench(doc, directory):
    """Write a bench document to the next free ``BENCH_<n>.json`` of ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = next_bench_path(directory)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


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


def write_docs(tmp_path, *docs):
    """``docs`` as ``BENCH_<i>.json`` files of a fresh directory, in order."""
    directory = Path(tempfile.mkdtemp(dir=tmp_path))
    paths = [directory / f"BENCH_{index}.json" for index in range(len(docs))]
    for path, doc in zip(paths, docs):
        path.write_text(json.dumps(doc))
    return paths


def judge(tmp_path, *docs, metric_prefixes=()):
    """What `repro regress` reports over ``docs`` given oldest first."""
    history = load_history(paths=write_docs(tmp_path, *docs), strict=True)
    return analyze_history(history, metric_prefixes=metric_prefixes)


def by_metric(report, case="fig11"):
    return {r.metric: r for r in report.reports if r.case == case}


# -- verdict logic -----------------------------------------------------------
def test_classify_noise_within_floor():
    v = classify("c", "m", 100.0, 103.0, higher_is_better=True)
    assert v.verdict == "noise"


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


# -- bench-vs-bench: two runs are judged pairwise ------------------------------
def test_compare_bench_flags_event_drift_not_timing_noise(tmp_path):
    a = make_bench_doc(fig11=make_case(hops=400_000.0, iqr=80_000.0))
    b = make_bench_doc(
        fig11=make_case(
            hops=290_000.0,  # past the 25% bound, but within 1.5 * IQR: noise
            iqr=80_000.0,
            counts={"noc.router.flit_hops": 1_001, "core.rob.inserts": 50},  # +0.1%: real
        )
    )
    report = judge(tmp_path, a, b)
    verdicts = {metric: r.verdict for metric, r in by_metric(report).items()}
    assert verdicts["flit_hops_per_s"] == "noise"
    assert verdicts["noc.router.flit_hops"] == "regressed"  # zero tolerance
    assert verdicts["core.rob.inserts"] == "noise"
    assert [r.metric for r in report.regressions()] == ["noc.router.flit_hops"]
    # An exact row has no good direction: fewer hops is as much a behaviour change.
    assert by_metric(judge(tmp_path, b, a))["noc.router.flit_hops"].verdict == "regressed"


def test_compare_bench_skips_non_overlapping_cases(tmp_path):
    # A workload only one run carries has nothing to be judged against.
    report = judge(tmp_path, make_bench_doc(only_in_a=make_case()),
                   make_bench_doc(only_in_b=make_case()))
    assert {r.case for r in report.reports} == {"only_in_a", "only_in_b"}
    assert {r.verdict for r in report.reports} == {"insufficient-history", "ok", "n/a"}
    assert all(r.finite_points <= 1 for r in report.reports)


def test_render_comparison_table(tmp_path):
    a = make_bench_doc(fig11=make_case(hops=400_000.0, iqr=0.0))
    b = make_bench_doc(fig11=make_case(hops=600_000.0, iqr=0.0))
    text = render_sentinel(judge(tmp_path, a, b))
    assert "over 2 bench run(s)" in text
    assert "+ improved @ BENCH_1.json" in text and "+50.0%" in text
    assert "= noise" in text
    assert "0 regression(s)" in text


def test_compare_bench_covers_mem_peak(tmp_path):
    a = make_bench_doc(fig11=make_case(rss=40.0))
    worse = make_bench_doc(fig11=make_case(rss=44.0))
    close = make_bench_doc(fig11=make_case(rss=41.0))
    # +10% past BENCHMARK.json's 5% bound; +2.5% inside it.
    assert by_metric(judge(tmp_path, a, worse))["peak_rss_mb"].verdict == "regressed"
    assert by_metric(judge(tmp_path, a, close))["peak_rss_mb"].verdict == "noise"


def test_compare_bench_pre_mem_artifacts_read_na(tmp_path):
    old = make_bench_doc(fig11=make_case())
    del old["workloads"]["fig11"]["end_to_end"]["peak_rss_mb"]  # a block without the cell
    new = make_bench_doc(fig11=make_case())
    for pair in ((old, new), (new, old), (old, old)):
        report = by_metric(judge(tmp_path, *pair))["peak_rss_mb"]
        assert report.verdict == "n/a"
        assert report.changepoint is None


def test_an_event_that_did_not_fire_counts_zero_not_na(tmp_path):
    # The harness writes every per-layer name on every workload, 0 = did not
    # happen: 0 -> 50 is drift on an exact row, not a missing value.
    a = make_bench_doc(fig11=make_case(counts={"noc.router.flit_hops": 1_000, "core.rob.inserts": 0}))
    b = make_bench_doc(fig11=make_case())
    new_event = by_metric(judge(tmp_path, a, b))["core.rob.inserts"]
    assert (new_event.baseline, new_event.latest, new_event.verdict) == (0.0, 50.0, "regressed")
    # (b) A --trace 0 document carries no per_layer at all: it loads and is
    # judged on the end-to-end rows only; against a traced one the rest is n/a.
    bare = make_bench_doc(fig11=make_case(counts={}))
    assert set(by_metric(judge(tmp_path, bare, bare))) == {
        "wall_s", "setup_s", "flit_hops_per_s", "peak_rss_mb", "failed_points"
    }
    assert {
        r.verdict for metric, r in by_metric(judge(tmp_path, bare, b)).items()
        if metric.startswith(("noc.", "core."))
    } == {"n/a"}


def test_a_small_host_phase_that_blows_up_is_judged_on_its_real_value(tmp_path):
    def phases(stats_ns):
        return {"noc.router.sa_st_ns_per_flit_hop": 1_000.0,
                "sim.engine.stats_ns_per_flit_hop": stats_ns}

    a = make_bench_doc(fig11=make_case(layers=phases(5.0)))  # 0.5% of the loop
    b = make_bench_doc(fig11=make_case(layers=phases(200.0)))  # 16.7%
    history = load_history(paths=write_docs(tmp_path, a, b))
    # Host time of one layer is kept as it is, for culprit hints, without a
    # verdict (`run.py --agree`'s rule): it can never trip a gate.
    stats = history.get("fig11", "sim.engine.stats_ns_per_flit_hop")
    assert stats.values == [5.0, 200.0] and stats.auxiliary
    report = analyze_history(history)
    assert "sim.engine.stats_ns_per_flit_hop" not in by_metric(report)
    assert report.regressions() == []


def test_documents_of_different_inputs_compare_host_metrics_only(tmp_path):
    """(a) Another seed or a --smoke run simulates something else: the timed
    rows are still judged, every exact row reads n/a, one line says why."""
    base = make_bench_doc(fig11=make_case(hops=400_000.0, iqr=0.0))
    slow = make_case(hops=200_000.0, iqr=0.0, counts={"noc.router.flit_hops": 7})
    for other in (make_bench_doc(seed=2, fig11=slow), make_bench_doc(smoke=True, fig11=slow)):
        report = judge(tmp_path, base, other)
        reports = by_metric(report)
        assert reports["flit_hops_per_s"].verdict == "regressed"
        exact = {"failed_points", "noc.router.flit_hops", "core.rob.inserts"}
        assert {reports[metric].verdict for metric in exact} == {"n/a"}
        text = render_sentinel(report)
        assert text.count("exact rows read n/a: the two runs differ in seed or --smoke") == 1
    assert "exact rows read n/a" not in render_sentinel(judge(tmp_path, base, base))


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


# -- N files, oldest first -----------------------------------------------------
def _write_chain(tmp_path, *hops_values):
    return write_docs(tmp_path, *(make_bench_doc(fig11=make_case(hops=hops, iqr=0.0))
                                  for hops in hops_values))


def test_compare_chain_adjacent_pairs(tmp_path):
    """A history too short for the changepoint test judges its newest step."""
    def throughput(*hops):
        history = load_history(paths=_write_chain(tmp_path, *hops))
        return by_metric(analyze_history(history))["flit_hops_per_s"]

    dropped = throughput(500_000.0, 505_000.0, 300_000.0)
    assert (dropped.verdict, dropped.changepoint_key) == ("regressed", "BENCH_2.json")
    assert dropped.baseline == 505_000.0 and dropped.rel_shift == pytest.approx(-0.406, abs=1e-3)
    assert throughput(500_000.0, 300_000.0, 302_000.0).verdict == "noise"


def test_render_chain_single_step_keeps_two_operand_output(tmp_path, capsys):
    """Two files named on the command line read exactly like a directory
    holding just those two runs."""
    from repro.cli import main

    paths = _write_chain(tmp_path, 500_000.0, 300_000.0)
    assert main(["regress", *map(str, paths)]) == 0
    named = capsys.readouterr().out
    assert main(["regress", "--bench-dir", str(paths[0].parent)]) == 0
    assert capsys.readouterr().out == named
    assert "! regressed @ BENCH_1.json" in named


def test_compare_chain_validates_operands(tmp_path, capsys):
    from repro.cli import main

    [bench] = _write_chain(tmp_path, 500_000.0)
    assert main(["regress", str(bench)]) == 0  # one run: nothing to judge yet
    assert "insufficient-history" in capsys.readouterr().out
    record_path = tmp_path / "record.json"
    record_path.write_text(json.dumps(make_record().to_dict()))
    with pytest.raises(SystemExit, match="not supported"):
        main(["regress", str(bench), str(record_path)])


def test_chain_report_is_json_safe(tmp_path, capsys):
    from repro.cli import main

    paths = _write_chain(tmp_path, 500_000.0, 500_000.0, 300_000.0)
    out = tmp_path / "report.json"
    assert main(["regress", *map(str, paths), "--json", str(out)]) == 0
    doc = json.loads(out.read_text())  # NaN-free (n/a values serialize as null)
    assert doc["kind"] == "sentinel" and doc["runs"] == 3
    assert doc["regressions"] == 1
    reports = {r["metric"]: r for r in doc["reports"]}
    assert reports["flit_hops_per_s"]["changepoint"]["key"] == "BENCH_2.json"
    # A per-layer row the blocks do not carry still reports, as null / n/a.
    assert reports["sim.stats.digest_chain"]["latest"] is None
    assert reports["sim.stats.digest_chain"]["verdict"] == "n/a"
    capsys.readouterr()


def test_compare_paths_rejects_mixed_kinds(tmp_path):
    bench_path = write_bench(make_bench_doc(fig11=make_case()), tmp_path)
    record_path = tmp_path / "one.json"
    record_path.write_text(json.dumps(make_record().to_dict()))
    with pytest.raises(ValueError, match="not supported"):
        load_history(paths=[bench_path, record_path], strict=True)
    with pytest.raises(OSError):
        load_history(paths=[bench_path, tmp_path / "nope.json"], strict=True)


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
    # Against itself: every row `=`, nothing regressed, host rows unjudged.
    report = judge(tmp_path, bench_doc, bench_doc)
    assert {r.verdict for r in report.reports} == {"noise"}
    assert not any(r.metric.endswith("_ns_per_flit_hop") for r in report.reports)


# -- the committed trajectory: recorded pairwise verdicts ----------------------
def _verdict_pairs(tmp_path):
    """The pairs of ``tests/data/compare_verdicts.json``, as file paths.

    The third pair's newer file is ``BENCH_26.json`` doctored: one more
    ``noc.router.flit_hops`` on ``phy_steady_256`` (an exact row) and its
    ``flit_hops_per_s`` median and samples halved (a timed one).
    """
    recorded = json.loads((ROOT / "tests" / "data" / "compare_verdicts.json").read_text())
    spec = recorded["doctored"]
    doc = json.loads((ROOT / spec["base"]).read_text())
    block = doc["workloads"][spec["workload"]]
    block["per_layer"][spec["plus_one"]]["value"] += 1
    cell = block["end_to_end"][spec["halved"]]
    cell["median"] /= 2
    cell["samples"] = [sample / 2 for sample in cell["samples"]]
    (tmp_path / "BENCH_26_doctored.json").write_text(json.dumps(doc))
    for pair in recorded["pairs"]:
        paths = [ROOT / name if (ROOT / name).is_file() else tmp_path / name
                 for name in (pair["a"], pair["b"])]
        yield paths, pair


def test_regress_pair_gives_compare_verdicts(tmp_path, capsys):
    """`repro regress A B` gives every judged (workload, metric) row, and the
    two CI gate invocations their exit status, as `repro compare A B` did
    (recorded in the data file before the two commands became one)."""
    from repro.cli import main

    for (a, b), pair in _verdict_pairs(tmp_path):
        report = tmp_path / "verdicts.json"
        assert main(["regress", str(a), str(b), "--json", str(report)]) == 0
        got = {f"{r['case']} {r['metric']}": r["verdict"]
               for r in json.loads(report.read_text())["reports"]}
        assert got == pair["verdicts"], (pair["a"], pair["b"])
        gates = (
            ["--metric", "sim", "--metric", "noc", "--metric", "core", "--metric", "traffic",
             "--metric", "exps", "--metric", "failed_points"],
            ["--metric", "flit_hops_per_s", "--rel-floor", "0.5"],
        )
        codes = [main(["regress", str(a), str(b), "--strict", *gate]) for gate in gates]
        assert codes == pair["ci_exit"], (pair["a"], pair["b"])
    capsys.readouterr()
