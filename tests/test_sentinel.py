"""Tests for the regression sentinel (``repro.telemetry.sentinel`` /
``repro.telemetry.history``)."""

import json

import pytest

from repro.telemetry.history import MetricSeries, SeriesPoint, load_history
from repro.telemetry.sentinel import (
    SENTINEL_SCHEMA_VERSION,
    SentinelConfig,
    analyze_history,
    detect_changepoint,
    render_sentinel,
)

from .helpers import make_history, write_history
from .test_bench_compare import make_bench_doc, make_case


def series_of(values, metric="flit_hops_per_s", higher=True, aux=False, exact=False):
    points = [
        SeriesPoint(f"run-{i:03d}", f"2026-01-01T00:{i:02d}:00+00:00", "rev", "seed=1", v)
        for i, v in enumerate(values)
    ]
    return MetricSeries("case", metric, higher_is_better=higher, points=points,
                        auxiliary=aux, exact=exact)


# -- the detector ------------------------------------------------------------
def test_detector_finds_a_clean_step():
    values = [100.0] * 12 + [80.0] * 12
    cp = detect_changepoint(values)
    assert cp is not None
    assert cp.index == 12
    assert cp.effect == 1.0
    assert cp.shift == pytest.approx(-20.0)


def test_detector_ignores_noise_within_the_band():
    # ±2% jitter around a flat level: under the 5% relative floor.
    values = [100.0 + 2.0 * ((-1) ** i) for i in range(24)]
    assert detect_changepoint(values) is None


def test_detector_rank_gate_resists_single_outliers():
    # One wild spike must not fake a step: the rank effect of a
    # one-point excursion never clears min_effect.
    values = [100.0] * 10 + [500.0] + [100.0] * 10
    assert detect_changepoint(values) is None


def test_detector_skips_nan_but_reports_original_index():
    values = [100.0, float("nan"), 100.0, 100.0, float("nan"), 100.0,
              80.0, 80.0, 80.0, float("nan"), 80.0, 80.0, 80.0]
    cp = detect_changepoint(values, SentinelConfig(window=4, min_segment=2))
    assert cp is not None
    assert values[cp.index] == 80.0
    assert cp.index == 6  # original-series coordinates, not finite-subsequence


def test_detector_needs_min_segment_on_both_sides():
    assert detect_changepoint([100.0, 80.0], SentinelConfig()) is None


def test_config_validation():
    with pytest.raises(ValueError, match="window must be >= min_segment"):
        SentinelConfig(window=2, min_segment=3)
    with pytest.raises(ValueError, match="min_segment must be >= 2"):
        SentinelConfig(min_segment=1)
    with pytest.raises(ValueError, match="min_effect"):
        SentinelConfig(min_effect=0.0)


def test_sentinel_band_is_compares_threshold():
    """One band: the sentinel's window threshold is `noise_band` over the
    files' own median/IQR rule, i.e. what `classify` would use."""
    from repro.telemetry.bench import median_iqr
    from repro.telemetry.compare import classify, noise_band
    from repro.telemetry.sentinel import _noise_band

    samples = [100.0, 104.0, 97.0, 131.0, 99.0, 102.0, 95.0]
    config = SentinelConfig()
    baseline, iqr = median_iqr(samples)
    assert iqr == pytest.approx(5.0)  # inclusive quartiles: 98.0 .. 103.0
    band = _noise_band(samples, config)
    assert band == noise_band(baseline, iqr, config.rel_floor, config.iqr_k)
    assert band == pytest.approx(1.5 * 5.0)
    verdict = classify("c", "m", baseline, baseline + band, higher_is_better=True,
                       iqr=iqr)
    assert verdict.threshold == band and verdict.verdict == "noise"
    # A tight window falls back to the relative floor, again like compare.
    assert _noise_band([100.0, 100.0, 100.0], config) == pytest.approx(5.0)


# -- verdicts ----------------------------------------------------------------
def history_with(*series):
    from repro.telemetry.history import RunHistory

    history = RunHistory(runs=max((len(s.points) for s in series), default=0))
    for s in series:
        history.series[(s.case, s.metric)] = s
    return history


def test_verdicts_for_step_and_recovery():
    stepped = history_with(series_of([100.0] * 10 + [80.0] * 10))
    [report] = analyze_history(stepped).reports
    assert report.verdict == "regressed"
    assert report.changepoint_key == "run-010"
    assert report.rel_shift == pytest.approx(-0.2)

    # The same step, later fixed: the changepoint is still reported but
    # the trailing window sits back at the baseline, so the verdict is ok.
    recovered = history_with(series_of([100.0] * 10 + [80.0] * 10 + [100.0] * 10))
    [report] = analyze_history(recovered).reports
    assert report.verdict == "ok"
    assert report.changepoint is not None


def test_verdict_direction_respects_higher_is_better():
    # Same upward step: an improvement for hops/s, a regression for seconds.
    up = [100.0] * 10 + [130.0] * 10
    [hops] = analyze_history(history_with(series_of(up))).reports
    [wall] = analyze_history(
        history_with(series_of(up, metric="wall_s", higher=False))
    ).reports
    assert hops.verdict == "improved"
    assert wall.verdict == "regressed"
    # A series carries its metric's own bound: +30% sits inside a 50% floor.
    wide = series_of(up)
    wide.rel_floor = 0.5
    [report] = analyze_history(history_with(wide)).reports
    assert report.verdict == "ok" and report.changepoint is None


def test_insufficient_history_and_na_verdicts():
    single = history_with(series_of([100.0]))
    [report] = analyze_history(single).reports
    assert report.verdict == "insufficient-history"
    # Too short for the changepoint test: the newest run is judged against the
    # one before it by compare's pair rule, which names the within-band case.
    [report] = analyze_history(history_with(series_of([100.0, 60.0, 62.0]))).reports
    assert (report.verdict, report.baseline, report.latest) == ("noise", 60.0, 62.0)

    empty = history_with(series_of([float("nan")] * 10, metric="peak_rss_mb",
                                   higher=False))
    [report] = analyze_history(empty).reports
    assert report.verdict == "n/a"
    assert report.finite_points == 0


def test_digest_stability_any_zero_regresses():
    # An exact series needs no history and no band: the first run whose chain
    # differs from the previous one regresses, even if a later run is back.
    chains = [float("nan"), 7.0, 7.0, 9.0, 7.0]
    bad = history_with(series_of(chains, metric="sim.stats.digest_chain", exact=True))
    [report] = analyze_history(bad).reports
    assert report.verdict == "regressed"
    assert report.changepoint_key == "run-003"

    good = history_with(
        series_of([float("nan")] + [7.0] * 6, metric="sim.stats.digest_chain", exact=True)
    )
    [report] = analyze_history(good).reports
    assert report.verdict == "ok"

    # Runs of another seed (or --smoke runs) are compared among themselves.
    mixed = series_of([7.0, 9.0] * 3, metric="sim.stats.digest_chain", exact=True)
    for index in (1, 3, 5):
        mixed.points[index] = SeriesPoint(f"run-00{index}", "t", "rev", "seed=2", 9.0)
    assert [r.verdict for r in analyze_history(history_with(mixed)).reports] == ["ok"]
    # Shorter than a window, the newest two runs are read as a pair: equal
    # chains are noise, and chains of different inputs cannot be compared.
    pair = series_of([7.0, 7.0], metric="sim.stats.digest_chain", exact=True)
    [report] = analyze_history(history_with(pair)).reports
    assert report.verdict == "noise"
    mixed.points[4:] = []
    [report] = analyze_history(history_with(mixed)).reports
    assert report.verdict == "n/a"


def test_metric_prefix_filter():
    history = history_with(
        series_of([100.0] * 12),
        series_of([5.0] * 12, metric="noc.link.accepts", higher=False),
        series_of([5.0] * 12, metric="noc.router.flit_hops", higher=False),
    )
    report = analyze_history(history, metric_prefixes=["noc."])
    assert sorted(r.metric for r in report.reports) == [
        "noc.link.accepts", "noc.router.flit_hops"
    ]
    assert analyze_history(history, metric_prefixes=["peak_rss"]).reports == []


def test_auxiliary_series_get_no_verdict():
    history = history_with(
        series_of([0.1] * 10 + [0.4] * 10, metric="noc.router.rc_va_ns_per_flit_hop",
                  higher=False, aux=True)
    )
    assert analyze_history(history).reports == []


# -- the synthetic history end-to-end -----------------------------------------
def test_sentinel_flags_seeded_step_and_names_culprit(tmp_path):
    write_history(tmp_path, make_history(step_at=20, culprit="noc.router.rc_va"))
    history = load_history([tmp_path])
    assert history.runs == 30
    report = analyze_history(history)
    hops = [r for r in report.reports if r.metric == "flit_hops_per_s"]
    assert len(hops) == 3  # one per workload
    for r in hops:
        assert r.verdict == "regressed"
        # The named changepoint file sits within ±2 of the injected step.
        assert abs(int(r.changepoint_key[len("BENCH_"):-len(".json")]) - 20) <= 2
        assert r.culprit.startswith("noc.router.rc_va (+")
    text = render_sentinel(report)
    assert "culprit: noc.router.rc_va" in text
    assert "! regressed" in text
    # The phase rows themselves are hints, not verdicts.
    assert "rc_va_ns_per_flit_hop" not in {r.metric for r in report.reports}


def test_sentinel_passes_noise_only_registry(tmp_path):
    write_history(tmp_path, make_history())
    report = analyze_history(load_history([tmp_path]))
    assert report.regressions() == []
    assert all(r.verdict in ("ok", "n/a") for r in report.reports)


def test_registry_seed_is_deterministic(tmp_path):
    a = write_history(tmp_path / "a", make_history(step_at=7, runs=12))
    b = write_history(tmp_path / "b", make_history(step_at=7, runs=12))
    for index in range(12):
        assert (a / f"BENCH_{index}.json").read_bytes() == (b / f"BENCH_{index}.json").read_bytes()


def test_sentinel_json_report_shape(tmp_path):
    write_history(tmp_path, make_history(step_at=20))
    report = analyze_history(load_history([tmp_path]))
    doc = report.to_json()
    assert doc["schema_version"] == SENTINEL_SCHEMA_VERSION
    assert doc["kind"] == "sentinel"
    assert doc["runs"] == 30 and doc["regressions"] >= 3
    json.dumps(doc)  # NaN-free by construction
    flagged = [r for r in doc["reports"] if r["verdict"] == "regressed"]
    assert all("changepoint" in r for r in flagged)


# -- history loading ---------------------------------------------------------
def test_history_merges_bench_dirs_in_created_order(tmp_path):
    """Several --bench-dir arguments are one trajectory, ordered by the
    documents' `created` stamps (ties keep file order), keyed by file name."""
    from repro.telemetry.bench import write_bench

    for directory, day, hops in (("new", 2, 500_000.0), ("old", 1, 400_000.0)):
        doc = make_bench_doc(fig11=make_case(hops=hops))
        write_bench(dict(doc, created=f"2026-01-0{day}T00:00:00+00:00"), tmp_path / directory)
    history = load_history([tmp_path / "new", tmp_path / "old"])
    assert history.runs == 2
    series = history.get("fig11", "flit_hops_per_s")
    assert series.values == [400_000.0, 500_000.0]
    assert [p.key for p in series.points] == ["BENCH_0.json", "BENCH_0.json"]
    assert series.rel_floor == 0.25 and series.unit == "hops/s"  # BENCHMARK.json's


def test_history_and_compare_share_one_metric_catalogue(bench_doc, tmp_path):
    """A pair and a trajectory are judged on one catalogue: every row that
    carries a bound, and never a host-time layer row."""
    from repro.telemetry.bench import case_metrics, write_bench

    metrics = case_metrics(bench_doc["workloads"]["phy_steady_256"])
    judged = {name for name, m in metrics.items() if m.rel_floor is not None}
    assert {"flit_hops_per_s", "wall_s", "peak_rss_mb", "failed_points",
            "noc.router.flit_hops", "sim.stats.digest_chain"} <= judged

    write_bench(bench_doc, tmp_path)
    write_bench(bench_doc, tmp_path)
    history = load_history([tmp_path])
    report = analyze_history(history)
    for case in bench_doc["workloads"]:
        assert {s.metric for s in history.ordered() if s.case == case} == judged
        assert {r.metric for r in report.reports if r.case == case} == judged
    # The host-time rows are neither judged nor watched, but the series
    # still feed the culprit hint.
    unjudged = set(metrics) - judged
    assert "noc.router.sa_st_ns_per_flit_hop" in unjudged
    assert all(history.get(case, metric).auxiliary for metric in unjudged)


def test_history_tolerates_old_records_and_counts_skips(tmp_path):
    from repro.telemetry.bench import write_bench

    # A --trace 0 document: end-to-end rows only, no per_layer block.
    write_bench(make_bench_doc(fig11=make_case(counts={})), tmp_path)
    (tmp_path / "BENCH_1.json").write_text("{corrupt\n")
    # The pre-PR-24 three-case format has no reader: it is skipped, not guessed at.
    (tmp_path / "BENCH_2.json").write_text('{"schema_version": 1, "cases": {"fig11": {}}}')
    history = load_history([tmp_path])
    assert history.skipped == 2
    assert history.runs == 1
    assert history.get("fig11", "flit_hops_per_s").values == [400_000.0]
    assert history.get("fig11", "sim.stats.digest_chain") is None
    # The same history analyzes without error.
    report = analyze_history(history)
    by_metric = {r.metric: r.verdict for r in report.reports}
    assert by_metric["peak_rss_mb"] == "insufficient-history"
    assert by_metric["failed_points"] == "ok"

    with pytest.raises(ValueError):
        load_history([tmp_path], strict=True)


def test_history_empty_registry(tmp_path):
    history = load_history([tmp_path / "nowhere"])
    assert history.runs == 0 and history.series == {}
    assert analyze_history(history).reports == []
    assert "no bench history" in render_sentinel(analyze_history(history))
