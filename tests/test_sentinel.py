"""Tests for the regression sentinel (``repro.telemetry.sentinel`` /
``repro.telemetry.history``)."""

import json
import math

import pytest

from repro.telemetry.history import MetricSeries, SeriesPoint, load_history
from repro.telemetry.runstore import RUN_SCHEMA_VERSION, RunStore
from repro.telemetry.sentinel import (
    SENTINEL_SCHEMA_VERSION,
    SentinelConfig,
    analyze_history,
    detect_changepoint,
    render_sentinel,
)

from .helpers import make_records, write_registry
from .test_runstore import make_record


def series_of(values, metric="cycles_per_second", higher=True, aux=False):
    points = [
        SeriesPoint(f"run-{i:03d}", f"2026-01-01T00:{i:02d}:00+00:00", "rev", "cfg", v)
        for i, v in enumerate(values)
    ]
    return MetricSeries("case", metric, higher_is_better=higher, points=points,
                        auxiliary=aux)


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
    # Same upward step: an improvement for cps, a regression for ns/cycle.
    up = [100.0] * 10 + [130.0] * 10
    [cps] = analyze_history(history_with(series_of(up))).reports
    [host] = analyze_history(
        history_with(series_of(up, metric="host.rc_va", higher=False))
    ).reports
    assert cps.verdict == "improved"
    assert host.verdict == "regressed"


def test_insufficient_history_and_na_verdicts():
    short = history_with(series_of([100.0] * 3))
    [report] = analyze_history(short).reports
    assert report.verdict == "insufficient-history"

    empty = history_with(series_of([float("nan")] * 10, metric="mem.peak_bytes",
                                   higher=False))
    [report] = analyze_history(empty).reports
    assert report.verdict == "n/a"
    assert report.finite_points == 0


def test_digest_stability_any_zero_regresses():
    flags = [float("nan"), 1.0, 1.0, 0.0, 1.0]
    bad = history_with(series_of(flags, metric="digest.stable"))
    [report] = analyze_history(bad).reports
    assert report.verdict == "regressed"
    assert report.changepoint_key == "run-003"

    good = history_with(series_of([float("nan")] + [1.0] * 4, metric="digest.stable"))
    [report] = analyze_history(good).reports
    assert report.verdict == "ok"


def test_metric_prefix_filter():
    history = history_with(
        series_of([100.0] * 12),
        series_of([5.0] * 12, metric="host.rc_va", higher=False),
        series_of([5.0] * 12, metric="host.sa_st", higher=False),
    )
    report = analyze_history(history, metric_prefixes=["host."])
    assert sorted(r.metric for r in report.reports) == ["host.rc_va", "host.sa_st"]
    assert analyze_history(history, metric_prefixes=["mem."]).reports == []


def test_auxiliary_series_get_no_verdict():
    history = history_with(
        series_of([0.1] * 10 + [0.4] * 10, metric="host.rc_va.share",
                  higher=False, aux=True)
    )
    assert analyze_history(history).reports == []


# -- the synthetic registry end-to-end ---------------------------------------
def test_sentinel_flags_seeded_step_and_names_culprit(tmp_path):
    write_registry(tmp_path / "runs", make_records(step_at=20, culprit="rc_va"))
    history = load_history(tmp_path / "runs")
    assert history.runs == 30
    report = analyze_history(history)
    cps = [r for r in report.reports if r.metric == "cycles_per_second"]
    assert len(cps) == 3  # one per bench case
    for r in cps:
        assert r.verdict == "regressed"
        # The named changepoint run sits within ±2 of the injected step.
        assert abs(int(r.changepoint_key.split("-")[1]) - 20) <= 2
        assert r.culprit.startswith("rc_va")
    text = render_sentinel(report)
    assert "culprit: rc_va" in text
    assert "! regressed" in text


def test_sentinel_passes_noise_only_registry(tmp_path):
    write_registry(tmp_path / "runs", make_records())
    report = analyze_history(load_history(tmp_path / "runs"))
    assert report.regressions() == []
    assert all(r.verdict in ("ok", "n/a") for r in report.reports)


def test_registry_seed_is_deterministic(tmp_path):
    write_registry(tmp_path / "a", make_records(step_at=7, runs=12))
    write_registry(tmp_path / "b", make_records(step_at=7, runs=12))
    assert (tmp_path / "a" / "runs.jsonl").read_bytes() == (
        tmp_path / "b" / "runs.jsonl"
    ).read_bytes()


def test_sentinel_json_report_shape(tmp_path):
    write_registry(tmp_path / "runs", make_records(step_at=20))
    report = analyze_history(load_history(tmp_path / "runs"))
    doc = report.to_json()
    assert doc["schema_version"] == SENTINEL_SCHEMA_VERSION
    assert doc["kind"] == "sentinel"
    assert doc["runs"] == 30 and doc["regressions"] >= 3
    json.dumps(doc)  # NaN-free by construction
    flagged = [r for r in doc["reports"] if r["verdict"] == "regressed"]
    assert all("changepoint" in r for r in flagged)


# -- history loading ---------------------------------------------------------
def test_history_merges_bench_files_over_registry_records(tmp_path):
    from repro.telemetry.bench import write_bench

    from .test_bench_compare import make_bench_doc, make_case

    store = RunStore(tmp_path / "runs")
    # The registry record and the bench file describe the same suite run
    # (same created stamp); the file must win, not double-count.
    store.append(make_record(
        kind="bench", created="2026-01-01T00:00:00+00:00",
        bench={"fig11": {"cps": {"median": 1_000.0}}},
    ))
    bench_dir = tmp_path / "bench"
    write_bench(make_bench_doc(fig11=make_case(cps_median=5_000.0)), bench_dir)

    history = load_history(tmp_path / "runs", bench_dirs=[bench_dir])
    assert history.runs == 1
    series = history.get("fig11", "cycles_per_second")
    assert series.values == [5_000.0]
    assert series.points[0].key == "BENCH_0.json"


def test_history_and_compare_share_one_metric_catalogue(bench_doc, tmp_path):
    """`repro regress` watches exactly what `repro compare` judges."""
    from repro.telemetry.bench import write_bench
    from repro.telemetry.compare import compare_bench

    [case] = bench_doc["cases"]
    judged = {v.metric for v in compare_bench(bench_doc, bench_doc)}
    assert {"cycles_per_second", "wall_seconds", "events.flit_send",
            "host.sa_st", "mem.peak_bytes", "digest.match"} <= judged

    write_bench(bench_doc, tmp_path)
    history = load_history(None, bench_dirs=[tmp_path])
    watched = {s.metric for s in history.ordered() if s.case == case}
    assert watched - {"digest.stable"} == judged - {"digest.match"}
    assert "digest.stable" in watched
    # Phases the ledger saw nothing in are neither judged nor watched, but
    # their share series still feed the culprit hint.
    assert "host.dispatch" not in watched
    assert history.get(case, "host.dispatch.share").auxiliary


def test_history_tolerates_old_records_and_counts_skips(tmp_path):
    store = RunStore(tmp_path / "runs")
    # A pre-mem/pre-digest bench record: only the cps block, no newer keys.
    store.append(make_record(
        kind="bench", created="2026-01-01T00:00:00+00:00",
        bench={"fig11": {"cps": {"median": 4_000.0}}},
    ))
    foreign = make_record(kind="bench").to_dict()
    foreign["schema_version"] = RUN_SCHEMA_VERSION + 1
    with store.path.open("a", encoding="utf-8") as handle:
        handle.write("{corrupt\n")
        handle.write(json.dumps(foreign) + "\n")

    history = load_history(tmp_path / "runs")
    assert history.skipped == 2
    assert history.runs == 1
    assert math.isnan(history.get("fig11", "mem.peak_bytes").values[0])
    assert math.isnan(history.get("fig11", "digest.stable").values[0])
    # The same history analyzes without error: missing metrics read n/a.
    report = analyze_history(history)
    by_metric = {r.metric: r.verdict for r in report.reports}
    assert by_metric["mem.peak_bytes"] == "n/a"

    with pytest.raises(Exception):
        load_history(tmp_path / "runs", strict=True)


def test_history_empty_registry(tmp_path):
    history = load_history(tmp_path / "nowhere")
    assert history.runs == 0 and history.series == {}
    assert analyze_history(history).reports == []
    assert "no bench history" in render_sentinel(analyze_history(history))
