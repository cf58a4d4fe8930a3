"""History-aware regression detection over the stored BENCH files
(``repro regress``).

:mod:`~repro.telemetry.history` turns the files into per-metric time
series; this module watches them.  For every timed primary series it runs a
**rank-based sliding-window changepoint test** — dependency-free and
robust by construction:

* For each candidate split, compare the window before against the
  window after with a normalized Mann-Whitney statistic (the fraction
  of (pre, post) pairs where the later value wins; ties count half).
  ``effect = |2u - 1|`` is 1.0 for a clean step and ~0 for noise, and
  never looks at magnitudes — a single wild outlier cannot fake it.
* A candidate only stands when the median shift across the split also
  clears :func:`~repro.telemetry.compare.noise_band` of the window
  before — the pair rule's threshold with the metric's own bound, so
  jitter that a pairwise reading would call noise never becomes a
  changepoint.
* The verdict then compares the **trailing** window against the
  pre-changepoint level: a regression that was since fixed reads
  ``ok`` (with the changepoint still reported), not a stale alarm.

An *exact* series (seed-determined counts, fingerprints, digest chains)
needs no statistics: the first run that differs from the previous run of
the same seed and ``smoke`` flag is the regression.

A series with fewer than :data:`MIN_HISTORY` finite points has no window to
test: its latest run is judged against the one before it by
:func:`~repro.telemetry.compare.classify` (``noise`` / ``regressed`` /
``improved``; ``n/a`` on an exact row when seed or ``smoke`` differ), so
``repro regress A B`` is the classic A/B comparison.

Verdicts are ``ok`` / ``regressed`` / ``improved`` / ``noise`` /
``insufficient-history`` / ``n/a``.  For ``flit_hops_per_s`` regressions
the report adds a culprit hint: the engine phase whose ns per flit-hop
grew most across the changepoint.

Pure stdlib, no simulator imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Iterable, Optional, Sequence

from .bench import PHASE_SUFFIX, THROUGHPUT, median_iqr
from .compare import (
    DEFAULT_IQR_K,
    DEFAULT_REL_FLOOR,
    VERDICT_MARKS,
    classify,
    fmt_metric,
    json_num,
    noise_band,
)
from .history import MetricSeries, RunHistory

#: Version stamp of the ``repro regress --json`` report document.
SENTINEL_SCHEMA_VERSION = 1

#: Growth below this fraction of the engine loop's ns per flit-hop before
#: the split is not worth naming as a culprit: 0.005 = half a percent.
MIN_CULPRIT_SHARE_SHIFT = 0.005


# The detector's constants (``repro regress`` has no flag for them).
#: Sliding-window width on each side of a split.
WINDOW = 8
#: Finite points below which only the newest pair is judged.
MIN_HISTORY = 6
#: Smallest usable window at the series edges.
MIN_SEGMENT = 3
#: Rank-effect threshold (1.0 = clean step).
MIN_EFFECT = 0.85


@dataclass(frozen=True)
class Changepoint:
    """A detected step in one series, in original-series coordinates."""

    index: int  #: index of the first post-step observation
    effect: float  #: rank effect size at the split, in [0, 1]
    shift: float  #: median(post) - median(pre)
    pre_median: float
    post_median: float


@dataclass
class MetricReport:
    """One series' verdict, changepoint and evidence."""

    case: str
    metric: str
    verdict: str  #: ok / regressed / improved / noise / insufficient-history / n/a
    higher_is_better: bool
    finite_points: int = 0
    latest: float = float("nan")
    baseline: float = float("nan")  #: pre-changepoint level (or overall median)
    changepoint: Optional[Changepoint] = None
    changepoint_key: str = ""  #: bench file of the first shifted run
    culprit: str = ""  #: engine-phase hint for throughput regressions
    unit: str = ""

    @property
    def rel_shift(self) -> float:
        if self.changepoint is None or self.changepoint.pre_median == 0:
            return float("nan")
        return self.changepoint.shift / abs(self.changepoint.pre_median)

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "case": self.case,
            "metric": self.metric,
            "verdict": self.verdict,
            "higher_is_better": self.higher_is_better,
            "finite_points": self.finite_points,
            "latest": json_num(self.latest),
            "baseline": json_num(self.baseline),
            "culprit": self.culprit,
        }
        if self.changepoint is not None:
            doc["changepoint"] = {
                "index": self.changepoint.index,
                "key": self.changepoint_key,
                "effect": round(self.changepoint.effect, 4),
                "shift": json_num(self.changepoint.shift),
                "rel_shift": json_num(self.rel_shift),
            }
        return doc


@dataclass
class SentinelReport:
    """Every analyzed series, plus the history's load statistics."""

    reports: list[MetricReport] = field(default_factory=list)
    runs: int = 0
    skipped: int = 0

    def regressions(self) -> list[MetricReport]:
        return [r for r in self.reports if r.verdict == "regressed"]

    def to_json(self) -> dict[str, Any]:
        return {
            "schema_version": SENTINEL_SCHEMA_VERSION,
            "kind": "sentinel",
            "runs": self.runs,
            "skipped": self.skipped,
            "regressions": len(self.regressions()),
            "reports": [r.to_dict() for r in self.reports],
        }


# ---------------------------------------------------------------------------
# the detector
# ---------------------------------------------------------------------------


def _rank_effect(pre: Sequence[float], post: Sequence[float]) -> float:
    """``|2u - 1|`` of the normalized Mann-Whitney statistic."""
    wins = 0.0
    for a in pre:
        for b in post:
            if b > a:
                wins += 1.0
            elif b == a:
                wins += 0.5
    u = wins / (len(pre) * len(post))
    return abs(2.0 * u - 1.0)


def _noise_band(pre: Sequence[float], rel_floor: float) -> float:
    return noise_band(*median_iqr(pre), rel_floor, DEFAULT_IQR_K)


def detect_changepoint(
    values: Sequence[float], rel_floor: float = DEFAULT_REL_FLOOR
) -> Optional[Changepoint]:
    """The strongest step in ``values`` that clears both gates, if any.

    ``values`` may contain NaN (runs that did not carry the metric);
    detection runs over the finite subsequence and the returned index
    points back into the original series.
    """
    finite = [(i, v) for i, v in enumerate(values) if math.isfinite(v)]
    n = len(finite)
    best: Optional[Changepoint] = None
    for split in range(MIN_SEGMENT, n - MIN_SEGMENT + 1):
        pre = [v for _, v in finite[max(0, split - WINDOW): split]]
        post = [v for _, v in finite[split: split + WINDOW]]
        effect = _rank_effect(pre, post)
        if effect < MIN_EFFECT:
            continue
        shift = median(post) - median(pre)
        if abs(shift) <= _noise_band(pre, rel_floor):
            continue
        candidate = Changepoint(
            index=finite[split][0],
            effect=effect,
            shift=shift,
            pre_median=median(pre),
            post_median=median(post),
        )
        if best is None or (effect, abs(shift)) > (best.effect, abs(best.shift)):
            best = candidate
    return best


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def _analyze_series(series: MetricSeries) -> MetricReport:
    report = MetricReport(
        case=series.case,
        metric=series.metric,
        verdict="n/a",
        higher_is_better=series.higher_is_better,
        unit=series.unit,
    )
    values = series.values
    finite = [v for v in values if math.isfinite(v)]
    report.finite_points = len(finite)
    if not finite:
        return report
    report.latest = finite[-1]
    report.baseline = median(finite)
    rel_floor = DEFAULT_REL_FLOOR if series.rel_floor is None else series.rel_floor
    if series.exact and _analyze_exact(series, report).verdict == "regressed":
        return report
    if len(finite) < MIN_HISTORY and len(values) > 1:
        return _judge_last_pair(series, report, rel_floor)
    if series.exact:
        return report
    if len(finite) < MIN_HISTORY:
        report.verdict = "insufficient-history"
        return report

    changepoint = detect_changepoint(values, rel_floor)
    if changepoint is None:
        report.verdict = "ok"
        return report
    report.changepoint = changepoint
    report.changepoint_key = series.points[changepoint.index].key
    report.baseline = changepoint.pre_median

    # Verdict from the *trailing* window, so a since-fixed step reads ok.
    pre = [v for v in values[: changepoint.index] if math.isfinite(v)]
    pre_window = pre[-WINDOW:]
    trailing = finite[-WINDOW:]
    drift = median(trailing) - median(pre_window)
    if abs(drift) <= _noise_band(pre_window, rel_floor):
        report.verdict = "ok"
    elif (drift < 0) == series.higher_is_better:
        report.verdict = "regressed"
    else:
        report.verdict = "improved"
    return report


def _analyze_exact(series: MetricSeries, report: MetricReport) -> MetricReport:
    """A seed-determined row: any run that differs from the previous run of
    the same inputs is a regression, however long ago; otherwise ``ok``."""
    last: dict[str, float] = {}
    for index, point in enumerate(series.points):
        if not math.isfinite(point.value):
            continue
        previous = last.setdefault(point.inputs, point.value)
        if point.value != previous:
            report.verdict = "regressed"
            report.baseline = previous
            report.changepoint = Changepoint(
                index, 1.0, point.value - previous, pre_median=previous, post_median=point.value
            )
            report.changepoint_key = point.key
            return report
    report.verdict = "ok"
    return report


def _judge_last_pair(
    series: MetricSeries, report: MetricReport, rel_floor: float
) -> MetricReport:
    """The latest run against the one before it: the rule for two runs."""
    before, after = series.points[-2:]
    verdict = classify(
        series.case, series.metric, before.value, after.value,
        higher_is_better=series.higher_is_better, iqr=max(before.iqr, after.iqr),
        rel_floor=rel_floor, exact=series.exact,
    ).verdict
    report.verdict = "n/a" if series.exact and before.inputs != after.inputs else verdict
    report.baseline, report.latest = before.value, after.value
    if report.verdict in ("regressed", "improved"):
        report.changepoint = Changepoint(
            len(series.points) - 1, 1.0, after.value - before.value,
            pre_median=before.value, post_median=after.value,
        )
        report.changepoint_key = after.key
    return report


def _culprit_hint(history: RunHistory, case: str, changepoint: Changepoint) -> str:
    """The engine phase whose ns per flit-hop grew most across the split."""
    growth: dict[str, float] = {}
    loop_before = 0.0
    for (series_case, metric), series in history.series.items():
        if series_case != case or not metric.endswith(PHASE_SUFFIX):
            continue
        pre = [v for v in series.values[: changepoint.index] if math.isfinite(v)]
        post = [v for v in series.values[changepoint.index:] if math.isfinite(v)]
        if not pre or not post:
            continue
        loop_before += median(pre)
        growth[metric[: -len(PHASE_SUFFIX)]] = median(post) - median(pre)
    phase = max(growth, key=growth.__getitem__, default="")
    if not phase or growth[phase] < MIN_CULPRIT_SHARE_SHIFT * loop_before:
        return ""
    return f"{phase} (+{growth[phase]:.1f} ns/hop)"


def analyze_history(
    history: RunHistory, *, metric_prefixes: Iterable[str] = ()
) -> SentinelReport:
    """Verdicts for every primary series (optionally prefix-filtered)."""
    prefixes = tuple(metric_prefixes)
    report = SentinelReport(runs=history.runs, skipped=history.skipped)
    for series in history.ordered():
        if prefixes and not any(series.metric.startswith(p) for p in prefixes):
            continue
        metric_report = _analyze_series(series)
        if (
            metric_report.verdict == "regressed"
            and series.metric == THROUGHPUT
            and metric_report.changepoint is not None
        ):
            metric_report.culprit = _culprit_hint(history, series.case, metric_report.changepoint)
        report.reports.append(metric_report)
    return report


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_sentinel(report: SentinelReport) -> str:
    """The ``repro regress`` verdict table."""
    if not report.reports:
        return (
            "no bench history to analyze — `repro bench` writes the "
            "BENCH_<n>.json files the sentinel watches."
        )
    header = (
        f"{'case':<22} {'metric':<38} {'n':>3} {'baseline':>14} "
        f"{'latest':>14} {'shift':>8}  verdict"
    )
    lines = [
        f"regression sentinel over {report.runs} bench run(s)",
        "",
        header,
        "-" * len(header),
    ]
    for r in report.reports:
        shift = (
            f"{100.0 * r.rel_shift:+.1f}%"
            if math.isfinite(r.rel_shift) and r.unit != "hash48"
            else "-"
        )
        line = (
            f"{r.case:<22} {r.metric:<38} {r.finite_points:>3} "
            f"{fmt_metric(r.baseline, r.unit):>14} "
            f"{fmt_metric(r.latest, r.unit):>14} {shift:>8}  "
            f"{VERDICT_MARKS[r.verdict]} {r.verdict}"
        )
        if r.changepoint is not None and r.changepoint_key:
            line += f" @ {r.changepoint_key}"
        if r.culprit:
            line += f" [culprit: {r.culprit}]"
        lines.append(line)
    if any(
        r.verdict == "n/a" and math.isfinite(r.baseline) and math.isfinite(r.latest)
        for r in report.reports
    ):  # only an exact row of two runs with different inputs reads so
        lines.append(
            "exact rows read n/a: the two runs differ in seed or --smoke, so their "
            "seed-determined counts, fingerprints and digest chains are not comparable"
        )
    regressed = report.regressions()
    lines.append("")
    lines.append(
        f"{len(regressed)} regression(s) across "
        f"{len(report.reports)} series"
        + (f"; {report.skipped} unreadable source(s) skipped" if report.skipped else "")
    )
    return "\n".join(lines)


__all__ = [
    "Changepoint",
    "MetricReport",
    "SENTINEL_SCHEMA_VERSION",
    "SentinelReport",
    "analyze_history",
    "detect_changepoint",
    "render_sentinel",
]
