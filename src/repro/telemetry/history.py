"""Per-metric time series over the run registry (`repro regress` input).

``repro compare`` diffs two hand-picked artifacts; the sentinel needs
the whole trajectory.  This module turns the append-only registry
(``runs/runs.jsonl``, the ``kind="bench"`` records `repro bench` has
appended since PR 7) plus any stored ``BENCH_<n>.json`` files into
aligned per-case, per-metric series:

* every metric of the bench catalogue
  (:func:`~repro.telemetry.bench.case_metrics` — exactly what ``repro
  compare`` judges pairwise), ``NaN`` where a run did not carry it;
* auxiliary ``host.<phase>.share`` series the sentinel uses only for
  culprit hints;
* ``digest.stable`` — :func:`~repro.telemetry.bench.digest_match` of each
  run against the previous digested one: 1.0 same chain, 0.0 diverged,
  ``NaN`` incomparable (config changed, missing digests).

A registry record holds the same case blocks as the bench file
(:func:`~repro.telemetry.bench.registry_cases`), so one reader serves
both; a file and a record describing the same suite run (same
``created`` stamp) are deduplicated; loading is strict/lenient exactly
like :class:`~repro.telemetry.runstore.RunStore` — lenient mode counts
unreadable sources in :attr:`RunHistory.skipped` instead of raising.

Pure stdlib, no simulator imports at module load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Optional

from .bench import bench_files, block_of, digest_match, load_bench, num, stack_metrics
from .runstore import RunStore


@dataclass(frozen=True)
class SeriesPoint:
    """One observation of one metric: where it came from and its value."""

    key: str  #: run_id or bench file name — what `repro regress` prints
    created: str  #: ISO-8601 UTC stamp; the series sort key
    git_rev: str
    config_hash: str
    value: float  #: NaN when this run did not carry the metric


@dataclass
class MetricSeries:
    """One metric's trajectory for one bench case, oldest first."""

    case: str
    metric: str
    higher_is_better: bool
    points: list[SeriesPoint] = field(default_factory=list)
    #: Auxiliary series feed culprit hints only — the sentinel never
    #: issues verdicts on them (e.g. ``host.<phase>.share``).
    auxiliary: bool = False

    @property
    def values(self) -> list[float]:
        return [p.value for p in self.points]

    def finite_count(self) -> int:
        return sum(1 for p in self.points if math.isfinite(p.value))


@dataclass
class RunHistory:
    """Every extracted series, keyed ``(case, metric)``, plus load stats."""

    series: dict[tuple[str, str], MetricSeries] = field(default_factory=dict)
    runs: int = 0  #: deduplicated suite runs contributing observations
    skipped: int = 0  #: unreadable registry lines / bench files (lenient)

    def cases(self) -> list[str]:
        return sorted({case for case, _ in self.series})

    def get(self, case: str, metric: str) -> Optional[MetricSeries]:
        return self.series.get((case, metric))

    def ordered(self) -> list[MetricSeries]:
        """Primary (non-auxiliary) series in stable render order."""
        return [
            self.series[key]
            for key in sorted(self.series)
            if not self.series[key].auxiliary
        ]


# ---------------------------------------------------------------------------
# series alignment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SuiteRun:
    """One suite run as harvested: where it came from and its case blocks."""

    key: str
    created: str
    git_rev: str
    cases: dict[str, dict[str, Any]]


def _suite_run(cases: Any, key: str, created: Any, git_rev: Any) -> _SuiteRun:
    blocks = cases.items() if isinstance(cases, dict) else ()
    return _SuiteRun(
        key=key,
        created=str(created),
        git_rev=str(git_rev),
        cases={str(name): case for name, case in blocks if isinstance(case, dict)},
    )


def _series_for_case(case: str, runs: list[_SuiteRun]) -> list[MetricSeries]:
    blocks = [run.cases[case] for run in runs]

    def series(
        metric: str, higher: bool, values: Iterable[float], auxiliary: bool = False
    ) -> MetricSeries:
        points = [
            SeriesPoint(
                run.key, run.created, run.git_rev, str(block.get("config_hash", "")), v
            )
            for run, block, v in zip(runs, blocks, values)
        ]
        return MetricSeries(case, metric, higher, points, auxiliary)

    out = [
        series(metric, stack[0].higher_is_better, (m.value for m in stack))
        for metric, stack in stack_metrics(blocks).items()
    ]
    shares = [block_of(block_of(block, "host"), "shares") for block in blocks]
    for phase in sorted({phase for block in shares for phase in block}):
        out.append(
            series(
                f"host.{phase}.share",
                False,
                (num(block.get(phase)) for block in shares),
                auxiliary=True,
            )
        )
    stable: list[float] = []
    previous: Any = None
    for block in blocks:
        stable.append(digest_match(previous, block))
        if block_of(block, "digest").get("final"):
            previous = block
    out.append(series("digest.stable", True, stable))
    return out


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def load_history(
    runs_dir: str | Path | None = "runs",
    *,
    bench_dirs: Iterable[str | Path] = (),
    strict: bool = False,
) -> RunHistory:
    """Harvest the registry + bench files into an aligned :class:`RunHistory`.

    ``runs_dir=None`` skips the registry entirely.  In lenient mode
    (default) unreadable registry lines and malformed bench files are
    counted in ``RunHistory.skipped`` rather than raised, mirroring
    ``RunStore.load(strict=False)``.
    """
    skipped = 0
    # created stamp -> suite run; a bench file wins over the registry
    # record describing the same suite run (it is the durable artifact).
    harvested: dict[str, _SuiteRun] = {}

    for directory in bench_dirs:
        for path in bench_files(directory):
            try:
                doc = load_bench(path)
            except (ValueError, OSError):
                if strict:
                    raise
                skipped += 1
                continue
            run = _suite_run(
                doc.get("cases"), path.name, doc.get("created", ""),
                doc.get("git_rev", "unknown"),
            )
            harvested[run.created] = run

    if runs_dir is not None:
        store = RunStore(runs_dir)
        records = store.load(strict=strict)
        skipped += store.skipped
        for record in records:
            if record.kind != "bench" or not record.bench:
                continue
            if record.created not in harvested:
                harvested[record.created] = _suite_run(
                    record.bench, record.run_id, record.created, record.git_rev
                )

    history = RunHistory(skipped=skipped, runs=len(harvested))
    if not harvested:
        return history

    ordered_runs = [harvested[created] for created in sorted(harvested)]
    for case in sorted({case for run in ordered_runs for case in run.cases}):
        runs = [run for run in ordered_runs if case in run.cases]
        for metric_series in _series_for_case(case, runs):
            history.series[(case, metric_series.metric)] = metric_series
    return history


__all__ = [
    "MetricSeries",
    "RunHistory",
    "SeriesPoint",
    "load_history",
]
