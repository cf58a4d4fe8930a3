"""Per-metric time series over the stored BENCH files (`repro regress` input).

``repro compare`` diffs two hand-picked artifacts; the sentinel needs the
whole trajectory.  The ``BENCH_<n>.json`` files of the given directories
are that trajectory — one document per ``repro bench`` run — and this
module aligns them into per-workload, per-metric series: every row of the
bench catalogue (:func:`~repro.telemetry.bench.case_metrics` — exactly
what ``repro compare`` judges pairwise), ``NaN`` where a run did not carry
it.  The host-time layer rows ``compare`` prints without a verdict come
out *auxiliary*: the sentinel reads them only for culprit hints.

Loading is strict/lenient like :class:`~repro.telemetry.runstore.RunStore`:
lenient mode counts unreadable files in :attr:`RunHistory.skipped` instead
of raising.

Pure stdlib, no simulator imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from .bench import bench_files, load_bench, run_inputs, stack_metrics, workloads_of


@dataclass(frozen=True)
class SeriesPoint:
    """One observation of one metric: where it came from and its value."""

    key: str  #: bench file name — what `repro regress` prints
    created: str  #: ISO-8601 UTC stamp; the series sort key
    git_rev: str
    inputs: str  #: ``bench.run_inputs``: exact rows compare within equal inputs
    value: float  #: NaN when this run did not carry the metric


@dataclass
class MetricSeries:
    """One metric's trajectory for one workload, oldest first."""

    case: str
    metric: str
    higher_is_better: bool
    points: list[SeriesPoint] = field(default_factory=list)
    #: Auxiliary series feed culprit hints only — the sentinel never
    #: issues verdicts on them (the host-time layer rows).
    auxiliary: bool = False
    #: Seed-determined: any change between runs of equal inputs regresses.
    exact: bool = False
    #: The metric's own relative noise floor (``None``: the sentinel's).
    rel_floor: Optional[float] = None
    unit: str = ""

    @property
    def values(self) -> list[float]:
        return [p.value for p in self.points]

    def finite_count(self) -> int:
        return sum(1 for p in self.points if math.isfinite(p.value))


@dataclass
class RunHistory:
    """Every extracted series, keyed ``(case, metric)``, plus load stats."""

    series: dict[tuple[str, str], MetricSeries] = field(default_factory=dict)
    runs: int = 0  #: bench documents contributing observations
    skipped: int = 0  #: unreadable bench files (lenient)

    def cases(self) -> list[str]:
        return sorted({case for case, _ in self.series})

    def get(self, case: str, metric: str) -> Optional[MetricSeries]:
        return self.series.get((case, metric))

    def ordered(self) -> list[MetricSeries]:
        """Primary (non-auxiliary) series, workload by workload in catalogue order."""
        return [series for series in self.series.values() if not series.auxiliary]


def load_history(
    bench_dirs: Iterable[str | Path] = (".",), *, strict: bool = False
) -> RunHistory:
    """Harvest the directories' bench files into an aligned :class:`RunHistory`.

    In lenient mode (default) malformed bench files are counted in
    ``RunHistory.skipped`` rather than raised, mirroring
    ``RunStore.load(strict=False)``.
    """
    history = RunHistory()
    docs = []  # ((file name, created, git_rev, inputs), workloads) per readable file
    for directory in bench_dirs:
        for path in bench_files(directory):
            try:
                doc = load_bench(path)
            except (ValueError, OSError):
                if strict:
                    raise
                history.skipped += 1
                continue
            stamp = (str(doc.get("created", "")), str(doc.get("git_rev", "unknown")))
            docs.append(((path.name, *stamp, run_inputs(doc)), workloads_of(doc)))
    docs.sort(key=lambda item: item[0][1])  # by `created`; stable, so ties keep file order
    history.runs = len(docs)

    for case in sorted({case for _, workloads in docs for case in workloads}):
        runs = [(head, workloads[case]) for head, workloads in docs if case in workloads]
        for metric, stack in stack_metrics([block for _, block in runs]).items():
            template = stack[0]
            history.series[case, metric] = MetricSeries(
                case, metric, template.higher_is_better,
                [SeriesPoint(*head, m.value) for (head, _), m in zip(runs, stack)],
                auxiliary=template.rel_floor is None, exact=template.exact,
                rel_floor=template.rel_floor, unit=template.unit,
            )
    return history


__all__ = [
    "MetricSeries",
    "RunHistory",
    "SeriesPoint",
    "load_history",
]
