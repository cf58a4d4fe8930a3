"""Noise-aware comparison of bench files and run records (``repro compare``).

Simulator throughput jitters run to run, so a naive A/B diff flags noise
as regressions.  Every metric is judged against a threshold of

    ``max(rel_floor * |baseline|, k * IQR)``

where the IQR comes from the bench repetitions (zero for single run
records).  A metric moves past the threshold in the wrong direction →
``regressed``; in the right direction → ``improved``; otherwise
``noise``.  ``repro compare`` prints one verdict per metric and exits
non-zero only when ``--strict`` is given *and* at least one (gated)
metric regressed — without ``--strict`` it always exits 0, which is the
warn-only CI mode of ``docs/perf.md``.

Given more than two operands, ``repro compare`` chains them in the
given order (oldest first) and renders one table of adjacent-step
verdicts; ``--json PATH`` writes the verdicts machine-readably.

Pure stdlib; knows nothing about the simulator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Sequence

from .bench import digest_match, load_bench, stack_metrics
from .runstore import RunRecord, RunStore, RunStoreError

#: Default relative floor under which a delta is noise regardless of IQR.
DEFAULT_REL_FLOOR = 0.05
#: Default IQR multiplier of the noise threshold.
DEFAULT_IQR_K = 1.5
#: One mark per verdict word, shared by the compare and sentinel tables.
VERDICT_MARKS = {
    "improved": "+",
    "regressed": "!",
    "noise": "=",
    "ok": "=",
    "insufficient-history": "~",
    "n/a": "?",
}


def noise_band(baseline: float, iqr: float, rel_floor: float, k: float) -> float:
    """``max(rel_floor * |baseline|, k * IQR)`` — the one noise threshold."""
    return max(rel_floor * abs(baseline), k * (iqr if math.isfinite(iqr) else 0.0))


def json_num(value: float) -> Optional[float]:
    """``value`` for a JSON report: NaN / inf have no JSON form, so null."""
    return value if math.isfinite(value) else None


def fmt_metric(value: float, metric: str = "") -> str:
    """One metric value as the compare / regress / dashboard tables print it."""
    if not math.isfinite(value):
        return "n/a"
    if metric == "digest.stable":
        return "stable" if value == 1.0 else "DIVERGED"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


@dataclass
class MetricVerdict:
    """The comparison outcome for one metric of one case."""

    case: str
    metric: str
    a: float
    b: float
    threshold: float
    higher_is_better: bool
    #: ``"improved"``, ``"regressed"``, ``"noise"`` or ``"n/a"``.
    verdict: str

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def rel_delta(self) -> float:
        if self.a == 0 or math.isnan(self.a) or math.isnan(self.b):
            return math.nan
        return (self.b - self.a) / abs(self.a)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form for ``repro compare --json`` (NaN → null)."""
        return {
            "case": self.case,
            "metric": self.metric,
            "a": json_num(self.a),
            "b": json_num(self.b),
            "threshold": json_num(self.threshold),
            "higher_is_better": self.higher_is_better,
            "rel_delta": json_num(self.rel_delta),
            "verdict": self.verdict,
        }


def classify(
    case: str,
    metric: str,
    a: float,
    b: float,
    *,
    higher_is_better: bool,
    iqr: float = 0.0,
    rel_floor: float = DEFAULT_REL_FLOOR,
    k: float = DEFAULT_IQR_K,
) -> MetricVerdict:
    """Judge one metric pair against the noise threshold."""
    if math.isnan(a) or math.isnan(b):
        verdict = "n/a"
        threshold = math.nan
    else:
        threshold = noise_band(a, iqr, rel_floor, k)
        delta = b - a
        if abs(delta) <= threshold:
            verdict = "noise"
        elif (delta > 0) == higher_is_better:
            verdict = "improved"
        else:
            verdict = "regressed"
    return MetricVerdict(
        case=case,
        metric=metric,
        a=a,
        b=b,
        threshold=threshold,
        higher_is_better=higher_is_better,
        verdict=verdict,
    )


def compare_bench(
    a: dict[str, Any],
    b: dict[str, Any],
    *,
    rel_floor: float = DEFAULT_REL_FLOOR,
    k: float = DEFAULT_IQR_K,
) -> list[MetricVerdict]:
    """Per-case, per-metric verdicts between two bench documents.

    Cases present in only one document are skipped.  What is judged, and
    against which floor, is the bench catalogue's decision
    (:func:`~repro.telemetry.bench.stack_metrics`); ``rel_floor`` serves
    the metrics that name none of their own.
    """
    verdicts: list[MetricVerdict] = []
    cases_b = b.get("cases", {})
    for name, ca in a.get("cases", {}).items():
        if name not in cases_b:
            continue
        cb = cases_b[name]
        for metric, (ma, mb) in stack_metrics([ca, cb]).items():
            floor = rel_floor if ma.rel_floor is None else ma.rel_floor
            verdicts.append(
                classify(
                    name,
                    metric,
                    ma.value,
                    mb.value,
                    higher_is_better=ma.higher_is_better,
                    iqr=max(ma.iqr, mb.iqr),
                    rel_floor=floor,
                    k=k,
                )
            )
        # Matching chains score 1/1 (noise); a mismatch scores 1/0 and reads
        # ``regressed`` — the simulated behavior itself changed, which is
        # what ``repro diff`` then localizes.
        match = digest_match(ca, cb)
        verdicts.append(
            classify(
                name,
                "digest.match",
                match if math.isnan(match) else 1.0,
                match,
                higher_is_better=True,
                rel_floor=0.0,
            )
        )
    return verdicts


#: Run-record metrics compared by :func:`compare_records`.
_RECORD_METRICS: tuple[tuple[str, bool], ...] = (
    ("cycles_per_second", True),
    ("wall_seconds", False),
    ("stats.avg_latency", False),
    ("stats.delivered_fraction", True),
    ("stats.avg_energy_pj", False),
)


def _record_metric(record: RunRecord, dotted: str) -> float:
    if dotted.startswith("stats."):
        value = record.stats.get(dotted[len("stats."):], math.nan)
    else:
        value = getattr(record, dotted, math.nan)
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def compare_records(
    a: RunRecord,
    b: RunRecord,
    *,
    rel_floor: float = DEFAULT_REL_FLOOR,
    k: float = DEFAULT_IQR_K,
) -> list[MetricVerdict]:
    """Verdicts between two run records (no repetition IQR available)."""
    case = a.label or a.workload or "run"
    return [
        classify(
            case,
            metric,
            _record_metric(a, metric),
            _record_metric(b, metric),
            higher_is_better=higher_is_better,
            iqr=0.0,
            rel_floor=rel_floor,
            k=k,
        )
        for metric, higher_is_better in _RECORD_METRICS
    ]


def load_comparable(path: str | Path) -> tuple[str, Any]:
    """Load ``path`` as ``("bench", doc)`` or ``("record", RunRecord)``.

    Accepts a ``BENCH_<n>.json`` file, a single-record JSON file, or a
    ``runs.jsonl`` store (the latest record is used).
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such file: {path}")
    if path.suffix == ".jsonl":
        latest = RunStore(path.parent).latest(1)
        if not latest:
            raise RunStoreError(f"{path}: run store holds no readable records")
        return "record", latest[0]
    doc = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(doc, dict) and "cases" in doc:
        return "bench", load_bench(path)
    if isinstance(doc, dict) and "stats" in doc:
        return "record", RunRecord.from_dict(doc)
    raise ValueError(f"{path}: neither a bench document nor a run record")


def compare_chain(
    paths: Sequence[str | Path],
    *,
    rel_floor: float = DEFAULT_REL_FLOOR,
    k: float = DEFAULT_IQR_K,
) -> list[tuple[str, str, list[MetricVerdict]]]:
    """Adjacent-pair verdicts across N files given oldest → newest.

    Every operand must load as the same kind (all bench or all record);
    each returned step is ``(label_a, label_b, verdicts)`` with labels
    taken from the file names.  Two paths degenerate to one step — the
    classic A/B compare.
    """
    if len(paths) < 2:
        raise ValueError("compare_chain needs at least two paths")
    loaded = [load_comparable(path) for path in paths]
    kinds = {kind for kind, _ in loaded}
    if len(kinds) > 1:
        raise ValueError(
            f"cannot compare mixed kinds ({', '.join(sorted(kinds))}) across "
            f"{len(paths)} operands"
        )
    kind = loaded[0][0]
    steps: list[tuple[str, str, list[MetricVerdict]]] = []
    for (before_path, (_, before)), (after_path, (_, after)) in zip(
        zip(paths, loaded), zip(paths[1:], loaded[1:])
    ):
        if kind == "bench":
            verdicts = compare_bench(before, after, rel_floor=rel_floor, k=k)
        else:
            verdicts = compare_records(before, after, rel_floor=rel_floor, k=k)
        steps.append((Path(before_path).name, Path(after_path).name, verdicts))
    return steps


def render_chain(steps: Sequence[tuple[str, str, list[MetricVerdict]]]) -> str:
    """One combined table across every chained comparison step."""
    if len(steps) == 1:
        label_a, label_b, verdicts = steps[0]
        return render_comparison(verdicts, label_a=label_a, label_b=label_b)
    blocks = []
    total = 0
    for index, (label_a, label_b, verdicts) in enumerate(steps, start=1):
        total += len(regressions(verdicts))
        blocks.append(f"step {index}/{len(steps)}: {label_a} -> {label_b}")
        blocks.append(render_comparison(verdicts, label_a="before", label_b="after"))
        blocks.append("")
    blocks.append(f"chain total: {total} regression(s) across {len(steps)} step(s)")
    return "\n".join(blocks)


def chain_report(
    steps: Sequence[tuple[str, str, list[MetricVerdict]]],
    *,
    gate: Optional[Sequence[str]] = None,
) -> dict[str, Any]:
    """The machine-readable ``repro compare --json`` document."""
    return {
        "kind": "compare",
        "steps": [
            {
                "a": label_a,
                "b": label_b,
                "verdicts": [v.to_dict() for v in verdicts],
                "regressions": len(regressions(verdicts, gate=gate)),
            }
            for label_a, label_b, verdicts in steps
        ],
        "regressions": sum(
            len(regressions(verdicts, gate=gate)) for _, _, verdicts in steps
        ),
    }


def regressions(
    verdicts: list[MetricVerdict],
    *,
    gate: Optional[Sequence[str]] = None,
) -> list[MetricVerdict]:
    """Regressed verdicts, optionally filtered to gated metric names.

    ``gate`` entries match a metric exactly or as a dotted prefix
    (``"events"`` gates every ``events.*`` metric).  ``None`` / empty
    gates everything — the pre-``--gate`` behaviour.
    """
    flagged = [v for v in verdicts if v.verdict == "regressed"]
    if not gate:
        return flagged
    return [
        v
        for v in flagged
        if any(v.metric == g or v.metric.startswith(g + ".") for g in gate)
    ]


def render_comparison(
    verdicts: list[MetricVerdict], *, label_a: str = "A", label_b: str = "B"
) -> str:
    """Aligned text report of the verdict list."""
    if not verdicts:
        return "no overlapping cases/metrics to compare"
    lines = [
        f"{'case':>24s} {'metric':>26s} {label_a:>12s} {label_b:>12s} "
        f"{'delta':>8s}  verdict"
    ]
    for v in verdicts:
        rel = v.rel_delta
        delta = "n/a" if math.isnan(rel) else f"{rel:+.1%}"
        lines.append(
            f"{v.case:>24s} {v.metric:>26s} {fmt_metric(v.a):>12s} {fmt_metric(v.b):>12s} "
            f"{delta:>8s}  {VERDICT_MARKS[v.verdict]} {v.verdict}"
        )
    worst = regressions(verdicts)
    summary = (
        f"{len(worst)} regression(s), "
        f"{sum(1 for v in verdicts if v.verdict == 'improved')} improvement(s), "
        f"{sum(1 for v in verdicts if v.verdict == 'noise')} within noise"
    )
    lines.append(summary)
    return "\n".join(lines)
