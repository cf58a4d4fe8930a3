"""The one noise rule for a pair of runs, and the shared verdict vocabulary.

Simulator throughput jitters run to run, so a naive A/B diff flags noise
as regressions.  Every timed metric is judged against a threshold of

    ``max(rel_floor * |baseline|, k * IQR)``

where the floor is the metric's bound in ``BENCHMARK.json`` and the IQR
comes from the timed repetitions' samples: past it in the wrong direction →
``regressed``, in the right one → ``improved``, otherwise ``noise``.  The
exact rows of a bench file (counts, fingerprints, digest chains) have no
threshold — any difference between two runs of the same seed and ``smoke``
flag reads ``regressed``.  :func:`classify` is that rule; ``repro regress``
applies it to the last two runs of a series too short for its changepoint
test (two files: the classic A/B), and the changepoint test's band is
:func:`noise_band`.

Pure stdlib; knows nothing about the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

#: Default relative floor under which a delta is noise regardless of IQR.
DEFAULT_REL_FLOOR = 0.05
#: Default IQR multiplier of the noise threshold.
DEFAULT_IQR_K = 1.5
#: One mark per verdict word of the ``repro regress`` table.
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


def fmt_metric(value: float, unit: str = "") -> str:
    """One metric value as the regress / dashboard tables print it."""
    if not math.isfinite(value):
        return "n/a"
    if unit == "hash48":
        return f"{int(value):012x}"
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
    exact: bool = False,
) -> MetricVerdict:
    """Judge one metric pair against the noise threshold.

    ``exact`` rows have none: a seed-determined count that moved either way
    means the simulated behaviour changed, which no speed-up may do.
    """
    threshold = math.nan
    if math.isnan(a) or math.isnan(b):
        verdict = "n/a"
    else:
        threshold = 0.0 if exact else noise_band(a, iqr, rel_floor, k)
        delta = b - a
        if abs(delta) <= threshold:
            verdict = "noise"
        elif exact or (delta > 0) != higher_is_better:
            verdict = "regressed"
        else:
            verdict = "improved"
    return MetricVerdict(case, metric, a, b, threshold, higher_is_better, verdict)
