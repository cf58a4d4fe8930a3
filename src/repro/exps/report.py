"""Paper-vs-measured reporting.

Reads the CSV series written by the benchmark harness
(``benchmarks/results/<artifact>_<scale>.csv``) and produces the
comparison summary recorded in ``EXPERIMENTS.md``: for each table/figure,
the paper's qualitative/quantitative claim next to what this
reproduction measures.

Usable programmatically (:func:`summarize`) or via ``repro report``.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Optional

from .common import ExperimentResult, reduction

#: Paper-reported Table 3 latency reductions (fractions).
PAPER_TABLE3 = {
    "4x(2x2)": (0.173, 0.217, None, None),
    "16x(2x2)": (0.175, 0.300, None, None),
    "16x(4x4)": (0.164, 0.218, 0.096, 0.222),
    "16x(6x6)": (0.193, 0.179, 0.155, 0.198),
    "64x(7x7)": (0.358, 0.205, 0.464, 0.131),
}

#: Paper-reported energy reductions (Sec 8.3).
PAPER_ENERGY = {
    # (figure, group): (vs_parallel, vs_serial)
    ("fig16", "hetero-channel"): (0.31, 0.13),
    ("fig17", "hetero-phy"): (0.09, None),
    ("fig17", "hetero-channel"): (0.27, 0.10),
}


def load_result(path: Path) -> ExperimentResult:
    """Load one benchmark CSV back into an ExperimentResult."""
    lines = path.read_text().strip().splitlines()
    headers = tuple(lines[0].split(","))
    result = ExperimentResult(path.stem, f"loaded from {path.name}", headers)
    for line in lines[1:]:
        values = []
        for cell in line.split(","):
            if cell == "sat":
                values.append(math.nan)
                continue
            try:
                values.append(int(cell))
            except ValueError:
                try:
                    values.append(float(cell))
                except ValueError:
                    values.append(cell)
        result.rows.append(tuple(values))
    return result


#: The artifacts :func:`summarize` reads, in report order.
ARTIFACTS = ("fig11", "fig12", "table3", "fig16", "fig17")


def load_results(results_dir: Path, scale: str) -> dict[str, ExperimentResult]:
    """Each of :data:`ARTIFACTS` with a CSV at ``scale``, read once."""
    paths = {artifact: Path(results_dir) / f"{artifact}_{scale}.csv" for artifact in ARTIFACTS}
    return {artifact: load_result(path) for artifact, path in paths.items() if path.exists()}


def _fmt_pct(value: Optional[float]) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    return f"{value:+.1%}"


def summarize_fig11(result: ExperimentResult) -> list[str]:
    lines = ["per-pattern latency ordering at the lowest swept rate:"]
    rates = sorted(set(result.column("rate")))
    for pattern in sorted(set(result.column("pattern"))):
        rows = {r[1]: r[3] for r in result.filtered(pattern=pattern, rate=rates[0])}
        ranked = sorted(rows, key=rows.get)
        lines.append(f"  {pattern:12s}: " + " < ".join(ranked))
    return lines


def summarize_reductions(
    result: ExperimentResult,
    value_col: str,
    network_col: str,
    hetero: str,
    parallel: str,
    serial: str,
    group_col: Optional[str] = None,
    group: Optional[str] = None,
) -> tuple[float, float]:
    """Mean reduction of the hetero network vs the two baselines."""
    rows = result.rows if group is None else result.filtered(**{group_col: group})
    v_idx = result.headers.index(value_col)
    n_idx = result.headers.index(network_col)
    per_net: dict[str, list[float]] = {}
    for row in rows:
        value = row[v_idx]
        if isinstance(value, float) and math.isnan(value):
            continue
        per_net.setdefault(row[n_idx], []).append(value)
    def mean(net):
        values = per_net.get(net, [])
        return sum(values) / len(values) if values else math.nan
    h = mean(hetero)
    return reduction(mean(parallel), h), reduction(mean(serial), h)


def summarize(
    results_dir: Path, scale: str, results: Optional[dict[str, ExperimentResult]] = None
) -> str:
    """Render the paper-vs-measured markdown summary for one scale.

    ``results`` is :func:`load_results`'s answer when the caller already
    holds it (the fleet page's snapshot); otherwise it is read here.
    """
    if results is None:
        results = load_results(results_dir, scale)
    out: list[str] = [f"## Measured at scale `{scale}`", ""]

    fig11 = results.get("fig11")
    if fig11:
        out.append("### Fig 11 (hetero-PHY, synthetic patterns)")
        out.extend(summarize_fig11(fig11))
        vs_p, vs_s = summarize_reductions(
            fig11, "avg_latency", "network", "hetero-phy-full", "parallel-mesh", "serial-torus"
        )
        out.append(
            f"mean latency of hetero-PHY-full vs parallel-mesh {_fmt_pct(vs_p)}, "
            f"vs serial-torus {_fmt_pct(vs_s)} (positive = hetero lower)"
        )
        out.append("")

    fig12 = results.get("fig12")
    if fig12:
        vs_p, vs_s = summarize_reductions(
            fig12, "avg_latency", "network", "hetero-phy-full", "parallel-mesh", "serial-torus"
        )
        out.append("### Fig 12 (hetero-PHY, PARSEC traces)")
        out.append(
            f"mean latency reduction across apps: vs parallel {_fmt_pct(vs_p)}, "
            f"vs serial {_fmt_pct(vs_s)} (paper: hetero best on all apps, "
            "serial-torus worst at 64 nodes)"
        )
        out.append("")

    table3 = results.get("table3")
    if table3:
        out.append("### Table 3 (scalability: latency reduction of hetero-IF)")
        out.append("| scale | hPHY vs par (paper) | hPHY vs ser (paper) | hCh vs par (paper) | hCh vs ser (paper) |")
        out.append("|---|---|---|---|---|")
        for row in table3.rows:
            label = row[0]
            paper = PAPER_TABLE3.get(label, (None, None, None, None))
            cells = [
                f"{_fmt_pct(row[i + 1])} ({_fmt_pct(paper[i])})" for i in range(4)
            ]
            out.append(f"| {label} | " + " | ".join(cells) + " |")
        out.append("")

    for artifact, group, hetero, parallel, serial in (
        ("fig16", "hetero-phy", "hetero-phy", "parallel-mesh", "serial-torus"),
        ("fig16", "hetero-channel", "hetero-channel", "parallel-mesh", "serial-hypercube"),
        ("fig17", "hetero-phy", "hetero-phy", "parallel-mesh", "serial-torus"),
        ("fig17", "hetero-channel", "hetero-channel", "parallel-mesh", "serial-hypercube"),
    ):
        result = results.get(artifact)
        if not result:
            continue
        vs_p, vs_s = summarize_reductions(
            result,
            "total_pj",
            "network",
            hetero,
            parallel,
            serial,
            group_col="group",
            group=group,
        )
        paper = PAPER_ENERGY.get((artifact, group))
        paper_txt = (
            f" (paper: {_fmt_pct(paper[0])} / {_fmt_pct(paper[1])})" if paper else ""
        )
        out.append(
            f"### {artifact} / {group}: energy vs parallel {_fmt_pct(vs_p)}, "
            f"vs serial {_fmt_pct(vs_s)}{paper_txt}"
        )
    out.append("")
    return "\n".join(out)
