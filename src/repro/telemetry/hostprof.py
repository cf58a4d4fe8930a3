"""Host wall-time attribution and profiler folding (``repro simulate --profile``).

The latency ledger answers "where do a packet's *simulated* cycles go?";
this module answers the twin question for the machine running the
simulation: **where does host wall-clock time go inside the per-cycle
loop?**  You cannot claim a kernel change helped a phase you never
measured.

Two instruments live here:

* :class:`HostTimeLedger` — a ``perf_counter_ns`` lap timer.  On a cycle
  it samples, the engine puts the ledger's :meth:`~HostTimeLedger.lap` in
  ``network.lap`` and the one cycle loop calls ``lap(phase)`` at its phase
  boundaries; on any other cycle the hook is ``None`` and nothing is
  called.  Attributed time is checked against the timed-loop total.  A
  *strided* mode times every Nth cycle and extrapolates, dropping
  overhead below the 5% budget.
* cProfile **folding** — :func:`fold_profile` maps every function of a
  run's capture (``TelemetrySession.profile``) to a phase-rooted
  synthetic stack, emitted as collapsed-stack text
  (:func:`collapsed_stacks`): the input of ``flamegraph.pl`` and inferno,
  and a format speedscope imports as is.

Pure stdlib; simulator types appear only under ``TYPE_CHECKING`` (see
the package initializer's import note).
"""

from __future__ import annotations

import math
import pstats
import time
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import cProfile

#: Host phases the engine attributes wall time to, in pipeline order.
#: These are the only names :meth:`HostTimeLedger.lap` accepts.
PHASES: tuple[str, ...] = (
    "inject",  # workload step + packet injection (source queues)
    "rc_va",  # router routing computation + VC allocation
    "sa_st",  # router switch allocation + switch traversal
    "link",  # plain pipelined-link advance (incl. credit delivery)
    "phy_rx",  # hetero-PHY receive: ROB insert/release to downstream
    "phy_tx",  # hetero-PHY serialize/dispatch + credit delivery
    "telemetry",  # cycle_end bus fan-out (per-event dispatch costs land
    #               in the phase whose code emitted the event)
    "stats",  # engine epilogue: deadlock watchdog + cycle bookkeeping
)

#: Synthetic phase charged with the residual between the timed-loop
#: total and the sum of attributed phases: work-list bookkeeping,
#: activity-flag maintenance and the timers themselves.
RESIDUAL_PHASE = "dispatch"

#: Every phase a summary can carry, in rendering order — the timed
#: taxonomy plus the residual.  Shared by the dashboard's stacked bars
#: and the memory ledger's site folding so the panels line up.
ALL_PHASES: tuple[str, ...] = (*PHASES, RESIDUAL_PHASE)

#: Default conservation tolerance: attributed time must reach this
#: fraction of the timed-loop total (mirrors the 5% acceptance budget).
CONSERVATION_TOLERANCE = 0.05


class HostprofError(RuntimeError):
    """The host-time attribution violated its conservation invariant."""


class HostTimeLedger:
    """Attributes engine wall time to named phases.

    One ledger observes one engine run.  Attach it before the run
    (``engine.hostprof = ledger``, the engine's per-tick seam, or
    ``TelemetryConfig(host_time=True)``) and read :meth:`summary` after.  ``stride=N`` times every Nth
    cycle and extrapolates (the estimator assumes sampled cycles are
    representative, which holds for the stationary workloads of the
    repo benchmark); ``stride=1`` times every cycle.

    The ledger is a passive observer: it never touches simulator state,
    so a run with the ledger attached produces byte-identical statistics
    to one without (checked by ``tests/test_hostprof.py``).
    """

    def __init__(
        self,
        *,
        stride: int = 1,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.stride = stride
        #: Nanosecond clock; injectable so tests can drive a fake one.
        self.clock = clock
        #: Accumulated nanoseconds per phase (timed cycles only).
        self.phases: dict[str, int] = dict.fromkeys(PHASES, 0)
        #: Cycles actually timed / all cycles the engine ran.
        self.timed_cycles = 0
        self.total_cycles = 0
        #: Total wall nanoseconds of the timed ticks (phase sums + residual).
        self.loop_ns = 0
        # Clock readings of the sampled cycle in progress: its start, its last lap.
        self._start = self._last = 0

    # -- engine-side hooks --------------------------------------------------
    def begin_cycle(self, cycle: int) -> Optional[Callable[[str], None]]:
        """Count ``cycle``; if it is sampled, start the lap chain and return :meth:`lap`.

        A stride-skipped cycle returns ``None``: the loop then makes no
        call and reads no clock.
        """
        self.total_cycles += 1
        if cycle % self.stride:
            return None
        self._start = self._last = self.clock()
        return self.lap

    def lap(self, phase: str) -> None:
        """Charge the time since the previous reading to ``phase``.

        Chained, so every nanosecond from :meth:`begin_cycle` to the last
        lap is attributed, loop bookkeeping and the clock's own cost
        included.  An unknown phase name raises ``KeyError``.
        """
        now = self.clock()
        self.phases[phase] += now - self._last
        self._last = now

    def end_cycle(self) -> None:
        """Close a sampled cycle: it ran from :meth:`begin_cycle` to the last lap."""
        self.timed_cycles += 1
        self.loop_ns += self._last - self._start

    # -- results ------------------------------------------------------------
    @property
    def attributed_ns(self) -> int:
        """Nanoseconds attributed to named phases (excludes the residual)."""
        return sum(self.phases.values())

    @property
    def conservation(self) -> float:
        """Attributed fraction of the timed-loop total (target: >= 0.95)."""
        if self.loop_ns <= 0:
            return math.nan
        return self.attributed_ns / self.loop_ns

    def check_conservation(self, tolerance: float = CONSERVATION_TOLERANCE) -> None:
        """Raise :class:`HostprofError` unless attribution conserves time.

        Attributed time must be within ``tolerance`` of the timed-loop
        total on *both* sides — a sum above the loop total would mean a
        phase was double-counted.
        """
        ratio = self.conservation
        if math.isnan(ratio):
            raise HostprofError("no timed cycles — was the ledger attached?")
        if ratio < 1.0 - tolerance or ratio > 1.0 + tolerance:
            raise HostprofError(
                f"host-time attribution violates conservation: attributed "
                f"{self.attributed_ns} ns is {ratio:.1%} of the "
                f"{self.loop_ns} ns timed-loop total "
                f"(tolerance {tolerance:.0%})"
            )

    def summary(self) -> dict[str, Any]:
        """Full attribution summary (extrapolated when strided).

        ``phases`` maps each phase — including the ``dispatch`` residual
        — to raw nanoseconds, ns/timed-cycle, its share of the timed-loop
        total, and the stride-extrapolated estimate for the whole run.
        """
        timed = self.timed_cycles
        loop = self.loop_ns
        scale = self.total_cycles / timed if timed else math.nan
        residual = max(0, loop - self.attributed_ns)
        phases: dict[str, dict[str, float]] = {}
        for name in (*PHASES, RESIDUAL_PHASE):
            ns = residual if name == RESIDUAL_PHASE else self.phases[name]
            phases[name] = {
                "ns": float(ns),
                "ns_per_cycle": ns / timed if timed else math.nan,
                "share": ns / loop if loop else math.nan,
                "est_total_ns": ns * scale if timed else math.nan,
            }
        return {
            "stride": self.stride,
            "timed_cycles": timed,
            "total_cycles": self.total_cycles,
            "loop_ns": loop,
            "attributed_ns": self.attributed_ns,
            "conservation": self.conservation,
            "ns_per_cycle": loop / timed if timed else math.nan,
            "est_loop_ns": loop * scale if timed else math.nan,
            "phases": phases,
        }

    def record_summary(self) -> dict[str, Any]:
        """Compact summary for ``BENCH_*.json`` / run-registry records."""
        summary = self.summary()
        return {
            "stride": self.stride,
            "timed_cycles": self.timed_cycles,
            "total_cycles": self.total_cycles,
            "conservation": summary["conservation"],
            "ns_per_cycle": {
                name: cell["ns_per_cycle"] for name, cell in summary["phases"].items()
            },
            "shares": {name: cell["share"] for name, cell in summary["phases"].items()},
        }


def _fmt_ns(ns: float) -> str:
    if math.isnan(ns):
        return "n/a"
    if ns >= 1e9:
        return f"{ns / 1e9:.2f} s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.1f} µs"
    return f"{ns:.0f} ns"


def render_host_table(summary: dict[str, Any]) -> str:
    """Plain-text phase breakdown of a :meth:`HostTimeLedger.summary`."""
    lines = [
        f"host-time attribution: {summary['timed_cycles']}/"
        f"{summary['total_cycles']} cycles timed "
        f"(stride {summary['stride']}), "
        f"{_fmt_ns(summary['ns_per_cycle'])}/cycle, "
        f"conservation {summary['conservation']:.1%}",
        f"{'phase':>12s} {'ns/cycle':>12s} {'share':>8s} {'est total':>12s}",
    ]
    phases = summary["phases"]
    ranked = sorted(phases.items(), key=lambda item: -item[1]["ns"])
    for name, cell in ranked:
        if not cell["ns"]:
            continue
        lines.append(
            f"{name:>12s} {cell['ns_per_cycle']:>12,.0f} "
            f"{cell['share']:>8.1%} {_fmt_ns(cell['est_total_ns']):>12s}"
        )
    lines.append(
        f"{'total':>12s} {summary['ns_per_cycle']:>12,.0f} "
        f"{'100.0%':>8s} {_fmt_ns(summary['est_loop_ns']):>12s}"
    )
    return "\n".join(lines)


# -- cProfile folding ---------------------------------------------------------

#: Function-name overrides for files whose functions span phases.
_PHASE_BY_FUNC: dict[str, str] = {
    # repro/noc/router.py
    "_stage_rc_va": "rc_va",
    "_try_vc_allocate": "rc_va",
    "_stage_sa": "sa_st",
    "_eject_packet": "sa_st",
    "inject": "inject",
    # repro/core/phy.py, repro/core/rob.py
    "_receive": "phy_rx",
    "reorder": "phy_rx",
    "_dispatch": "phy_tx",
    "_decide_bypass": "phy_tx",
}

#: Path-substring → phase rules, first match wins (paths normalized to "/").
_PHASE_BY_PATH: tuple[tuple[str, str], ...] = (
    ("repro/traffic/", "inject"),
    ("repro/routing/", "rc_va"),
    ("repro/noc/link", "link"),
    ("repro/core/rob", "phy_rx"),
    ("repro/core/", "phy_tx"),
    ("repro/sim/stats", "stats"),
    ("repro/telemetry/", "telemetry"),
    ("repro/sim/engine", RESIDUAL_PHASE),
    ("repro/noc/network", RESIDUAL_PHASE),
)


def phase_of(filename: str, funcname: str) -> str:
    """Heuristic phase of one profiled function (``"other"`` if unknown).

    The mapping mirrors :data:`PHASES`, so the flamegraph's second level
    lines up with the :class:`HostTimeLedger` breakdown table.
    """
    if funcname in _PHASE_BY_FUNC:
        return _PHASE_BY_FUNC[funcname]
    path = filename.replace("\\", "/")
    for needle, phase in _PHASE_BY_PATH:
        if needle in path:
            return phase
    return "other"


def _frame_label(filename: str, funcname: str) -> str:
    path = filename.replace("\\", "/")
    if "/" in path:
        # Keep the package-relative tail: src/repro/noc/router.py -> repro/noc/router.py
        parts = path.split("/")
        if "repro" in parts:
            path = "/".join(parts[parts.index("repro"):])
        else:
            path = parts[-1]
    if path.startswith("~"):  # pstats marker for C builtins
        return funcname
    return f"{path}:{funcname}"


def fold_profile(profile: "cProfile.Profile") -> list[tuple[tuple[str, ...], int]]:
    """Fold a cProfile capture into phase-rooted synthetic stacks.

    Each profiled function becomes one ``(stack, self_time_ns)`` row with
    the stack ``("engine", <phase>, <module:function>)`` — the phase→stack
    mapping that makes the flamegraph comparable to the
    :class:`HostTimeLedger` table.  Rows are sorted hottest-first.
    """
    stats = pstats.Stats(profile)
    rows: list[tuple[tuple[str, ...], int]] = []
    for (filename, _lineno, funcname), entry in stats.stats.items():  # type: ignore[attr-defined]
        self_ns = int(entry[2] * 1e9)  # tt: total time excluding subcalls
        if self_ns <= 0:
            continue
        stack = ("engine", phase_of(filename, funcname), _frame_label(filename, funcname))
        rows.append((stack, self_ns))
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows


def collapsed_stacks(rows: list[tuple[tuple[str, ...], int]]) -> str:
    """Collapsed-stack flamegraph text (Brendan Gregg's format).

    One ``frame;frame;frame weight`` line per folded row; weights are
    integer nanoseconds of self time, so no sub-microsecond row is lost.
    """
    lines = [";".join(stack) + f" {ns}" for stack, ns in rows]
    return "\n".join(lines) + ("\n" if lines else "")


__all__ = [
    "ALL_PHASES",
    "CONSERVATION_TOLERANCE",
    "HostTimeLedger",
    "HostprofError",
    "PHASES",
    "RESIDUAL_PHASE",
    "collapsed_stacks",
    "fold_profile",
    "phase_of",
    "render_host_table",
]
