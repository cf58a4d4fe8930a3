"""Tests for the host-time observatory (``repro.telemetry.hostprof``).

Covers the ledger's accounting math with a fake clock, the timing seam
(one cycle loop that laps the ledger at its phase boundaries), the
engine-side conservation invariant across every system family, the
passive-observer guarantee (attaching the ledger never changes simulated
results), the strided extrapolation, the cProfile→collapsed-stack folding, and
the end-to-end acceptance story: an injected per-phase slowdown must show
up in the bench history under the guilty phase's name, and never gate.
"""

import itertools
import json
import math
import time
from collections import Counter

import pytest

from repro.core.phy import HeteroPhyLink
from repro.noc.channel import ChannelKind
from repro.noc.flit import Packet
from repro.noc.link import Link, PipelinedLink
from repro.noc.network import Network
from repro.noc.router import Router
from repro.sim.build import POLICIES
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.experiment import run_synthetic
from repro.sim.stats import DeadlockError, Stats
from repro.telemetry import TelemetryConfig
from repro.telemetry.history import load_history
from repro.telemetry.sentinel import analyze_history
from repro.telemetry.hostprof import (
    CONSERVATION_TOLERANCE,
    PHASES,
    RESIDUAL_PHASE,
    HostprofError,
    HostTimeLedger,
    collapsed_stacks,
    fold_profile,
    phase_of,
    render_host_table,
)
from repro.topology.grid import ChipletGrid
from repro.topology.system import build_system

from .helpers import build_chain, chain_spec, forward_routing
from .test_bench_compare import make_bench_doc, make_case, write_docs
from .test_engine import ListWorkload


def small_spec(family="hetero_phy_torus", cycles=800, warmup=100):
    grid = ChipletGrid(2, 2, 3, 3)
    config = SimConfig().replace(sim_cycles=cycles, warmup_cycles=warmup)
    return build_system(family, grid, config)


def run_with_ledger(spec, *, stride=1, seed=1, rate=0.1, digest=False):
    result = run_synthetic(
        spec,
        "uniform",
        rate,
        seed=seed,
        telemetry=TelemetryConfig(
            host_time=True, host_stride=stride, epoch_metrics=False, digest=digest
        ),
    )
    return result, result.telemetry.hostprof


# -- ledger accounting (fake clock, exact math) ------------------------------
def test_ledger_rejects_bad_stride():
    with pytest.raises(ValueError, match="stride"):
        HostTimeLedger(stride=0)


def scripted_clock(*deltas):
    """A clock whose successive readings advance by ``deltas``, cyclically."""
    return itertools.accumulate(itertools.cycle(deltas)).__next__


def ledger_with_books(loop_ns, **phases):
    """One sampled cycle with books written by hand (``lap`` always balances)."""
    ledger = HostTimeLedger()
    ledger.phases.update(phases)
    ledger.timed_cycles = ledger.total_cycles = 1
    ledger.loop_ns = loop_ns
    return ledger


def test_wants_follows_stride():
    ledger = HostTimeLedger(stride=4)
    assert [ledger.begin_cycle(c) is not None for c in range(6)] == [
        True, False, False, False, True, False,
    ]
    every = HostTimeLedger(stride=1)
    assert all(every.begin_cycle(c) == every.lap for c in range(5))


def test_summary_math_is_exact():
    # Per sampled cycle: 5 ns outside it, then 70 ns of inject, 30 ns of sa_st.
    ledger = HostTimeLedger(stride=4, clock=scripted_clock(5, 70, 30))
    for cycle in range(12):
        lap = ledger.begin_cycle(cycle)
        if lap is not None:
            lap("inject")
            lap("sa_st")
            ledger.end_cycle()
    assert (ledger.timed_cycles, ledger.total_cycles) == (3, 12)
    assert ledger.loop_ns == 300 and ledger.attributed_ns == 300
    assert ledger.conservation == 1.0
    ledger.check_conservation()  # must not raise

    summary = ledger.summary()
    assert summary["ns_per_cycle"] == pytest.approx(100.0)
    # Stride 4 over 12 cycles: the estimate scales the 3 timed cycles x4.
    assert summary["est_loop_ns"] == pytest.approx(1200.0)
    inject = summary["phases"]["inject"]
    assert inject["ns_per_cycle"] == pytest.approx(70.0)
    assert inject["share"] == pytest.approx(0.7)
    assert inject["est_total_ns"] == pytest.approx(840.0)
    # Fully-attributed loop: the dispatch residual row is zero.
    assert summary["phases"][RESIDUAL_PHASE]["ns"] == 0.0

    record = ledger.record_summary()
    assert record["shares"]["sa_st"] == pytest.approx(0.3)
    assert set(record["ns_per_cycle"]) == {*PHASES, RESIDUAL_PHASE}


def test_lap_rejects_an_unknown_phase():
    ledger = HostTimeLedger()
    lap = ledger.begin_cycle(0)
    with pytest.raises(KeyError, match="no_such_phase"):
        lap("no_such_phase")
    assert set(ledger.phases) == set(PHASES)


def test_conservation_check_is_two_sided():
    under = ledger_with_books(1000, link=500)  # half the loop unattributed
    with pytest.raises(HostprofError, match="50.0%"):
        under.check_conservation()

    over = ledger_with_books(1000, link=2000)  # double-counted phase
    with pytest.raises(HostprofError, match="conservation"):
        over.check_conservation()

    empty = HostTimeLedger()
    with pytest.raises(HostprofError, match="no timed cycles"):
        empty.check_conservation()
    # A ratio just inside the tolerance band passes.
    close = ledger_with_books(1000, link=int(1000 * (1 - CONSERVATION_TOLERANCE / 2)))
    close.check_conservation()


def test_render_host_table_lists_hot_phases():
    ledger = HostTimeLedger(clock=scripted_clock(0, 600, 400))
    lap = ledger.begin_cycle(0)
    lap("sa_st")
    lap("link")
    ledger.end_cycle()
    table = render_host_table(ledger.summary())
    assert "conservation 100.0%" in table
    assert table.index("sa_st") < table.index("link")  # hottest first
    assert "inject" not in table  # zero phases are dropped


# -- the timing seam: one loop, lapped ---------------------------------------
class CountingClock:
    """Advances 1 ns per reading, so a phase's nanoseconds count its laps."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.calls


class TapedLedger(HostTimeLedger):
    """Keeps the phase of every lap it is asked for, in order, on ``tape``."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.tape = []

    def lap(self, phase):
        self.tape.append(phase)
        super().lap(phase)


def mixed_chain(pipelined=PipelinedLink, hetero=HeteroPhyLink):
    """0 -on-chip-> 1 -hetero-PHY-> 2, every link built by a link factory."""
    stats = Stats()
    network = Network(3, stats)
    config = SimConfig()

    def factory(spec):
        if spec.kind is ChannelKind.HETERO_PHY:
            return hetero(
                spec,
                POLICIES["performance"].dispatch(config),
                tx_fifo_depth=config.tx_fifo_depth,
            )
        return pipelined(spec)

    network.add_channel(chain_spec(0, 1), factory)
    network.add_channel(chain_spec(1, 2, ChannelKind.HETERO_PHY), factory)
    network.set_routing(forward_routing)
    network.finalize()
    return network, stats


def bursts(*cycles):
    return ListWorkload([(cycle, Packet(0, 2, 8, cycle)) for cycle in cycles])


def counting_steps(base):
    class Counting(base):
        steps = 0

        def step(self, now):
            self.steps += 1
            return super().step(now)

    return Counting


def test_a_link_subclass_overriding_step_sees_every_link_cycle():
    """The ``Link`` seam contract holds with a ledger attached: it times the
    one ``step`` there is instead of running a copy of its body."""

    def link_cycles(ledger):
        network, stats = mixed_chain(
            counting_steps(PipelinedLink), counting_steps(HeteroPhyLink)
        )
        engine = Engine(network, bursts(0, 3, 60), stats)
        engine.hostprof = ledger
        engine.run(150)
        assert stats.packets_delivered == 3
        return [link.steps for link in network.links]

    plain = link_cycles(None)
    assert all(plain)
    assert link_cycles(HostTimeLedger(stride=1)) == plain
    for owner in (Engine, Network, Link, HeteroPhyLink):
        twins = [n for n in dir(owner) if n.endswith("_timed") or n == "_tick_profiled"]
        assert twins == [], owner


def test_a_sampled_tick_laps_its_phases_in_loop_order(monkeypatch):
    work = []  # what the loop ran this tick, as the phase each piece belongs to

    class TapedPipelined(PipelinedLink):
        def step(self, now):
            work.append("link")
            return super().step(now)

    class TapedHetero(HeteroPhyLink):
        def _receive(self, now):
            super()._receive(now)
            work.append("phy_rx")

        def step(self, now):
            alive = super().step(now)
            work.append("phy_tx")
            return alive

    for stage, phase in (("_stage_rc_va", "rc_va"), ("_stage_sa", "sa_st")):

        def taped(self, now, _stage=getattr(Router, stage), _phase=phase):
            _stage(self, now)
            work.append(_phase)

        monkeypatch.setattr(Router, stage, taped)

    clock = CountingClock()
    ledger = TapedLedger(clock=clock)
    laps = ledger.tape  # what the ledger was asked to charge this tick
    network, stats = mixed_chain(TapedPipelined, TapedHetero)
    engine = Engine(network, bursts(0, 3, 60), stats)
    engine.hostprof = ledger
    charged = Counter()
    for tick in range(150):
        if tick == 70:  # ``telemetry`` is lapped iff cycle_end has a subscriber
            network.telemetry.subscribe(
                "cycle_end", lambda _network, _now: work.append("telemetry")
            )
        engine.run(1)
        assert laps == ["inject", *work, "stats"], tick
        charged.update(laps)
        work.clear()
        laps.clear()
    assert stats.packets_delivered == 3
    assert set(charged) == set(PHASES)  # every boundary was exercised
    assert charged["telemetry"] == 80
    # One clock reading to open each tick, one per lap; each lap is 1 ns.
    assert clock.calls == 150 + sum(charged.values())
    assert ledger.phases == charged
    assert ledger.loop_ns == sum(charged.values())
    assert (ledger.timed_cycles, ledger.total_cycles) == (150, 150)


def test_skipped_ticks_read_no_clock_and_see_no_hook():
    clock = CountingClock()
    ledger = TapedLedger(stride=4, clock=clock)
    network, stats = mixed_chain()
    workload = bursts(0, 3, 60)
    hook_at = {}  # network.lap as the workload saw it inside each tick
    plain_step = workload.step

    def watching_step(now):
        hook_at[now] = network.lap
        return plain_step(now)

    workload.step = watching_step
    engine = Engine(network, workload, stats)
    engine.hostprof = ledger
    engine.run(150)
    assert stats.packets_delivered == 3
    sampled = [now for now in range(150) if now % 4 == 0]
    assert [now for now, hook in hook_at.items() if hook is not None] == sampled
    assert all(hook_at[now] == ledger.lap for now in sampled)
    assert network.lap is None
    assert (ledger.timed_cycles, ledger.total_cycles) == (len(sampled), 150)
    assert clock.calls == len(sampled) + len(ledger.tape)
    assert ledger.loop_ns == sum(ledger.phases.values()) == len(ledger.tape)


def test_a_failing_sampled_tick_leaves_the_books_balanced():
    # Buffer too small for VCT: the packet never advances, the watchdog fires.
    network, stats = build_chain(2, buffer_depth=8)
    ledger = HostTimeLedger(clock=CountingClock())
    engine = Engine(
        network, ListWorkload([(0, Packet(0, 1, 16, 0))]), stats, deadlock_threshold=50
    )
    engine.hostprof = ledger
    with pytest.raises(DeadlockError):
        engine.run(1000)
    assert network.lap is None
    assert ledger.timed_cycles == ledger.total_cycles == engine.cycle
    assert ledger.loop_ns == sum(ledger.phases.values())
    # The watchdog's own scan of the failing tick is charged like any other.
    assert ledger.phases["inject"] == ledger.phases["stats"] == engine.cycle


# -- engine integration ------------------------------------------------------
def test_conservation_holds_for_every_family(family):
    _, ledger = run_with_ledger(small_spec(family, cycles=500))
    assert ledger.total_cycles >= 500
    assert ledger.timed_cycles == ledger.total_cycles  # stride 1
    ledger.check_conservation()
    # The lap-timer protocol attributes the timed loop exactly.
    assert ledger.conservation == pytest.approx(1.0, abs=1e-9)
    assert sum(ledger.phases.values()) == ledger.loop_ns


def test_ledger_is_a_passive_observer(family):
    """Sampled and skipped ticks run the same loop as an unobserved run.

    Digest chains cover every bus event in order, so a lap hook that
    changed what the loop does — another stage order, a missed delivery —
    shows here even when the headline statistics happen to agree.
    """

    def stats_fingerprint(result):
        return json.dumps(result.stats.summary(), sort_keys=True)

    def chain(result):
        block = result.digest
        return block["final"], block["checkpoints"], block["events"]

    baseline = run_synthetic(
        small_spec(family, cycles=600),
        "uniform",
        0.1,
        seed=9,
        telemetry=TelemetryConfig(digest=True, epoch_metrics=False),
    )
    with_ledger, ledger1 = run_with_ledger(
        small_spec(family, cycles=600), stride=1, seed=9, digest=True
    )
    strided, ledger3 = run_with_ledger(
        small_spec(family, cycles=600), stride=3, seed=9, digest=True
    )
    assert stats_fingerprint(baseline) == stats_fingerprint(with_ledger)
    assert stats_fingerprint(baseline) == stats_fingerprint(strided)
    assert chain(baseline) == chain(with_ledger)
    assert chain(baseline) == chain(strided)
    assert baseline.stats.packets_delivered == with_ledger.stats.packets_delivered
    assert ledger1.total_cycles == ledger3.total_cycles


def test_ledger_is_a_passive_observer_on_the_bypass_mix():
    """Stride 1 laps every link-cycle; with bypass-eligible packets mixed in,
    the lapped run must reproduce the chain pinned for the unobserved one
    (stage gating, bypass queue, ROB parking)."""
    from repro.telemetry import pins
    from repro.telemetry.diff import run_described

    from .test_kernel_equivalence import STORE

    pinned = STORE["hetero_phy_torus-bypass"]
    lapped = TelemetryConfig(epoch_metrics=False, digest=True, digest_checkpoint_every=200,
                             host_time=True, host_stride=1)
    result = run_described(pinned["digest"]["meta"], telemetry=lapped)
    links = result.telemetry.network.links
    assert sum(getattr(link, "flits_bypassed", 0) for link in links) > 0
    ok, report = pins.check(
        "hetero_phy_torus-bypass", pinned, pins.observe(result.digest, result.stats)
    )
    assert ok, report
    ledger = result.telemetry.hostprof
    assert ledger.timed_cycles == ledger.total_cycles >= result.cycles == 600
    assert ledger.phases["phy_rx"] > 0 and ledger.phases["phy_tx"] > 0
    ledger.check_conservation()
    assert ledger.conservation == pytest.approx(1.0, abs=1e-9)


def test_strided_sampling_times_every_nth_cycle():
    result, ledger = run_with_ledger(small_spec(cycles=900), stride=4)
    assert ledger.total_cycles >= 900
    # Cycles 0, 4, 8, ... are timed: one quarter of the loop (rounded up).
    expected = (ledger.total_cycles + 3) // 4
    assert ledger.timed_cycles == expected
    summary = ledger.summary()
    scale = ledger.total_cycles / ledger.timed_cycles
    assert summary["est_loop_ns"] == pytest.approx(ledger.loop_ns * scale)
    assert result.host_phases is not None
    assert result.host_phases["stride"] == 4


def test_router_work_lands_in_pipeline_phases():
    _, ledger = run_with_ledger(small_spec(cycles=800), rate=0.15)
    summary = ledger.summary()
    # Under load the switch/VC pipeline dominates; the residual dispatch
    # row must stay negligible (the laps leave nothing unattributed).
    assert summary["phases"]["sa_st"]["share"] > 0.1
    assert summary["phases"]["rc_va"]["share"] > 0.0
    assert summary["phases"][RESIDUAL_PHASE]["share"] < 0.01


# -- cProfile folding ----------------------------------------------------------
def test_phase_of_mapping():
    assert phase_of("src/repro/noc/router.py", "_stage_rc_va") == "rc_va"
    assert phase_of("src/repro/noc/router.py", "_stage_sa") == "sa_st"
    assert phase_of("src/repro/noc/router.py", "_eject_packet") == "sa_st"
    assert phase_of("src/repro/core/phy.py", "_receive") == "phy_rx"
    assert phase_of("src/repro/core/phy.py", "_dispatch") == "phy_tx"
    assert phase_of("src/repro/core/rob.py", "reorder") == "phy_rx"
    assert phase_of("src/repro/noc/link.py", "step") == "link"
    assert phase_of("src/repro/traffic/injection.py", "step") == "inject"
    assert phase_of("src/repro/sim/engine.py", "run") == RESIDUAL_PHASE
    assert phase_of("~", "<built-in method time.sleep>") == "other"


def test_every_function_override_names_a_live_method():
    """``_PHASE_BY_FUNC`` keys are bare function names: a refactor that
    renames or inlines one would orphan its entry without any error."""
    from repro.core.phy import HeteroPhyLink
    from repro.core.rob import ReorderBuffer
    from repro.noc.router import Router
    from repro.telemetry.hostprof import _PHASE_BY_FUNC

    owners = (Router, HeteroPhyLink, ReorderBuffer)
    orphans = [
        name
        for name in _PHASE_BY_FUNC
        if not any(callable(getattr(owner, name, None)) for owner in owners)
    ]
    assert orphans == []
    assert set(_PHASE_BY_FUNC.values()) <= set(PHASES)


def test_fold_profile_produces_phase_rooted_stacks():
    import cProfile

    from repro.sim.build import build_network
    from repro.traffic.injection import SyntheticWorkload
    from repro.traffic.patterns import make_pattern

    spec = small_spec(cycles=400)
    stats = Stats(measure_from=100)
    network = build_network(spec, stats)
    workload = SyntheticWorkload(
        make_pattern("uniform", spec.grid.n_nodes),
        spec.grid.n_nodes,
        0.1,
        spec.config.packet_length,
        until=400,
        seed=1,
    )
    profile = cProfile.Profile()
    profile.enable()
    Engine(network, workload, stats).run(400)
    profile.disable()

    rows = fold_profile(profile)
    assert rows and all(stack[0] == "engine" for stack, _ in rows)
    assert all(ns > 0 for _, ns in rows)
    assert rows == sorted(rows, key=lambda row: (-row[1], row[0]))
    phases_seen = {stack[1] for stack, _ in rows}
    assert "sa_st" in phases_seen and "link" in phases_seen

    # One collapsed-stack line per row, weighted in nanoseconds: a row of
    # less than a microsecond of self time is kept too.
    lines = collapsed_stacks(rows).splitlines()
    assert [line.rsplit(" ", 1) for line in lines] == [
        [";".join(stack), str(ns)] for stack, ns in rows
    ]
    assert collapsed_stacks([(("engine", "link", "repro/noc/link.py:step"), 999)]) == (
        "engine;link;repro/noc/link.py:step 999\n"
    )


# -- acceptance: the ledger names the guilty phase; regress never gates on it -----
def host_case(ns_per_cycle):
    """A workload block carrying a ledger's split as per-layer host rows, the
    way ``benchmarks/perf/child.py`` names them."""
    rows = {"rc_va": "noc.router.rc_va", "sa_st": "noc.router.sa_st", "stats": "sim.engine.stats"}
    return make_case(
        layers={f"{rows[p]}_ns_per_flit_hop": ns for p, ns in ns_per_cycle.items() if p in rows}
    )


def test_injected_slowdown_is_attributed_to_the_guilty_phase(monkeypatch, tmp_path):
    from repro.noc.router import Router

    _, clean = run_with_ledger(small_spec(cycles=400), seed=5)

    original = Router._stage_rc_va

    def slow_rc_va(self, now):
        time.sleep(20e-6)  # the "time.sleep in VA" of the acceptance test
        return original(self, now)

    monkeypatch.setattr(Router, "_stage_rc_va", slow_rc_va)
    _, slowed = run_with_ledger(small_spec(cycles=400), seed=5)

    npc_clean = clean.record_summary()["ns_per_cycle"]
    npc_slow = slowed.record_summary()["ns_per_cycle"]
    assert npc_slow["rc_va"] > 3 * npc_clean["rc_va"]
    # Attribution stays conserved even with the sleep inside the lap.
    slowed.check_conservation()

    before = make_bench_doc(fig11=host_case(npc_clean))
    after = make_bench_doc(fig11=host_case(npc_slow))
    history = load_history(paths=write_docs(tmp_path, before, after))
    # The phase's series shows the slowdown; host time of one layer carries no
    # verdict (`run.py --agree`'s rule), so no gate can trip on it.
    guilty = history.get("fig11", "noc.router.rc_va_ns_per_flit_hop")
    assert guilty.auxiliary and guilty.values[1] > 3 * guilty.values[0]
    assert analyze_history(history, metric_prefixes=["noc.router"]).regressions() == []


def test_compare_tolerates_missing_host_blocks(tmp_path):
    old = make_bench_doc(fig11=make_case(counts={}))  # a --trace 0 run: no per-layer rows
    new = make_bench_doc(fig11=host_case({"sa_st": 5000.0, "rc_va": 1000.0}))
    history = load_history(paths=write_docs(tmp_path, old, new))
    host = [s for s in history.series.values() if s.metric.endswith("_ns_per_flit_hop")]
    assert host and all(s.auxiliary and math.isnan(s.values[0]) for s in host)
    assert analyze_history(history, metric_prefixes=["noc"]).regressions() == []


def test_compare_skips_sub_noise_phases(tmp_path):
    report = analyze_history(load_history(paths=write_docs(
        tmp_path,
        make_bench_doc(fig11=host_case({"sa_st": 10_000.0, "stats": 50.0})),
        make_bench_doc(fig11=host_case({"sa_st": 10_000.0, "stats": 150.0})),
    )), metric_prefixes=["sim.engine", "noc"])
    # A 3x jump in a 0.5%-share phase is absolute noise, not a regression:
    # no layer's host time is ever judged, only the end-to-end rows it moves.
    assert not report.regressions()
    assert not [r for r in report.reports if r.metric.endswith("_ns_per_flit_hop")]
