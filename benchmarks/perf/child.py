"""One benchmark pass in a fresh interpreter: ``child.py MODE --workload W ...``.

The parent (``run.py``) starts one of these at a time and reads the JSON
report it leaves behind.  Modes:

``warm``    import everything once so ``.pyc`` compilation never lands in a
            timed pass; reports nothing of interest.
``setup``   everything before the first engine tick, then exit — an extra
            sample for ``setup_s``.
``timed``   the workload once with **zero** bus subscribers; the end-to-end
            numbers come from here.
``traced``  the per-layer pass: span recorders around the public callables
            the workload goes through, one census run (``EventCounters`` +
            run digest) and one host-ledger run.  Never used for end-to-end
            numbers.
``extras``  workload-independent per-layer numbers: the observer-overhead
            block and the tiny-scale Table 3 accuracy line.

Layers are measured from outside: by timing calls into public functions
and by reading ``RunResult``/``Stats``/``EventCounters``.  Nothing in
``src/`` is edited or subclassed; the traced pass rebinds module-level
names (``repro.sim.experiment.build_network`` ...) to pass-through
recorders for the life of this process only.

Every host time a pass reports is in **reference-host seconds**: this box
runs any process 1.2-2x slower for seconds to minutes at a time, so each
pass samples how fast the host is running it (``HostSpeed``) and counts
the work between two instants at the speed it was done at.
"""

import time

T0 = time.perf_counter()  # before `import repro`: wall_s starts here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spec  # noqa: E402

# The checkout's own sources, ahead of any installed copy.
sys.path.insert(0, str(spec.SRC))


def now() -> float:
    """Seconds since T0."""
    return time.perf_counter() - T0


# -- host speed ------------------------------------------------------------------
class _Port:
    """Stand-in for the simulator's small mutable objects; used by ``calibrate`` only."""

    __slots__ = ("credits", "seen", "queue")

    def __init__(self, credits: int) -> None:
        self.credits = credits
        self.seen: dict[int, int] = {}
        self.queue: list[int] = []

    def step(self, cycle: int) -> int:
        queue = self.queue
        queue.append(cycle)
        if len(queue) > 4:
            queue.pop(0)
        self.seen[cycle & 15] = self.credits
        self.credits += 1
        return len(queue)


_PORTS = [_Port(i) for i in range(64)]


def calibrate() -> int:
    """A fixed piece of simulator-like work: method calls, slots, lists, dicts.

    It lives here, not in ``src/``: a change to the simulator cannot make it
    faster, so it cannot hide or fake a gain.
    """
    total = 0
    for cycle in range(150):
        for port in _PORTS:
            total += port.step(cycle)
    return total


#: The reference host runs ``calibrate()`` in exactly this long: this box
#: with nobody else on the core.  It only sets the scale of the numbers.
REFERENCE_S = 0.0012


class HostSpeed:
    """How fast the host runs this process, sampled while the process works.

    A SIGALRM handler runs ``calibrate()`` every ``PERIOD`` seconds of wall
    time, wherever the main thread happens to be, and keeps ``(start,
    end)`` of each call.  Work done between two samples is counted at the
    mean of their speeds; the samples' own time is not counted at all.
    """

    PERIOD = 0.02

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # seconds since T0
        self._sampling = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)

    def stop(self) -> float:
        """End of the measured part: a last sample; returns the instant before it."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = now()
        self._sample()
        return end

    def _sample(self, *_signal_args) -> None:
        if self._sampling:  # a stall longer than PERIOD: the timer fired inside a sample
            return
        self._sampling = True
        start = now()
        calibrate()
        self.samples.append((start, now()))
        self._sampling = False

    def reference_seconds(self, start: float, end: float) -> float:
        """The work done between two instants, in seconds of the reference host."""
        samples = self.samples
        first_start, first_end = samples[0]
        total = 0.0
        if start < first_start:  # the interpreter's first milliseconds, before start()
            total += (min(end, first_start) - start) * REFERENCE_S / (first_end - first_start)
        for (s0, e0), (s1, e1) in zip(samples, samples[1:]):
            low, high = max(e0, start), min(s1, end)
            if high > low:
                total += (high - low) * 0.5 * (REFERENCE_S / (e0 - s0) + REFERENCE_S / (e1 - s1))
        return total


HOST = HostSpeed()


class Spans:
    """In-memory ``{name, start, end, parent}`` records, wall seconds since T0.

    ``total`` and ``self_time`` answer in reference-host seconds.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": now(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
        }
        self._open.append(len(self.records))
        self.records.append(record)
        try:
            yield record
        finally:
            record["end"] = now()
            self._open.pop()

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Rebind ``owner.attr`` to a recorder that spans every call.

        ``after(result)`` sees each return value (census attach, point
        collection); the wrapped callable's behaviour is untouched.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def recorder(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, recorder)

    def _under(self, index: int | None, root: int | None) -> bool:
        if root is None:
            return True
        while index is not None:
            if index == root:
                return True
            index = self.records[index]["parent"]
        return False

    def select(self, name: str, under: str | None = None) -> list[int]:
        """Indices of spans called ``name`` (inside the ``under`` span if given)."""
        root = None
        if under is not None:
            root = next(i for i, r in enumerate(self.records) if r["name"] == under)
        return [
            i
            for i, r in enumerate(self.records)
            if r["name"] == name and self._under(i, root)
        ]

    def total(self, name: str, under: str | None = None) -> float:
        return sum(
            HOST.reference_seconds(self.records[i]["start"], self.records[i]["end"])
            for i in self.select(name, under)
        )

    def self_time(self, name: str, under: str | None = None) -> float:
        """Span time minus the part its direct children cover."""
        picked = set(self.select(name, under))
        children = sum(
            HOST.reference_seconds(r["start"], r["end"])
            for r in self.records
            if r["parent"] in picked
        )
        return self.total(name, under) - children


# -- reading results -----------------------------------------------------------
def point_record(result) -> dict:
    """The seed-determined numbers of one simulation point that returned just now.

    ``engine_span`` is where its engine loop ran (instants since T0): it
    ended now and lasted ``RunResult.wall_seconds``.
    """
    returned = now()
    stats = result.stats
    link_flits = sorted((kind.name, n) for kind, n in stats.link_flits.items())
    latency_sum = sum(stats.latencies)
    identity = [
        stats.packets_injected,
        stats.flits_injected,
        stats.packets_delivered,
        stats.router_flits,
        latency_sum,
        link_flits,
    ]
    problems = []
    if stats.packets_delivered > stats.measured_injected:
        problems.append("delivered more packets than were injected")
    if not math.isfinite(stats.avg_latency):
        problems.append("avg_latency is not finite")
    return {
        "fingerprint": hashlib.sha256(json.dumps(identity).encode()).hexdigest()[:12],
        "router_flits": stats.router_flits,
        "engine_span": (returned - result.wall_seconds, returned),
        "cycles": result.cycles,
        "n_nodes": result.n_nodes,
        "packets_injected": stats.packets_injected,
        "packets_delivered": stats.packets_delivered,
        "measured_injected": stats.measured_injected,
        "latency_sum": latency_sum,
        "phy_flits": sum(result.phy_split),
        "problems": problems,
    }


def summarize_points(points: list[dict]) -> dict:
    """Fold per-point records into the report's workload-level numbers.

    Call after ``HOST.stop()``: ``engine_s`` is in reference-host seconds.
    """
    joined = "".join(p["fingerprint"] for p in points)
    delivered = sum(p["packets_delivered"] for p in points)
    measured = sum(p["measured_injected"] for p in points)
    return {
        "points": len(points),
        "failed_points": sum(1 for p in points if p["problems"]),
        "problems": [msg for p in points for msg in p["problems"]],
        "fingerprint": (
            points[0]["fingerprint"]
            if len(points) == 1
            else hashlib.sha256(joined.encode()).hexdigest()[:12]
        ),
        "flit_hops": sum(p["router_flits"] for p in points),
        "engine_s": sum(HOST.reference_seconds(*p["engine_span"]) for p in points),
        "cycles": sum(p["cycles"] for p in points),
        "router_cycles": sum(p["cycles"] * p["n_nodes"] for p in points),
        "packets_injected": sum(p["packets_injected"] for p in points),
        "packets_delivered": delivered,
        "delivered_fraction": delivered / measured if measured else math.nan,
        "avg_latency_cycles": (
            sum(p["latency_sum"] for p in points) / delivered if delivered else math.nan
        ),
        "phy_flits": sum(p["phy_flits"] for p in points),
    }


# -- driving the workloads -----------------------------------------------------
def import_entry(workload: spec.Workload, spans: Spans) -> None:
    with spans.span("cli.import"):
        if workload.kind == "cli":
            import repro.cli  # noqa: F401
        else:
            import repro  # noqa: F401


def prepare_point(workload: spec.Workload, seed: int, spans: Spans):
    """System description and (for traces) traffic of a single-point workload."""
    from repro.sim.config import SimConfig
    from repro.topology.grid import ChipletGrid
    from repro.topology.system import build_system

    grid = ChipletGrid(*spec.GRID)
    config = SimConfig()
    if workload.kind == "synthetic":
        config = config.replace(sim_cycles=workload.cycles, warmup_cycles=workload.warmup)
    with spans.span("topology.build_system"):
        system = build_system(workload.family, grid, config)
    trace = None
    if workload.kind == "trace":
        from repro.traffic.hpc import embed_ranks, generate_moc_trace

        with spans.span("traffic.generate"):
            trace = embed_ranks(
                generate_moc_trace(
                    1024,
                    workload.iterations,
                    sweep_bytes=workload.sweep_bytes,
                    partners_per_sweep=workload.partners_per_sweep,
                    seed=seed,
                ),
                grid,
                core_only=True,
            ).scaled(workload.time_scale)
    return system, trace


def run_point(workload: spec.Workload, seed: int, spans: Spans, telemetry=None):
    """One single-point workload through the public one-call helpers.

    Returns ``(RunResult, trace)``; ``trace`` is None for synthetic traffic.
    """
    from repro.sim import experiment

    system, trace = prepare_point(workload, seed, spans)
    with spans.span("sim.run"):
        if trace is None:
            result = experiment.run_synthetic(
                system, "uniform", workload.rate, seed=seed, telemetry=telemetry
            )
        else:
            # strict: returning at all means the network drained
            # (buffered_flits() == in_flight_flits() == 0).
            result = experiment.run_trace(system, trace, strict=True, telemetry=telemetry)
    return result, trace


def run_figure(workload: spec.Workload, args, spans: Spans) -> dict:
    """``repro run fig11 --scale tiny --csv`` in this process, stdout to a file.

    Every ``RunResult`` the figure produces is read as it is returned: the
    sweep looks ``run_synthetic`` up in ``repro.sim.experiment`` at call
    time, so a pass-through there sees the public return value without
    touching the run (still zero bus subscribers).
    """
    import repro.cli
    from repro.sim import experiment

    points: list[dict] = []
    if args.smoke:
        from repro.exps import common

        common.HORIZONS["tiny"] = spec.SMOKE_FIG11_HORIZON
    spans.wrap(
        experiment, "run_synthetic", "sim.run",
        after=lambda result: points.append(point_record(result)),
    )
    workdir = Path(args.workdir)
    csv_path = workdir / f"fig11_{os.getpid()}.csv"
    argv = ["run", "fig11", "--scale", "tiny", "--csv", "--runs-dir", str(workdir / "runs")]
    with csv_path.open("w") as out, contextlib.redirect_stdout(out), spans.span("cli.main"):
        exit_code = repro.cli.main(argv)
    csv_text = csv_path.read_text().strip()
    csv_path.unlink()

    ended = HOST.stop()  # results written: the measured part ends here
    summary = summarize_points(points)
    summary["ended"] = ended
    summary["csv_sha256"] = hashlib.sha256(csv_text.encode()).hexdigest()
    rows = csv_text.splitlines()[1:]
    if exit_code != 0:
        summary["problems"].append(f"repro run fig11 exited {exit_code}")
        summary["failed_points"] = workload.points
    elif not args.smoke:  # the shortened smoke horizon has its own series
        expected = spec.FIG11_CSV.read_text().strip().splitlines()[1:]
        differing = sum(a != b for a, b in zip(rows, expected)) + abs(len(rows) - len(expected))
        if differing:
            summary["problems"].append(
                f"CSV differs from {spec.FIG11_CSV.name} in {differing} of {len(expected)} rows"
            )
            summary["failed_points"] = max(summary["failed_points"], differing)
    return summary


def check_point(workload: spec.Workload, summary: dict) -> dict:
    """Single-point self-checks on top of the per-point ones."""
    if workload.kind == "trace" and summary["delivered_fraction"] != 1.0:
        summary["problems"].append(
            f"trace replay delivered {summary['delivered_fraction']} of its packets"
        )
    summary["failed_points"] = 1 if summary["problems"] else 0
    return summary


# -- modes -----------------------------------------------------------------------
def mode_warm(workload, args, spans) -> dict:
    import repro  # noqa: F401
    import repro.cli  # noqa: F401
    import repro.exps  # noqa: F401

    return {}


def mode_setup(workload, args, spans) -> dict:
    import_entry(workload, spans)
    if workload.kind != "cli":
        # What run_synthetic / run_trace do before Engine.run: the same
        # public calls, stopped short of the first tick.
        from repro.sim.build import build_network
        from repro.sim.stats import Stats

        system, trace = prepare_point(workload, args.seed, spans)
        build_network(system, Stats())
        if trace is None:
            from repro.traffic.injection import SyntheticWorkload
            from repro.traffic.patterns import make_pattern

            n = system.grid.n_nodes
            SyntheticWorkload(
                make_pattern("uniform", n), n, workload.rate,
                system.config.packet_length, until=workload.cycles, seed=args.seed,
            )
    return {"setup_s": HOST.reference_seconds(0.0, HOST.stop())}


def mode_timed(workload, args, spans) -> dict:
    import_entry(workload, spans)
    if workload.kind == "cli":
        report = run_figure(workload, args, spans)
        # Not separable from outside in a timed rep: the import is the set-up.
        report["setup_s"] = spans.total("cli.import")
    else:
        result, _trace = run_point(workload, args.seed, spans)
        point = point_record(result)
        report = {"ended": HOST.stop()}
        report.update(check_point(workload, summarize_points([point])))
        report["setup_s"] = HOST.reference_seconds(0.0, point["engine_span"][0])
    return report


class Census:
    """Exact event counts of one run, plus the cycles that moved no flit."""

    def __init__(self, network) -> None:
        from repro.telemetry.bench import EventCounters

        self.network = network
        self.counts = EventCounters(network).counts
        self.idle_cycles = 0
        self._sent = 0
        network.telemetry.subscribe("cycle_end", self._on_cycle_end)

    def _on_cycle_end(self, _network, _now) -> None:
        sent = self.counts["flit_send"]
        if sent == self._sent:
            self.idle_cycles += 1
        self._sent = sent


class NetworkTap:
    """Sees every network ``build_network`` returns; counts events on one if armed."""

    def __init__(self) -> None:
        self.routers = self.links = 0  # of the last network built
        self.armed = False
        self.census: Census | None = None

    def __call__(self, network) -> None:
        self.routers, self.links = len(network.routers), len(network.links)
        if self.armed:
            self.census = Census(network)
            self.armed = False


def mode_traced(workload, args, spans) -> dict:
    import_entry(workload, spans)
    from repro.sim import build, experiment

    tap = NetworkTap()
    spans.wrap(experiment, "build_network", "sim.build.build_network", after=tap)
    spans.wrap(build, "make_routing", "routing.make_routing")
    spans.wrap(experiment, "make_pattern", "traffic.generate")
    if workload.kind == "cli":
        report, layers, measured = traced_figure(workload, args, spans)
    else:
        report, layers, measured = traced_point(workload, args, spans, tap)

    engine_ns = report["engine_s"] * 1e9
    layers.update({
        "cli.import_s": spans.total("cli.import"),
        "topology.build_system_s": spans.total("topology.build_system", measured),
        "sim.build.build_network_s": spans.self_time("sim.build.build_network", measured),
        "sim.build.calls": len(spans.select("sim.build.build_network", measured)),
        "sim.build.routers": tap.routers,
        "sim.build.links": tap.links,
        "routing.make_routing_s": spans.total("routing.make_routing", measured),
        "traffic.generate_s": spans.total("traffic.generate", measured),
        "noc.router.flit_hops_per_router_cycle": report["flit_hops"] / report["router_cycles"],
        "sim.engine.ns_per_flit_hop": engine_ns / report["flit_hops"],
        "sim.engine.ns_per_router_cycle": engine_ns / report["router_cycles"],
        "sim.engine.cycles_per_s": report["cycles"] / report["engine_s"],
        "sim.stats.avg_latency_cycles": report["avg_latency_cycles"],
        "sim.stats.delivered_fraction": report["delivered_fraction"],
        "sim.stats.packets_delivered": report["packets_delivered"],
        "sim.stats.drain_cycle": report["cycles"],
    })
    report["layers"] = layers
    return report


def traced_figure(workload, args, spans):
    """Span recorders around the public callables ``repro run fig11`` goes through."""
    from repro.exps.common import ExperimentResult
    from repro.telemetry.runstore import RunStore
    from repro.topology import system as topology

    spans.wrap(topology, "build_system", "topology.build_system")
    spans.wrap(ExperimentResult, "to_csv", "exps.csv")
    spans.wrap(RunStore, "append", "telemetry.runstore.append")
    with spans.span("pass.figure"):
        report = run_figure(workload, args, spans)
    layers = {
        "exps.points": len(spans.select("sim.run")),
        "exps.csv_s": spans.total("exps.csv"),
        "telemetry.runstore.append_s": spans.total("telemetry.runstore.append"),
        # The engine-phase split and the event census stay with the three
        # single-point workloads; these four are public RunResult fields.
        "core.phy.dispatches": report["phy_flits"],
        "noc.router.flit_hops": report["flit_hops"],
        "traffic.packets_injected": report["packets_injected"],
        "sim.engine.cycles": report["cycles"],
    }
    return report, layers, "pass.figure"


def traced_point(workload, args, spans, tap: NetworkTap):
    """One census run and one host-ledger run of a single-point workload."""
    from repro.telemetry import TelemetryConfig

    tap.armed = True  # the census subscribes to the network run_* builds next
    with spans.span("pass.census"):
        counted, trace = run_point(
            workload, args.seed, spans,
            telemetry=TelemetryConfig(digest=True, epoch_metrics=False),
        )
    counted_point = point_record(counted)
    with spans.span("pass.ledger"):
        ledgered, _ = run_point(
            workload, args.seed, spans,
            telemetry=TelemetryConfig(host_time=True, host_stride=4, epoch_metrics=False),
        )
    ledgered_point = point_record(ledgered)
    report = {"ended": HOST.stop()}

    census = tap.census
    report.update(check_point(workload, summarize_points([counted_point])))
    report["digest_chain"] = counted.digest["final"]
    left = census.network.buffered_flits() + census.network.in_flight_flits()
    if workload.kind == "trace" and left:
        report["problems"].append(f"trace replay left {left} flits in the network")
    if ledgered_point["fingerprint"] != report["fingerprint"]:
        report["problems"].append("census and ledger runs disagree: an observer is not passive")
    host = ledgered.host_phases
    if abs(host["conservation"] - 1.0) > 0.05:
        report["problems"].append(
            f"host ledger conservation {host['conservation']:.3f} is outside 1 +/- 0.05"
        )
    report["points"] = 2
    report["failed_points"] = 1 if report["problems"] else 0
    # Host speed comes from the ledger run (stride 4: the census run pays
    # one callback per event and is only good for counts).
    report["engine_s"] = HOST.reference_seconds(*ledgered_point["engine_span"])

    counts = census.counts
    # wall ns per timed cycle per phase -> reference-host ns per flit-hop
    per_hop = ledgered.cycles / ledgered.stats.router_flits
    at_reference = report["engine_s"] / ledgered.wall_seconds
    phase = {name: ns * per_hop * at_reference for name, ns in host["ns_per_cycle"].items()}
    layers = {
        "traffic.records": len(trace) if trace is not None else 0,
        "traffic.packets_injected": counts["packet_inject"],
        "traffic.inject_ns_per_flit_hop": phase["inject"],
        "noc.router.flit_hops": counts["flit_send"],
        "noc.router.vc_allocs": counts["vc_alloc"],
        "noc.router.route_computes": counts["route_compute"],
        "noc.router.backlog_packets": counts["packet_inject"] - counts["packet_eject"],
        "noc.router.rc_va_ns_per_flit_hop": phase["rc_va"],
        "noc.router.sa_st_ns_per_flit_hop": phase["sa_st"],
        "noc.link.accepts": counts["link_accept"],
        "noc.link.credit_returns": counts["credit_return"],
        "noc.link.step_ns_per_flit_hop": phase["link"],
        "core.phy.dispatches": counts["phy_dispatch"],
        "core.phy.rx_ns_per_flit_hop": phase["phy_rx"],
        "core.phy.tx_ns_per_flit_hop": phase["phy_tx"],
        "core.rob.inserts": counts["rob_insert"],
        "core.rob.releases": counts["rob_release"],
        "sim.engine.cycles": counts["cycle_end"],
        "sim.engine.idle_cycles": census.idle_cycles,
        "sim.engine.stats_ns_per_flit_hop": phase["stats"],
        "sim.engine.ledger_conservation": host["conservation"],
    }
    return report, layers, "pass.ledger"


def mode_extras(workload, args, spans) -> dict:
    """Observer overheads (ROADMAP 1c) and the tiny-scale accuracy line."""
    import repro  # noqa: F401
    from repro.exps import table3
    from repro.exps.report import PAPER_TABLE3
    from repro.telemetry import TelemetryConfig

    cycles, warmup = spec.OVERHEAD_CYCLES
    if args.smoke:
        cycles, warmup = cycles // spec.SMOKE_DIVISOR, warmup // spec.SMOKE_DIVISOR
    block = dataclasses.replace(spec.WORKLOADS["phy_steady_256"], cycles=cycles, warmup=warmup)
    observers = {
        "digest": TelemetryConfig(digest=True, epoch_metrics=False),
        "epoch_metrics": TelemetryConfig(epoch_metrics=True),
        "latency_ledger": TelemetryConfig(latency_breakdown=True, epoch_metrics=False),
        "host_ledger": TelemetryConfig(host_time=True, host_stride=4, epoch_metrics=False),
        "recorder_full": TelemetryConfig(
            flight_recorder=True, recorder_events="full", epoch_metrics=False,
            bundle_dir=str(Path(args.workdir) / "forensics"),
        ),
    }
    plain, _ = run_point(block, args.seed, spans)
    plain_point = point_record(plain)
    observed_points = {}
    for name, telemetry in observers.items():
        observed, _ = run_point(block, args.seed, spans, telemetry=telemetry)
        observed_points[name] = point_record(observed)
    HOST.stop()
    with spans.span("exps.table3"):
        table = table3.run("tiny")

    layers = {}
    problems = []
    plain_s = HOST.reference_seconds(*plain_point["engine_span"])
    for name, point in observed_points.items():
        # ratio - 1; base: the plain run's engine seconds
        layers[f"telemetry.overhead.{name}"] = (
            HOST.reference_seconds(*point["engine_span"]) / plain_s - 1.0
        )
        if point["fingerprint"] != plain_point["fingerprint"]:
            problems.append(f"observer {name} changed the simulated statistics")
    errors = [
        abs(measured - paper) * 100.0
        for row in table.rows
        for measured, paper in zip(row[1:], PAPER_TABLE3[row[0]])
        if paper is not None and math.isfinite(measured)
    ]
    layers["exps.table3_abs_err_pp"] = sum(errors) / len(errors)
    return {
        "layers": layers,
        "points": len(observers) + 1,
        "failed_points": len(problems),
        "problems": problems,
    }


MODES = {
    "warm": mode_warm,
    "setup": mode_setup,
    "timed": mode_timed,
    "traced": mode_traced,
    "extras": mode_extras,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", required=True, help="scratch directory inside the checkout")
    parser.add_argument("--out", required=True, help="where to write this pass's JSON report")
    args = parser.parse_args(argv)

    workload = spec.WORKLOADS[args.workload]
    if args.smoke:
        workload = spec.smoke(workload)
    spans = Spans()
    if args.mode != "warm":
        HOST.start()
    report = MODES[args.mode](workload, args, spans)
    if "ended" in report:  # T0 -> results written
        ended = report.pop("ended")
        report["wall_s"] = HOST.reference_seconds(0.0, ended)
        report["raw_wall_s"] = ended
    report["cpu_s"] = sum(os.times()[:4])  # user + sys, children included
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["spans"] = spans.records
    Path(args.out).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
