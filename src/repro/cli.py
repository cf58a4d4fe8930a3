"""Command-line interface.

Run paper experiments and ad-hoc simulations from the shell::

    repro list                         # available experiments
    repro run fig11 --scale tiny       # regenerate one figure's data
    repro run all --scale small        # regenerate everything
    repro simulate --family hetero_phy_torus --chiplets 4x4 --nodes 4x4 \
                   --pattern uniform --rate 0.1 --seed 7
    repro simulate --metrics out/ --trace run.json --epoch 500
    repro simulate --health --live --progress --epoch 500   # one sampling period
    repro prove --all --json prove.json   # static verification + certification, both modes
    repro prove --all --mode vct --no-fault-masks --no-record   # the quick path
    repro prove --family serial_torus --mode wormhole --max-states 8000
    repro bench                        # the repo benchmark, ~4 min -> BENCH_<n>.json
    repro regress BENCH_0.json BENCH_1.json --strict   # is it slower: A/B verdicts
    repro regress --strict             # changepoint sentinel over ./BENCH_*.json
    repro simulate --digest            # record the run's event-digest chain
    repro simulate --chiplets 2x2 --rate 0.15 --profile profile-out   # phase table + flame graph
    repro golden check                 # re-simulate every pin from its own meta
    repro golden record                # re-pin (model changes only) -> PINS.json
    repro diff pin:fig11_hetero_phy "sim:family=hetero_phy_torus,nodes=4x4,rate=0.15"
    repro diff "sim:family=hetero_phy_torus,chiplets=2x2,nodes=4x4,rate=0.15" \
               "sim:family=hetero_phy_torus,chiplets=2x2,nodes=4x4,rate=0.15,perturb=900"
    repro simulate --live              # stream a live feed while running
    repro watch --port 8631            # live fleet dashboard over runs/
    repro watch --once --out page.html # the same page, static
    repro postmortem forensics/BUNDLE_deadlock_557.json --html report.html

Output is the plain-text table of the experiment (add ``--csv`` for CSV).

``repro simulate`` names its point as one run description, the ``meta`` of
its ``--digest`` record, and runs it the way ``repro diff`` and ``repro
golden`` re-run one (``repro.telemetry.diff.run_described``).

``repro prove`` is the one static-verification command (see
docs/analysis.md).  It runs five passes, each defect reported once: lint
(the description, link contracts, routing candidates), deadlock (CDG),
exhaustive reachability and livelock, the same under every single-link
fault mask (``--no-fault-masks`` skips it), and bounded model checking of
a reported CDG cycle.  It prints one findings report per
(system, mode) pair and writes one schema-versioned
``CERT_<system>_<mode>.json`` into the run registry's ``certificates/``
subdirectory; ``--json PATH`` additionally writes every certificate into
one machine-readable document.  A CDG cycle certifies only when the model
checker refutes it exhaustively; a search that hits ``--max-states`` first
leaves the cycle's error standing.  Exit codes: 0 — every system was
certified; 1 — at least one system was refused certification or could not
be built; 2 — usage error.

When a simulation wedges (deadlock, drain timeout, invariant violation),
``repro simulate`` writes a postmortem bundle into ``forensics/`` and
exits with status 3, printing the bundle path; ``repro postmortem``
renders a bundle as a report or self-contained HTML page (see
docs/observability.md).  ``--no-forensics`` disables the capture.

Every ``repro run`` / ``repro simulate`` appends one structured record to
the append-only run registry (``runs/runs.jsonl`` by default; ``--runs-dir``
to relocate, ``--no-record`` to skip) so results stay attributable to a
config hash, git revision and seed — see docs/perf.md.

``repro bench`` runs the one measuring harness (``benchmarks/perf/run.py
--all --trace 1``) and stamps its document as the next ``BENCH_<n>.json``.
``repro regress`` exits 0 unless ``--strict`` is given *and* at least one
selected metric regressed; without bench files it prints a clean message
and exits 0 even under ``--strict``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from repro.topology.system import FAMILIES


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    try:
        x, y = text.lower().split("x")
        return int(x), int(y)
    except ValueError:
        raise SystemExit(f"invalid {what} {text!r}; expected e.g. 4x4") from None


def _positive_int(text: str) -> int:
    """argparse type of a count, period or stride: an integer >= 1."""
    value = int(text)  # a ValueError becomes argparse's "invalid ... value"
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    """argparse type of a relative floor: a finite number >= 0."""
    value = float(text)
    if not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _positive_float(text: str) -> float:
    """argparse type of an interval in seconds: a finite number > 0."""
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _cmd_list(_args) -> int:
    from repro.exps import EXPERIMENTS

    for name in EXPERIMENTS:
        print(name)
    return 0


def _cmd_run(args) -> int:
    from repro.exps import EXPERIMENTS
    from repro.telemetry.runstore import (
        RunRecord,
        RunStore,
        config_digest,
        git_revision,
        new_run_id,
        utc_now_iso,
    )

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise SystemExit(f"unknown experiment(s): {', '.join(unknown)}")
    store = None if args.no_record else RunStore(args.runs_dir)
    git_rev = git_revision() if store else "unknown"
    for name in names:
        start = time.perf_counter()
        try:
            result = EXPERIMENTS[name](args.scale)
        except (RuntimeError, AssertionError) as exc:
            return _report_failure(name, exc)
        elapsed = time.perf_counter() - start
        if args.csv:
            print(result.to_csv())
        else:
            print(result)
            print(f"[{name} completed in {elapsed:.1f}s at scale={args.scale}]")
        if store is not None:
            store.append(
                RunRecord(
                    run_id=new_run_id(),
                    created=utc_now_iso(),
                    kind="experiment",
                    label=name,
                    scale=args.scale,
                    config_hash=config_digest(
                        {"experiment": name, "scale": args.scale}
                    ),
                    git_rev=git_rev,
                    wall_seconds=elapsed,
                    extras={"rows": float(len(result.rows))},
                )
            )
        print()
    return 0


def _report_failure(label: str, exc: BaseException) -> int:
    """Report a wedged run on stderr and return the failure exit status.

    Deadlocks, drain timeouts and invariant violations all land here; when
    the engine captured a postmortem bundle its path rides on the
    exception so the next command is obvious.
    """
    kind = type(exc).__name__
    print(f"{label}: {kind}: {exc}", file=sys.stderr)
    bundle = getattr(exc, "bundle_path", None)
    if bundle:
        print(f"postmortem bundle: {bundle}", file=sys.stderr)
        print(f"inspect it with: repro postmortem {bundle}", file=sys.stderr)
    return 3


def _require_results_dir(results_dir: Path) -> Path:
    if not results_dir.is_dir() or not any(results_dir.glob("*.csv")):
        raise SystemExit(
            f"no benchmark CSVs in {results_dir}/ — regenerate them with "
            "`pytest benchmarks/ --benchmark-only` (or pass --results-dir)"
        )
    return results_dir


def _cmd_report(args) -> int:
    from repro.exps.report import summarize

    results_dir = _require_results_dir(Path(args.results_dir))
    print(summarize(results_dir, args.scale))
    return 0


def _usage_error(command: str, message: str):
    """Exit 2 with one line, like an argparse error, instead of a traceback."""
    print(f"repro {command}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _meta_from_args(args) -> dict:
    """The run description (a digest ``meta``) that ``simulate``'s point flags name."""
    from repro.sim.config import SimConfig
    from repro.telemetry.digest import config_block, run_meta

    chiplets, nodes = _parse_pair(args.chiplets, "--chiplets"), _parse_pair(args.nodes, "--nodes")
    return run_meta(
        args.family, chiplets, nodes, pattern=args.pattern, rate=args.rate, seed=args.seed,
        cycles=args.cycles, warmup=args.cycles // 10, policy=args.policy,
        config=config_block(SimConfig().halved()) if args.halved else None,
    )


def _run_described(args, meta: dict, telemetry):
    """Run ``meta``; a point the simulator rejects (grid, family, pattern,
    rate) is a usage error."""
    from repro.telemetry.diff import run_described

    try:
        return run_described(meta, telemetry=telemetry)
    except ValueError as exc:
        _usage_error(args.command, str(exc))


def _cmd_simulate(args) -> int:
    from repro.telemetry import TelemetryConfig

    if (args.stride or args.pstats) and not args.profile:
        _usage_error(args.command, "--stride and --pstats require --profile")
    meta = _meta_from_args(args)
    breakdown_wanted = args.latency_breakdown or args.breakdown_csv
    run_id = None
    if args.live:
        # Allocate the registry run id up front so the live feed and
        # the run record join on one id in the fleet view.
        from repro.telemetry.runstore import new_run_id

        run_id = new_run_id()
    telemetry = TelemetryConfig(
        metrics_dir=args.metrics,
        trace_path=args.trace,
        epoch_length=args.epoch,
        progress=args.progress,
        # A passive observer: the run's numbers are the same without it.
        host_time=bool(args.profile),
        host_stride=args.stride or 1,
        latency_breakdown=bool(breakdown_wanted),
        breakdown_csv=args.breakdown_csv,
        # Only --metrics asks for the sampler itself; the session switches
        # it on for its readers (trace, progress, health, live), so plain
        # runs stay zero-subscriber.
        epoch_metrics=bool(args.metrics),
        forensics=not args.no_forensics,
        bundle_dir=args.forensics_dir,
        flight_recorder=args.flight_recorder,
        recorder_window=args.recorder_window,
        recorder_events=args.recorder_events,
        health=args.health,
        health_stream=sys.stderr if args.health else None,
        live=args.live,
        live_dir=Path(args.runs_dir) / "live",
        run_id=run_id,
        digest=args.digest,
    )
    try:
        result = _run_described(args, meta, telemetry)
    except (RuntimeError, AssertionError) as exc:
        return _report_failure(args.family, exc)
    print(f"system   : {result.system}")
    print(f"workload : {result.workload} ({result.n_nodes} nodes, {args.cycles} cycles)")
    print(f"policy   : {result.policy}")
    print(f"seed     : {args.seed}")
    for key, value in result.stats.summary().items():
        if isinstance(value, int):
            print(f"{key:26s}: {value:d}")
        else:
            print(f"{key:26s}: {value:.3f}")
    par, ser = result.phy_split
    if par or ser:
        print(f"hetero-PHY flit split     : parallel {par}, serial {ser}")
    if args.digest and result.telemetry is not None:
        collector = result.telemetry.digest
        print(
            f"digest   : {collector.final} "
            f"({collector.events_total} events, compare with `repro diff`)"
        )
    if breakdown_wanted and result.telemetry is not None:
        from repro.telemetry.attribution import render_breakdown

        print()
        print(render_breakdown(result.telemetry.ledger.summary()))
    artifacts: dict[str, str] = {}
    if args.metrics:
        artifacts["metrics_dir"] = str(args.metrics)
    if args.trace:
        artifacts["trace"] = str(args.trace)
    if args.breakdown_csv:
        artifacts["breakdown_csv"] = str(args.breakdown_csv)
    if result.telemetry is not None and result.telemetry.live is not None:
        artifacts["live"] = str(result.telemetry.live.path)
    if args.profile:
        try:
            _profile(args, meta, result)
        except (RuntimeError, AssertionError) as exc:
            return _report_failure(args.family, exc)
        artifacts["profile"] = str(args.profile)
    if result.telemetry is not None:
        for path in result.telemetry.written:
            print(f"wrote {path}")
    telemetry_enabled = bool(artifacts) or bool(breakdown_wanted)
    if not args.no_record:
        from repro.telemetry.runstore import RunStore, record_from_result

        record = record_from_result(
            result, kind="simulate", label=args.family, artifacts=artifacts, run_id=run_id
        )
        record_path = RunStore(args.runs_dir).append(record)
        artifacts["record"] = f"{record_path}#{record.run_id}"
    if telemetry_enabled:
        # One-line manifest so nobody has to re-read the flags to find
        # where this run's outputs went.  Plain runs stay manifest-free so
        # same-seed invocations print byte-identical output.
        manifest = " ".join(f"{key}={value}" for key, value in artifacts.items())
        print(f"artifacts : {manifest}")
    return 0


def _profile(args, meta: dict, result) -> None:
    """``simulate --profile``: the run's host-time table, then the same run
    again under cProfile (whose tracing would inflate the table's wall
    times), folded into collapsed stacks."""
    import pstats

    from repro.telemetry import TelemetryConfig
    from repro.telemetry.hostprof import (
        HostprofError,
        collapsed_stacks,
        fold_profile,
        render_host_table,
    )

    ledger = result.telemetry.hostprof
    try:
        ledger.check_conservation()
    except HostprofError as exc:
        print(f"warning: {exc}", file=sys.stderr)
    summary = ledger.summary()
    print()
    print(render_host_table(summary))
    out_dir = Path(args.profile)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json_doc(str(out_dir / "profile.host.json"), summary)
    profile = _run_described(
        args, meta, TelemetryConfig(profile=True, epoch_metrics=False)
    ).telemetry.profile
    folded = out_dir / "profile.folded.txt"
    folded.write_text(collapsed_stacks(fold_profile(profile)), encoding="utf-8")
    print(f"wrote {folded}  (collapsed stacks: flamegraph.pl, inferno, speedscope)")
    if args.pstats:
        print()
        pstats.Stats(profile).sort_stats("cumulative").print_stats(25)


def _cmd_postmortem(args) -> int:
    from repro.telemetry.dashboard import render_bundle_html, render_bundle_text
    from repro.telemetry.forensics import load_bundle

    try:
        bundle = load_bundle(args.bundle)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot load bundle {args.bundle}: {exc}") from None
    print(render_bundle_text(bundle, tail=args.tail))
    if args.html:
        _write_page(args.html, render_bundle_html(bundle))
    return 0


def _cmd_bench(args) -> int:
    from repro.telemetry.bench import HARNESS, next_bench_path
    from repro.telemetry.runstore import git_revision, utc_now_iso

    if not HARNESS.is_file():
        raise SystemExit(
            f"repro bench runs the repo benchmark, and {HARNESS} is missing "
            "(run from a checkout that has benchmarks/perf/)"
        )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = next_bench_path(out_dir)
    command = [
        sys.executable, str(HARNESS), "--all", "--trace", "1",
        "--seed", str(args.seed), "--out", str(path),
    ]
    # The harness prints every metric as it goes; its output is this command's.
    done = subprocess.run(command)
    if path.is_file():
        doc = {"git_rev": git_revision(), "created": utc_now_iso(), **json.loads(path.read_text())}
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    if done.returncode:
        raise SystemExit(
            f"{' '.join(command)} exited {done.returncode}: a failed point or a "
            "crashed pass, named in its output above"
        )
    return 0


def _cmd_regress(args) -> int:
    from repro.telemetry.history import load_history
    from repro.telemetry.sentinel import analyze_history, render_sentinel

    bench_dirs = args.bench_dir or ["."]
    try:  # a file named on the command line must be a readable bench document
        history = load_history(bench_dirs, paths=args.paths, strict=bool(args.paths))
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    if args.rel_floor is not None:
        for series in history.series.values():
            if series.rel_floor:  # a timed end-to-end row; exact rows carry 0.0
                series.rel_floor = args.rel_floor
    report = analyze_history(history, metric_prefixes=args.metric or [])
    _warn_skipped(history.skipped, "bench file", f" under {', '.join(bench_dirs)}")
    # No bench files is a fresh checkout, not an error: exit 0 even --strict.
    print(render_sentinel(report))
    if args.json:
        _write_json_doc(args.json, report.to_json())
    return 1 if args.strict and report.regressions() else 0


def _cmd_diff(args) -> int:
    from repro.telemetry.diff import DiffError, diff_runs, load_diffable
    from repro.telemetry.digest import DigestError

    try:
        a = load_diffable(args.a)
        b = load_diffable(args.b)
        report = diff_runs(
            a, b, localize=not args.no_localize, context=args.context
        )
    except (DiffError, DigestError, OSError, RuntimeError) as exc:
        raise SystemExit(str(exc)) from None
    print(report.render())
    return report.exit_code


def _cmd_golden(args) -> int:
    from repro.telemetry import pins

    try:
        store = pins.load(args.file)
        names = args.case or list(store)
        unknown = [name for name in names if name not in store]
        if unknown:
            raise ValueError(
                f"unknown case(s): {', '.join(unknown)}; known: {', '.join(store)}"
            )
        if args.action == "record":
            path = pins.record(store, args.file, cases=names)
            print(f"recorded {len(names)} pin(s) in {path}")
            return 0
    except (ValueError, OSError, RuntimeError) as exc:  # e.g. a pin with no re-simulation meta
        raise SystemExit(str(exc)) from None
    failed = 0
    for name in names:
        try:
            observed = pins.reobserve(store[name])
        except (ValueError, OSError, RuntimeError) as exc:  # one bad pin fails alone
            ok, message = False, f"{name}: FAIL {exc}"
        else:
            ok, message = pins.check(name, store[name], observed)
        print(message)
        failed += not ok
    if failed:
        print(f"{failed}/{len(names)} pin(s) FAILED")
    return 1 if failed else 0


def _cmd_watch(args) -> int:
    from repro.telemetry.server import WatchService, serve

    if args.out and not args.once:
        _usage_error(args.command, "--out requires --once")
    service = WatchService(
        args.runs_dir, poll_seconds=args.poll, top_runs=args.top, results_dir=args.results_dir
    )
    if not args.once:
        serve(service, host=args.host, port=args.port)
        return 0
    snap = service.snapshot()
    if args.out:
        from repro.telemetry.dashboard import render_fleet

        _write_page(args.out, render_fleet(snap))
    else:
        print(json.dumps(snap.to_dict(), indent=1, sort_keys=True))
    _warn_skipped(snap.skipped, "registry line", f" in {snap.registry}")
    return 0


def _warn_skipped(count: int, noun: str, where: str) -> None:
    """The one "skipped N unreadable ..." warning of the registry readers."""
    if count:
        plural = "" if count == 1 else "s"
        print(
            f"warning: skipped {count} unreadable {noun}{plural}{where}",
            file=sys.stderr,
        )


def _write_page(path: str, page: str) -> None:
    """Write one HTML page, creating its directory."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(page, encoding="utf-8")
    print(f"wrote {out}")


def _write_json_doc(path: str, doc: dict) -> None:
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {path}")


def _cmd_prove(args) -> int:
    """Certify the chosen families x modes; returns the process exit status.

    ``--no-record`` skips both the certificate files and the run-registry
    append; ``--json`` still captures every certificate either way.
    """
    from repro.analysis import prove_family, write_certificate
    from repro.telemetry.runstore import (
        RunRecord,
        RunStore,
        git_revision,
        new_run_id,
        utc_now_iso,
    )

    families = list(FAMILIES) if args.all else [args.family]
    modes = ("vct", "wormhole") if args.mode == "both" else (args.mode,)
    chiplets = _parse_pair(args.chiplets, "--chiplets")
    nodes = _parse_pair(args.nodes, "--nodes")
    store = None if args.no_record else RunStore(args.runs_dir)
    git_rev = git_revision() if store else "unknown"
    payload: list[dict] = []
    failed = 0
    for family in families:
        for mode in modes:
            start = time.perf_counter()
            try:
                result = prove_family(
                    family,
                    chiplets=chiplets,
                    nodes=nodes,
                    mode=mode,
                    fault_masks=not args.no_fault_masks,
                    max_states=args.max_states,
                    max_packets=args.max_packets,
                )
            except ValueError as exc:
                print(
                    f"== {family} [mode={mode}] ==\n"
                    f"  ERROR   BUILD-FAILED {exc}\n  FAIL: could not build"
                )
                payload.append(
                    {
                        "family": family,
                        "mode": mode,
                        "certified": False,
                        "error": str(exc),
                    }
                )
                failed += 1
                continue
            elapsed = time.perf_counter() - start
            cert = result.certificate
            print(result.report.render(verbose=args.verbose))
            if store is not None:
                cert_path = write_certificate(cert, args.runs_dir)
                print(f"  certificate: {cert_path}")
                store.append(
                    RunRecord(
                        run_id=new_run_id(),
                        created=utc_now_iso(),
                        kind="prove",
                        label=f"{family}:{mode}",
                        config_hash=cert.config_hash,
                        git_rev=git_rev,
                        n_nodes=chiplets[0] * chiplets[1] * nodes[0] * nodes[1],
                        wall_seconds=elapsed,
                        artifacts={"certificate": str(cert_path)},
                        extras={
                            "certified": float(cert.certified),
                            "fault_masks": float(cert.fault_masks.get("swept", 0)),
                            "errors": float(len(result.report.errors)),
                            "warnings": float(len(result.report.warnings)),
                        },
                    )
                )
            verdict = "CERTIFIED" if cert.certified else "NOT CERTIFIED"
            print(f"  {verdict} in {elapsed:.1f}s")
            print()
            payload.append(cert.to_dict())
            if not cert.certified:
                failed += 1
    if args.json:
        _write_json_doc(
            args.json, {"certified": failed == 0, "certificates": payload}
        )
    if failed:
        print(f"{failed}/{len(families) * len(modes)} certification(s) FAILED")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Heterogeneous die-to-die interfaces (MICRO 2023) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        func=_cmd_list
    )

    def add_record_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--runs-dir",
            default="runs",
            help="run-registry directory (default: runs/)",
        )
        p.add_argument(
            "--no-record",
            action="store_true",
            help="do not append a record to the run registry",
        )

    run_p = sub.add_parser("run", help="run a paper experiment (or 'all')")
    run_p.add_argument("experiment")
    run_p.add_argument("--scale", choices=("tiny", "small", "paper"), default="small")
    run_p.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    add_record_args(run_p)
    run_p.set_defaults(func=_cmd_run)

    report_p = sub.add_parser(
        "report", help="summarize benchmark CSVs against the paper's numbers"
    )
    report_p.add_argument("--results-dir", default="benchmarks/results")
    report_p.add_argument("--scale", choices=("tiny", "small", "paper"), default="small")
    report_p.set_defaults(func=_cmd_report)

    # Loaded with the simulator's modules; a module-level import ahead of
    # them reorders the imports and raises their peak memory.
    from repro.sim.build import POLICIES

    sim_p = sub.add_parser("simulate", help="run one ad-hoc simulation")
    # The point flags: _meta_from_args turns them into one run description.
    sim_p.add_argument("--family", choices=FAMILIES, default="hetero_phy_torus")
    sim_p.add_argument("--chiplets", default="4x4", help="chiplet grid, e.g. 4x4")
    sim_p.add_argument("--nodes", default="4x4", help="per-chiplet mesh, e.g. 4x4")
    sim_p.add_argument("--pattern", default="uniform")
    sim_p.add_argument("--rate", type=float, default=0.1, help="flits/cycle/node")
    sim_p.add_argument("--cycles", type=_positive_int, default=10_000)
    sim_p.add_argument(
        "--policy",
        choices=[name for name, row in POLICIES.items() if not row.exclusive],
    )
    sim_p.add_argument(
        "--halved", action="store_true", help="pin-constrained halved interfaces"
    )
    sim_p.add_argument(
        "--seed", type=int, default=1, help="workload RNG seed (default: 1)"
    )
    sim_p.add_argument(
        "--metrics",
        metavar="DIR",
        help="write per-epoch metric CSVs + metrics.json into DIR",
    )
    sim_p.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Chrome trace-event JSON (load in Perfetto / about:tracing)",
    )
    sim_p.add_argument(
        "--epoch",
        type=_positive_int,
        default=1_000,
        help="the one sampling period in cycles: --metrics time series, "
        "--trace counter tracks, --health checks, --live epoch events and "
        "the --progress line (default: 1000)",
    )
    sim_p.add_argument(
        "--progress",
        action="store_true",
        help="show a progress line on stderr at each --epoch boundary",
    )
    sim_p.add_argument(
        "--latency-breakdown",
        action="store_true",
        help="attribute every measured packet's latency to pipeline stages "
        "and print the per-stage + bottleneck tables",
    )
    sim_p.add_argument(
        "--breakdown-csv",
        metavar="PATH",
        help="write the per-stage breakdown CSV here (implies "
        "--latency-breakdown)",
    )
    sim_p.add_argument(
        "--no-forensics",
        action="store_true",
        help="do not capture a postmortem bundle when the run wedges "
        "(deadlock / drain timeout / invariant violation)",
    )
    sim_p.add_argument(
        "--forensics-dir",
        metavar="DIR",
        default="forensics",
        help="where postmortem bundles go (default: forensics/)",
    )
    sim_p.add_argument(
        "--flight-recorder",
        action="store_true",
        help="keep a bounded ring buffer of recent telemetry events; its "
        "tail lands in the postmortem bundle",
    )
    sim_p.add_argument(
        "--recorder-window",
        type=_positive_int,
        default=4096,
        metavar="CYCLES",
        help="flight-recorder retention window in cycles (default: 4096)",
    )
    sim_p.add_argument(
        "--recorder-events",
        choices=("packet", "route", "full"),
        default="packet",
        help="flight-recorder event preset: 'packet' records the packet "
        "lifecycle + credit stalls (low overhead), 'route' adds per-hop "
        "routing/VC-allocation events, 'full' records every event "
        "(default: packet)",
    )
    sim_p.add_argument(
        "--health",
        action="store_true",
        help="check throughput / stall rate / occupancy / oldest-packet "
        "age at each --epoch boundary and flag anomalies live on stderr",
    )
    sim_p.add_argument(
        "--live",
        action="store_true",
        help="stream run lifecycle / epoch / anomaly events to "
        "<runs-dir>/live/<run_id>.jsonl while the run is in flight — "
        "watch it with `repro watch`",
    )
    sim_p.add_argument(
        "--digest",
        action="store_true",
        help="fold every telemetry event into a deterministic chained "
        "hash; the digest block lands on the run record and two runs "
        "can be compared with `repro diff`",
    )
    sim_p.add_argument(
        "--profile",
        metavar="DIR",
        help="print the run's host time per engine phase (DIR/profile.host.json) "
        "and profile it again into DIR/profile.folded.txt (collapsed stacks)",
    )
    sim_p.add_argument(
        "--stride", type=_positive_int, metavar="N",
        help="with --profile: time every Nth cycle and extrapolate (default: 1)",
    )
    sim_p.add_argument(
        "--pstats", action="store_true",
        help="with --profile: also print the 25 hottest functions (cumulative time)",
    )
    add_record_args(sim_p)
    sim_p.set_defaults(func=_cmd_simulate)

    pm_p = sub.add_parser(
        "postmortem",
        help="render a forensics bundle captured from a wedged run",
    )
    pm_p.add_argument("bundle", help="BUNDLE_<reason>_<cycle>.json path")
    pm_p.add_argument(
        "--html",
        metavar="FILE",
        help="also write a self-contained HTML report (wait-for graph, "
        "occupancy heatmap, recorder tail)",
    )
    pm_p.add_argument(
        "--tail",
        type=_positive_int,
        default=20,
        metavar="N",
        help="flight-recorder events to show in the text report (default: 20)",
    )
    pm_p.set_defaults(func=_cmd_postmortem)

    bench_p = sub.add_parser(
        "bench",
        help="run the repo benchmark (benchmarks/perf/run.py --all --trace 1, "
        "~4 min) and stamp its document as the next BENCH_<n>.json",
    )
    bench_p.add_argument("--seed", type=int, default=1)
    bench_p.add_argument(
        "--out-dir", default=".", help="where BENCH_<n>.json goes (default: .)"
    )
    bench_p.set_defaults(func=_cmd_bench)

    regress_p = sub.add_parser(
        "regress",
        help="is it slower: judge BENCH_<n>.json runs — the last two of a short "
        "series pairwise, a long trajectory by changepoint detection",
    )
    regress_p.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="bench files, oldest first (default: every BENCH_<n>.json of "
        "--bench-dir, in the order they were created)",
    )
    regress_p.add_argument(
        "--bench-dir",
        action="append",
        metavar="DIR",
        help="directories scanned for BENCH_<n>.json when no PATH is given "
        "(repeatable; default: .)",
    )
    regress_p.add_argument(
        "--metric",
        action="append",
        metavar="PREFIX",
        help="only judge, print and count metrics with this prefix (repeatable; "
        "e.g. flit_hops_per_s, peak_rss_mb, sim.stats, noc)",
    )
    regress_p.add_argument(
        "--rel-floor",
        type=_nonnegative_float,
        help="relative floor below which a timed delta is noise (default: each "
        "metric's bound in BENCHMARK.json)",
    )
    regress_p.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when any metric regressed (default: warn only)",
    )
    regress_p.add_argument(
        "--json",
        metavar="PATH",
        help="also write the verdicts as one machine-readable JSON document",
    )
    regress_p.set_defaults(func=_cmd_regress)

    diff_p = sub.add_parser(
        "diff",
        help="differential oracle: compare two runs' event digests and "
        "localize the first divergent cycle",
    )
    diff_p.add_argument(
        "a",
        help="baseline: pin:<case>, run-record JSON, runs.jsonl"
        "[#run_id], or a 'sim:family=...,rate=...' re-simulation spec",
    )
    diff_p.add_argument("b", help="candidate (same accepted forms)")
    diff_p.add_argument(
        "--no-localize",
        action="store_true",
        help="stop at the summary/census/checkpoint granularities; do not "
        "re-simulate to name the exact divergent cycle",
    )
    diff_p.add_argument(
        "--context",
        type=int,
        default=12,
        metavar="N",
        help="flight-recorder events to print at the divergent cycle "
        "(default: 12)",
    )
    diff_p.set_defaults(func=_cmd_diff)

    golden_p = sub.add_parser(
        "golden",
        help="check/record the pinned runs of benchmarks/goldens/PINS.json, "
        "each re-simulated from its own meta",
    )
    golden_p.add_argument("action", choices=("record", "check"))
    golden_p.add_argument("case", nargs="*", help="pin names (default: every pin)")
    golden_p.add_argument(
        "--file", help="pin store (default: benchmarks/goldens/PINS.json)"
    )
    golden_p.set_defaults(func=_cmd_golden)

    watch_p = sub.add_parser(
        "watch",
        help="serve the fleet dashboard (in-flight --live runs, failures, "
        "paper figures, bench trajectory, run registry); --once --out "
        "writes it as a static page",
    )
    watch_p.add_argument(
        "--port",
        type=int,
        default=8631,
        help="listen port (default: 8631; 0 picks a free port)",
    )
    watch_p.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    watch_p.add_argument(
        "--runs-dir",
        default="runs",
        help="run-registry directory to observe (default: runs/)",
    )
    watch_p.add_argument(
        "--poll",
        type=_positive_float,
        default=1.0,
        metavar="SECONDS",
        help="change-detection interval for the auto-updating pages "
        "(default: 1.0)",
    )
    watch_p.add_argument(
        "--top",
        type=_positive_int,
        default=20,
        help="rows in the recent-runs table (default: 20)",
    )
    watch_p.add_argument(
        "--results-dir",
        default="benchmarks/results",
        help="paper-figure CSVs; the page draws the largest scale with a "
        "fig11_<scale>.csv (default: benchmarks/results)",
    )
    watch_p.add_argument(
        "--once",
        action="store_true",
        help="print the fleet state as JSON and exit instead of serving "
        "(scriptable snapshot; also the CI smoke hook)",
    )
    watch_p.add_argument(
        "--out",
        metavar="FILE",
        help="with --once: write the fleet page as one static, script-free "
        "HTML file instead of printing JSON",
    )
    watch_p.set_defaults(func=_cmd_watch)

    prove_p = sub.add_parser(
        "prove",
        help="statically verify and certify families: lint (with link "
        "contracts), deadlock, exhaustive reachability and livelock, "
        "single-link fault sweep and bounded model checking",
    )
    prove_group = prove_p.add_mutually_exclusive_group(required=True)
    prove_group.add_argument("--family", choices=FAMILIES)
    prove_group.add_argument(
        "--all", action="store_true", help="certify every registered family"
    )
    prove_p.add_argument(
        "--mode",
        choices=("vct", "wormhole", "both"),
        default="both",
        help="flow-control assumption(s) to certify under (default: both)",
    )
    prove_p.add_argument(
        "--chiplets",
        "--grid",
        dest="chiplets",
        default="2x2",
        help="chiplet grid, e.g. 2x2 (--grid is an alias)",
    )
    prove_p.add_argument("--nodes", default="3x3", help="per-chiplet mesh, e.g. 3x3")
    prove_p.add_argument(
        "--no-fault-masks",
        action="store_true",
        help="skip the single-link fault-mask reachability sweep",
    )
    prove_p.add_argument(
        "--max-states",
        type=_positive_int,
        default=4_000,
        help="model-checker state budget per adjudicated cycle (default: 4000)",
    )
    prove_p.add_argument(
        "--max-packets",
        type=_positive_int,
        help="model-checker in-flight packet bound (default: sized from "
        "the adjudicated cycle's channel capacities)",
    )
    prove_p.add_argument(
        "--json",
        metavar="PATH",
        help="also write every certificate into one JSON document",
    )
    prove_p.add_argument(
        "--verbose", action="store_true", help="include INFO findings in reports"
    )
    add_record_args(prove_p)
    prove_p.set_defaults(func=_cmd_prove)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
