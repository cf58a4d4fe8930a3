#!/usr/bin/env python3
"""The repo benchmark: host-speed end-to-end metrics and per-module layer metrics.

    python benchmarks/perf/run.py [--workload NAME | --all] [--seed 1]
        [--reps 3 | --seconds S] [--trace {0,1} | --traced] [--smoke] [--out FILE]
    python benchmarks/perf/run.py --agree A.json B.json

Runs every (workload, rep) serially, each in a fresh child interpreter
(``child.py``; one child at a time, no threads), prints every metric by
name with its unit, checks the simulator's outputs, and exits non-zero on
a failed check.  The last line of standard output is the contract's JSON
object: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  Host times are reference-host seconds: each child
samples how fast the box is running it and reports work at that speed (see
README.md beside this file).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spec  # noqa: E402

#: ``setup_s`` is the median of at least this many set-ups per run: the
#: timed reps' own, topped up with set-up-only children.
SETUP_SAMPLES = 7
#: No single child may outlive this (the contract allows a run 180 s).
CHILD_TIMEOUT_S = 150
#: Low 48 bits: a hash value a JSON double carries exactly.
HASH48 = (1 << 48) - 1


class Children:
    """Starts child passes one at a time in a scratch directory of the checkout."""

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = spec.HERE / ".work" / str(os.getpid())
        self.workdir.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            self.workdir.parent.rmdir()

    def run(self, mode: str, workload: str) -> dict:
        """One pass; a crash comes back as ``{"crashed": reason}``."""
        out = self.workdir / "report.json"
        out.unlink(missing_ok=True)
        command = [
            sys.executable, str(spec.HERE / "child.py"), mode,
            "--workload", workload, "--seed", str(self.seed),
            "--workdir", str(self.workdir), "--out", str(out),
        ]
        if self.smoke:
            command.append("--smoke")
        try:
            # run() kills and reaps the child on timeout or interrupt.
            done = subprocess.run(
                command, cwd=spec.ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return {"crashed": f"{mode} pass exceeded {CHILD_TIMEOUT_S} s"}
        if done.returncode != 0 or not out.is_file():
            tail = (done.stderr or done.stdout).strip().splitlines()[-3:]
            return {"crashed": f"{mode} pass exited {done.returncode}: " + " | ".join(tail)}
        return json.loads(out.read_text())


def describe(samples: list[float], unit: str) -> dict:
    return {
        "unit": unit,
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "samples": samples,
    }


def measure(name: str, args, children: Children, extras: dict | None) -> dict:
    """All passes of one workload -> its result block."""
    workload = spec.WORKLOADS[name]
    problems: list[str] = []
    points = failed = 0

    def account(report: dict, label: str, expected_points: int) -> bool:
        nonlocal points, failed
        if "crashed" in report:
            problems.append(f"{label}: {report['crashed']}")
            points += expected_points
            failed += expected_points
            return False
        points += report.get("points", 0)
        failed += report.get("failed_points", 0)
        problems.extend(f"{label}: {msg}" for msg in report.get("problems", ()))
        return True

    # -- timed reps: zero bus subscribers, the end-to-end numbers ------------
    timed: list[dict] = []
    started = time.monotonic()
    attempt = 0
    while True:
        attempt += 1
        report = children.run("timed", name)
        if account(report, f"rep {attempt}", workload.points):
            timed.append(report)
        if args.reps is not None:
            if attempt >= args.reps:
                break
        elif time.monotonic() - started >= args.seconds:
            break

    result: dict = {"seed": args.seed, "reps": attempt, "end_to_end": {}, "per_layer": {}}
    if timed:
        setups = [rep["setup_s"] for rep in timed]
        while len(setups) < SETUP_SAMPLES:
            report = children.run("setup", name)
            if not account(report, "set-up", 0):
                break
            setups.append(report["setup_s"])
        samples = {
            "wall_s": [rep["wall_s"] for rep in timed],
            "setup_s": setups,
            "flit_hops_per_s": [
                rep["flit_hops"] / (rep["wall_s"] - rep["setup_s"]) for rep in timed
            ],
            "peak_rss_mb": [rep["peak_rss_mb"] for rep in timed],
        }
        result["end_to_end"] = {
            metric: describe(samples[metric], unit) for metric, (unit, _) in spec.END_TO_END.items()
        }
        # What the clock on the wall read, for the record: not a metric.
        result["raw_wall_s"] = describe([rep["raw_wall_s"] for rep in timed], "s")

    # -- traced pass: per-layer numbers, never end-to-end ones ---------------
    traced = None
    if args.trace and timed:
        report = children.run("traced", name)
        if account(report, "traced pass", workload.points):
            traced = report

    # -- self-checks across passes ---------------------------------------------
    passes = timed + ([traced] if traced else [])
    for key, what in (("fingerprint", "simulated statistics"), ("csv_sha256", "figure CSV")):
        seen = {rep[key] for rep in passes if key in rep}
        if len(seen) > 1:
            problems.append(f"{what} differ between passes of the same seed: {sorted(seen)}")
            failed += len(seen) - 1
    if passes:
        result["fingerprint"] = passes[0]["fingerprint"]
        if traced and "digest_chain" in traced:
            result["digest_chain"] = traced["digest_chain"]
        if "csv_sha256" in passes[0]:
            result["csv_sha256"] = passes[0]["csv_sha256"]
        pinned = compare_pinned(name, result, args)
        result["matches_pinned"] = pinned
        if traced:
            layers = {
                **dict.fromkeys(spec.PER_LAYER, 0.0),  # 0 = not measured on this workload
                **traced["layers"],
                **(extras or {}),
                "proc.cpu_s": statistics.median(rep["cpu_s"] for rep in timed),
                "trace.overhead_ratio": traced["wall_s"] / result["end_to_end"]["wall_s"]["median"],
                "sim.stats.fingerprint": int(result["fingerprint"], 16),
                "sim.stats.digest_chain": int(result.get("digest_chain", "0"), 16) & HASH48,
                "sim.stats.matches_pinned": pinned,
            }
            result["per_layer"] = {
                metric: {"value": layers[metric], "unit": layer.unit}
                for metric, layer in spec.PER_LAYER.items()
            }
            result["spans"] = traced["spans"]
    result.update(points=points, failed_points=failed, problems=problems)
    return result


def compare_pinned(name: str, result: dict, args) -> int:
    """1 = matches expected.json, 0 = does not (loud, but not a failure), -1 = no pin applies."""
    expected = json.loads(spec.EXPECTED_JSON.read_text())
    seed_free = spec.WORKLOADS[name].kind == "cli"  # `repro run` takes no seed
    pins = expected["workloads"].get(name)
    if pins is None or args.smoke or (args.seed != expected["seed"] and not seed_free):
        return -1
    wrong = {
        key: (pin, result[key]) for key, pin in pins.items() if key in result and result[key] != pin
    }
    for key, (pin, got) in wrong.items():
        print(
            f"!!! {name}: {key} is {got}, expected.json pins {pin} — the simulator's "
            "behaviour changed (a model fix re-pins in its own PR; a speed-up must not)",
            flush=True,
        )
    return 0 if wrong else 1


def run_extras(children: Children) -> dict:
    """The workload-independent layer numbers, once per invocation."""
    report = children.run("extras", "phy_steady_256")
    if "crashed" in report:
        return {"layers": None, "points": 1, "failed_points": 1, "problems": [report["crashed"]]}
    return report


# -- output --------------------------------------------------------------------
def load_bounds() -> dict:
    doc = json.loads(spec.BENCHMARK_JSON.read_text())
    return {metric["name"]: metric for metric in doc["end_to_end"]}


def print_result(name: str, result: dict, bounds: dict) -> None:
    print(f"== {name}  seed={result['seed']}  timed reps={result['reps']} ==")
    accuracy = result["per_layer"].get("exps.table3_abs_err_pp")
    if accuracy:
        print(
            f"   accuracy beside these host speeds (tiny scale): Table 3 mean |error| vs the "
            f"paper = {accuracy['value']:.1f} pp"
        )
    print(
        "end-to-end, timed reps with zero bus subscribers, times in reference-host "
        "seconds: median [min .. max] n"
    )
    for metric, cell in result["end_to_end"].items():
        bound = bounds[metric]
        print(
            f"  {metric:<18s} {cell['median']:>16.6f} {cell['unit']:<7s}"
            f"[{cell['min']:.6f} .. {cell['max']:.6f}] n={cell['n']}"
            f"   {bound['better']} is better, bound {bound['bound']:.0%}"
        )
    if "raw_wall_s" in result:
        raw = result["raw_wall_s"]
        speed = result["end_to_end"]["wall_s"]["median"] / raw["median"]
        print(
            f"  {'(raw wall clock':<18s} {raw['median']:>16.6f} s      "
            f"[{raw['min']:.6f} .. {raw['max']:.6f}]: this box was at "
            f"{speed:.2f} of the reference host's speed)"
        )
    print(f"  {'failed_points':<18s} {result['failed_points']:>16d} of {result['points']} points")
    if result["per_layer"]:
        print("per-layer, traced pass (0 = not measured on this workload): value unit -> moves")
        for metric, cell in result["per_layer"].items():
            print(
                f"  {metric:<40s} {cell['value']:>20.6f} {cell['unit']:<15s}"
                f"-> {spec.PER_LAYER[metric].moves}"
            )
    for key in ("fingerprint", "digest_chain", "csv_sha256"):
        if key in result:
            print(f"  sim.stats {key} = {result[key]}")
    print(f"  sim.stats.matches_pinned = {result.get('matches_pinned', -1)}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")


def contract_line(result: dict, trace: int) -> str:
    cells = result["per_layer"] if trace else result["end_to_end"]
    metrics = {
        metric: {"value": cell["value" if trace else "median"], "unit": cell["unit"]}
        for metric, cell in cells.items()
    }
    return json.dumps({
        "correct": result["failed_points"] == 0 and bool(metrics),
        "attempted": max(1, result["points"]),
        "failed": result["failed_points"],
        "metrics": metrics,
    })


# -- --agree ---------------------------------------------------------------------
def agree(path_a: str, path_b: str) -> int:
    """Judge two result sets of the same code: bounds for host numbers, exact for counts."""
    a_doc, b_doc = (json.loads(Path(p).read_text())["workloads"] for p in (path_a, path_b))
    bounds = load_bounds()
    disagreements = 0
    for name in a_doc:
        if name not in b_doc:
            continue
        a, b = a_doc[name], b_doc[name]
        print(f"== {name} ==")
        rows: list[tuple[str, str, str, bool]] = []
        for metric, cell in a["end_to_end"].items():
            other = b["end_to_end"][metric]["median"]
            drift = abs(other - cell["median"]) / abs(cell["median"])
            rows.append((
                metric, f"{cell['median']:.6g} vs {other:.6g} {cell['unit']}",
                f"{drift:.1%} apart, bound {bounds[metric]['bound']:.0%}",
                drift <= bounds[metric]["bound"],
            ))
        for key in ("failed_points", "fingerprint", "digest_chain", "csv_sha256"):
            if key in a or key in b:
                rows.append((key, f"{a.get(key)} vs {b.get(key)}", "exact", a.get(key) == b.get(key)))
        for metric, cell in a["per_layer"].items():
            if metric not in b["per_layer"]:
                continue
            other = b["per_layer"][metric]["value"]
            if spec.PER_LAYER[metric].exact:
                rows.append((metric, f"{cell['value']} vs {other}", "exact", cell["value"] == other))
            else:  # host time of one layer: reported, not judged
                rows.append((metric, f"{cell['value']:.6g} vs {other:.6g} {cell['unit']}", "no bound", True))
        for metric, values, rule, ok in rows:
            print(f"  {'agree   ' if ok else 'DISAGREE'} {metric:<40s} {values}  ({rule})")
            disagreements += not ok
    print(f"{disagreements} disagreement(s)")
    return 1 if disagreements else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, help="timed reps per workload (default 3)")
    parser.add_argument(
        "--seconds", type=float,
        help="instead of --reps: start timed reps until this much time has passed",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: add the traced pass and end with the per-layer metrics",
    )
    parser.add_argument("--traced", dest="trace", action="store_const", const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true", help="~1/10 horizons, 1 rep: schema check only")
    parser.add_argument("--out", help="write every number, sample and span to this JSON file")
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.agree:
        return agree(*args.agree)
    if not (spec.SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"no simulator to measure: {spec.SRC / 'repro'} is missing")
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload NAME and --all")
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.reps is None:
        if args.seconds is None:
            args.reps = 1 if args.smoke else 3
        elif args.trace:
            # The traced pass is this run's measurement; one timed rep gives
            # it a base (overhead ratio) and a fingerprint to agree with.
            args.reps = 1
    names = list(spec.WORKLOADS) if args.all else [args.workload]
    bounds = load_bounds()

    children = Children(args.seed, args.smoke)
    try:
        # Untimed: .pyc compilation and cold file caches never land in a timed rep.
        children.run("warm", names[0])
        extras = run_extras(children) if args.trace else None
        results = {}
        for name in names:
            result = measure(name, args, children, extras and extras["layers"])
            if extras and not results:  # its points count once, against the first workload
                result["points"] += extras["points"]
                result["failed_points"] += extras["failed_points"]
                result["problems"] += [f"extras: {msg}" for msg in extras["problems"]]
            results[name] = result
            print_result(name, result, bounds)
            sys.stdout.flush()
    finally:
        children.close()
    if args.out:
        doc = {"schema": 1, "seed": args.seed, "smoke": args.smoke, "workloads": results}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for name in names:
        print(contract_line(results[name], args.trace))
    return 1 if any(r["failed_points"] or not r["end_to_end"] for r in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
