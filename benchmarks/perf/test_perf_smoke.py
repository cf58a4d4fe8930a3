"""Schema check of the benchmark (``PYTHONPATH=src pytest benchmarks/perf -q``, ~30 s).

Not part of the tier-1 suite (``testpaths = ["tests"]``): it runs every
workload once at ~1/10 horizon and checks what the runner emits against
``BENCHMARK.json`` and the contract's limits.  It measures nothing.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

import spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    return json.loads(spec.BENCHMARK_JSON.read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--all --traced --smoke`` run: (result document, contract lines)."""
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(spec.HERE / "run.py"), "--all", "--traced", "--smoke", "--out", str(out)],
        cwd=spec.ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    return json.loads(out.read_text()), lines


def test_benchmark_json_is_within_the_contract(benchmark_json):
    doc = benchmark_json
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/perf"]
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    # 4 + 22 x workloads runs must end within 3420 s: leave each run 2x run_seconds.
    assert (4 + 22 * len(doc["workloads"])) * 2 * doc["run_seconds"] <= 3420


def test_benchmark_json_lists_exactly_what_the_runner_emits(benchmark_json, smoke):
    document, _ = smoke
    assert [w["name"] for w in benchmark_json["workloads"]] == list(spec.WORKLOADS)
    assert list(document["workloads"]) == list(spec.WORKLOADS)
    declared_e2e = {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    assert declared_e2e == {name: unit for name, (unit, _) in spec.END_TO_END.items()}
    assert declared_layers == {name: layer.unit for name, layer in spec.PER_LAYER.items()}
    for result in document["workloads"].values():
        assert {m: c["unit"] for m, c in result["end_to_end"].items()} == declared_e2e
        assert {m: c["unit"] for m, c in result["per_layer"].items()} == declared_layers
        assert result["failed_points"] == 0 and result["points"] >= 1


def test_contract_lines(smoke):
    _, lines = smoke
    assert len(lines) == len(spec.WORKLOADS)
    for line in lines:  # --traced: the per-layer metrics
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == set(spec.PER_LAYER)
        for cell in line["metrics"].values():
            assert set(cell) == {"value", "unit"} and isinstance(cell["value"], (int, float))


def test_workloads_separate_the_layers(smoke):
    """Even at smoke horizons PHY/ROB work exists only where a hetero-PHY link does."""
    document, _ = smoke
    for name, result in document["workloads"].items():
        phy_work = sum(
            result["per_layer"][m]["value"]
            for m in ("core.phy.dispatches", "core.rob.inserts", "core.phy.rx_ns_per_flit_hop")
        )
        assert (phy_work > 0) == (name in ("fig11_cli_tiny", "phy_steady_256")), name
    assert document["workloads"]["channel_moc_trace_256"]["per_layer"][
        "sim.stats.delivered_fraction"]["value"] == 1.0


def test_agree_accepts_a_result_set_against_itself(smoke, tmp_path):
    document, _ = smoke
    path = tmp_path / "same.json"
    path.write_text(json.dumps(document))
    done = subprocess.run(
        [sys.executable, str(spec.HERE / "run.py"), "--agree", str(path), str(path)],
        cwd=spec.ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0 and "0 disagreement(s)" in done.stdout
    document["workloads"]["phy_steady_256"]["fingerprint"] = "0" * 12
    other = tmp_path / "other.json"
    other.write_text(json.dumps(document))
    done = subprocess.run(
        [sys.executable, str(spec.HERE / "run.py"), "--agree", str(path), str(other)],
        cwd=spec.ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1 and "DISAGREE" in done.stdout
