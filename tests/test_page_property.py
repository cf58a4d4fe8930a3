"""Property: a postmortem bundle or a live feed that validates also renders.

Each example takes a real input — the forced ring deadlock's bundle, or a
finished ``--live --health --digest`` feed — and replaces one nested field
with a random JSON value.  Then either validation rejects it
(:func:`load_bundle` raises ``ValueError``, :func:`read_feed` skips the
line) or every form renders it without raising: the postmortem text and
page, the fleet page and the run page.

Random integers stay within +-1000: the postmortem heatmap draws one cell
per node the bundle claims, so a huge node count is slow, not wrong.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    HealthThresholds,
    TelemetryConfig,
    load_bundle,
    read_feed,
    render_bundle_html,
    render_bundle_text,
)
from repro.telemetry.dashboard import render_fleet
from repro.telemetry.server import WatchService

from .test_forensics import run_ring_deadlock

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False, width=32),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def locations(value, at=()):
    """Every nested location of a JSON document, as a key / index path."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield at + (key,)
        yield from locations(item, at + (key,))


def replaced(document, location, value):
    document = copy.deepcopy(document)
    parent = document
    for key in location[:-1]:
        parent = parent[key]
    parent[location[-1]] = value
    return document


@pytest.fixture(scope="module")
def bundle_file(tmp_path_factory):
    _network, error, _session = run_ring_deadlock(
        tmp_path_factory.mktemp("bundle"), recorder=True, health=True)
    return error.bundle_path


@pytest.fixture(scope="module")
def feed_lines(tmp_path_factory):
    from repro.sim.config import SimConfig
    from repro.sim.experiment import run_synthetic
    from repro.topology.grid import ChipletGrid
    from repro.topology.system import build_system

    live = tmp_path_factory.mktemp("runs") / "live"
    spec = build_system("hetero_phy_torus", ChipletGrid(2, 2, 2, 2),
                        SimConfig(sim_cycles=600, warmup_cycles=100))
    config = TelemetryConfig(
        live=True, live_dir=live, run_id="propertyrun01", epoch_length=200, health=True,
        health_thresholds=HealthThresholds(max_packet_age=1), digest=True)
    run_synthetic(spec, "uniform", 0.1, seed=3, telemetry=config)
    events = read_feed(live / "propertyrun01.jsonl")  # strict: the real feed is valid
    assert {"start", "epoch", "anomaly", "finish"} <= {event["kind"] for event in events}
    return [json.dumps(event) for event in events]


SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@SETTINGS
@given(data=st.data(), value=JSON)
def test_a_bundle_that_validates_renders(bundle_file, tmp_path, data, value):
    bundle = json.loads(Path(bundle_file).read_text(encoding="utf-8"))
    location = data.draw(st.sampled_from(list(locations(bundle))))
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(replaced(bundle, location, value)), encoding="utf-8")
    try:
        loaded = load_bundle(path)
    except ValueError:
        return  # rejected: repro postmortem says so instead of a traceback
    render_bundle_text(loaded, tail=5)
    render_bundle_html(loaded)


@SETTINGS
@given(data=st.data(), value=JSON)
def test_a_feed_that_validates_renders(feed_lines, tmp_path, data, value):
    index = data.draw(st.integers(0, len(feed_lines) - 1))
    event = json.loads(feed_lines[index])
    location = data.draw(st.sampled_from(list(locations(event))))
    lines = list(feed_lines)
    lines[index] = json.dumps(replaced(event, location, value))
    runs_dir = tmp_path / "runs"
    (runs_dir / "live").mkdir(parents=True, exist_ok=True)
    feed = runs_dir / "live" / "propertyrun01.jsonl"
    feed.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if len(read_feed(feed, strict=False)) < len(lines):
        return  # the edited line is skipped, like a truncated one
    service = WatchService(runs_dir, bench_dirs=[tmp_path], results_dir=tmp_path)
    render_fleet(service.snapshot())
    assert service.run_page("propertyrun01") is not None
