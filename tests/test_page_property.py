"""Property: a postmortem bundle that validates also renders.

Each example takes a real input — the forced ring deadlock's bundle — and
replaces one nested field with a random JSON value.  Then either
validation rejects it (:func:`load_bundle` raises ``ValueError``) or both
forms render it without raising: the postmortem text and page.

Random integers stay within +-1000: the postmortem heatmap draws one cell
per node the bundle claims, so a huge node count is slow, not wrong.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.telemetry import load_bundle, render_bundle_html, render_bundle_text

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
