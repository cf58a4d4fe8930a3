"""Tests for the memory ledger (``repro.telemetry.memprof``)."""

import tracemalloc

import pytest

from repro.telemetry.memprof import (
    MEM_SCHEMA_VERSION,
    MemLedger,
    MemProfError,
    fmt_bytes,
    render_mem_table,
    validate_mem_block,
)


def test_ledger_measures_allocations_in_the_observed_region():
    with MemLedger() as ledger:
        keep = [bytearray(64 * 1024) for _ in range(8)]
    assert ledger.peak_bytes >= 8 * 64 * 1024
    assert ledger.current_bytes >= 8 * 64 * 1024  # still live at stop
    del keep
    summary = ledger.record_summary()
    assert validate_mem_block(summary) is summary
    assert summary["schema_version"] == MEM_SCHEMA_VERSION
    assert summary["top_sites"], "the bytearray site must appear"
    assert summary["top_sites"][0]["bytes"] >= 64 * 1024
    assert "test_memprof" in summary["top_sites"][0]["site"]
    assert not tracemalloc.is_tracing()  # owned trace is torn down


def test_ledger_peak_is_relative_to_start_baseline():
    ballast = [bytearray(256 * 1024)]
    with MemLedger() as ledger:
        small = bytearray(1024)
    del ballast, small
    # The pre-existing ballast must not count against the observed region.
    assert ledger.peak_bytes < 256 * 1024


def test_ledger_piggybacks_on_a_running_trace():
    tracemalloc.start()
    try:
        with MemLedger() as ledger:
            keep = bytearray(128 * 1024)
        assert ledger.peak_bytes >= 128 * 1024
        del keep
        assert tracemalloc.is_tracing()  # an outer trace is left running
    finally:
        tracemalloc.stop()


def test_ledger_lifecycle_misuse_raises():
    ledger = MemLedger()
    with pytest.raises(MemProfError, match="without start"):
        ledger.stop()
    ledger.start()
    with pytest.raises(MemProfError, match="twice"):
        ledger.start()
    ledger.stop()
    with pytest.raises(ValueError, match="top_n"):
        MemLedger(top_n=0)


def test_top_sites_capped_and_sorted():
    with MemLedger(top_n=3) as ledger:
        keep = [bytearray(32 * 1024) for _ in range(4)]
    del keep
    sites = ledger.record_summary()["top_sites"]
    assert len(sites) <= 3
    assert sites == sorted(sites, key=lambda s: s["bytes"], reverse=True)


def test_validate_mem_block_rejects_malformed():
    good = {
        "schema_version": MEM_SCHEMA_VERSION,
        "top_n": 10,
        "peak_bytes": 100,
        "current_bytes": 50,
        "ru_maxrss_bytes": None,
        "phases": {"other": 100},
        "top_sites": [],
    }
    assert validate_mem_block(dict(good)) == good
    with pytest.raises(MemProfError, match="not supported"):
        validate_mem_block({**good, "schema_version": MEM_SCHEMA_VERSION + 1})
    with pytest.raises(MemProfError, match="peak_bytes"):
        validate_mem_block({**good, "peak_bytes": -1})
    with pytest.raises(MemProfError, match="unknown mem phase"):
        validate_mem_block({**good, "phases": {"warp_drive": 1}})
    with pytest.raises(MemProfError, match="allocation site"):
        validate_mem_block({**good, "top_sites": [{"bytes": 1}]})
    with pytest.raises(MemProfError, match="dict"):
        validate_mem_block(None)


def test_fmt_bytes():
    assert fmt_bytes(None) == "n/a"
    assert fmt_bytes(512) == "512 B"
    assert fmt_bytes(2048) == "2.0 KiB"
    assert fmt_bytes(3 * 1024 * 1024) == "3.0 MiB"
    assert fmt_bytes(5 * 1024**3) == "5.0 GiB"


def test_render_mem_table():
    with MemLedger() as ledger:
        keep = bytearray(64 * 1024)
    del keep
    text = render_mem_table(ledger.record_summary())
    assert "peak heap" in text
    assert "allocation sites" in text
    assert "KiB" in text or "MiB" in text
