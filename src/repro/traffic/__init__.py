"""Workloads: synthetic patterns, trace replay, PARSEC and HPC generators.

Every random draw comes from :class:`~repro.traffic.rng.Stream`; traces
keep their tables in standard-library ``array`` columns.
"""

from importlib import import_module

__all__ = [
    "FIGURE_PATTERNS",
    "PARSEC_PROFILES",
    "PATTERNS",
    "RequestReplyWorkload",
    "Stream",
    "SyntheticWorkload",
    "Trace",
    "TraceRecord",
    "TraceWorkload",
    "TrafficPattern",
    "embed_ranks",
    "generate_cns_trace",
    "generate_moc_trace",
    "generate_parsec_trace",
    "make_pattern",
    "packetize",
]

#: Public name -> the submodule that defines it, imported on first access
#: (PEP 562; see ``repro/__init__.py``).
_LAZY = {
    **dict.fromkeys(
        ("embed_ranks", "generate_cns_trace", "generate_moc_trace", "packetize"), "hpc"
    ),
    "SyntheticWorkload": "injection",
    **dict.fromkeys(("PARSEC_PROFILES", "generate_parsec_trace"), "parsec"),
    **dict.fromkeys(("FIGURE_PATTERNS", "PATTERNS", "TrafficPattern", "make_pattern"), "patterns"),
    "RequestReplyWorkload": "reqreply",
    "Stream": "rng",
    **dict.fromkeys(("Trace", "TraceRecord", "TraceWorkload"), "trace"),
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
