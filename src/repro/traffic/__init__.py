"""Workloads: synthetic patterns, trace replay, PARSEC and HPC generators.

The synthetic side draws from :class:`~repro.traffic.rng.Stream` and never
loads numpy.  The trace side (``trace``, ``hpc``, ``parsec``) keeps its
tables in numpy columns, so its names resolve on first access (PEP 562).
"""

from importlib import import_module

from .injection import SyntheticWorkload
from .patterns import FIGURE_PATTERNS, PATTERNS, TrafficPattern, make_pattern
from .reqreply import RequestReplyWorkload
from .rng import Stream

#: Trace-side name -> the submodule that defines it, imported on first access.
_LAZY = {
    "embed_ranks": "hpc",
    "generate_cns_trace": "hpc",
    "generate_moc_trace": "hpc",
    "packetize": "hpc",
    "PARSEC_PROFILES": "parsec",
    "generate_parsec_trace": "parsec",
    "Trace": "trace",
    "TraceRecord": "trace",
    "TraceWorkload": "trace",
}

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


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro.traffic' has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value
