"""Workloads: synthetic patterns, trace replay, PARSEC and HPC generators.

Every random draw comes from :class:`~repro.traffic.rng.Stream`; traces
keep their tables in standard-library ``array`` columns.
"""

from .hpc import embed_ranks, generate_cns_trace, generate_moc_trace, packetize
from .injection import SyntheticWorkload
from .parsec import PARSEC_PROFILES, generate_parsec_trace
from .patterns import FIGURE_PATTERNS, PATTERNS, TrafficPattern, make_pattern
from .reqreply import RequestReplyWorkload
from .rng import Stream
from .trace import Trace, TraceRecord, TraceWorkload

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

