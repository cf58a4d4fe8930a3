"""Workloads: synthetic patterns, trace replay, PARSEC and HPC generators.

Every random draw comes from :class:`~repro.traffic.rng.Stream`; traces
keep their tables in standard-library ``array`` columns.
"""

from repro import _lazy_exports

#: Submodule -> the public names it contributes, imported on first access.
_EXPORTS = {
    "hpc": ("embed_ranks", "generate_cns_trace", "generate_moc_trace", "packetize"),
    "injection": ("SyntheticWorkload",),
    "parsec": ("PARSEC_PROFILES", "generate_parsec_trace"),
    "patterns": ("FIGURE_PATTERNS", "PATTERNS", "TrafficPattern", "make_pattern"),
    "reqreply": ("RequestReplyWorkload",),
    "rng": ("Stream",),
    "trace": ("Trace", "TraceRecord", "TraceWorkload"),
}
__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
