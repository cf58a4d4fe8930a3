"""Cycle-accurate network-on-chip substrate.

Flits and packets, virtual-channel routers (RC/VA/SA/ST pipeline with
credit-based flow control and whole-packet virtual cut-through
allocation), pipelined links that model die-to-die interfaces as virtual
pipelines in the on-chip clock domain, and the network container with its
activity-tracking cycle loop.
"""

from repro import _lazy_exports

#: Submodule -> the public names it contributes, imported on first access.
_EXPORTS = {
    "channel": ("ChannelKind", "ChannelSpec", "PhyParams"),
    "flit": ("FLIT_BITS", "Flit", "Packet"),
    "link": ("Link", "PipelinedLink"),
    "network": ("Network",),
    "router": ("Candidate", "Router"),
    "tracing": ("RouteTracer",),
}
__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
