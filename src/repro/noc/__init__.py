"""Cycle-accurate network-on-chip substrate.

Flits and packets, virtual-channel routers (RC/VA/SA/ST pipeline with
credit-based flow control and whole-packet virtual cut-through
allocation), pipelined links that model die-to-die interfaces as virtual
pipelines in the on-chip clock domain, and the network container with its
activity-tracking cycle loop.
"""

from importlib import import_module

__all__ = [
    "Candidate",
    "ChannelKind",
    "ChannelSpec",
    "FLIT_BITS",
    "Flit",
    "Link",
    "Network",
    "Packet",
    "PhyParams",
    "PipelinedLink",
    "RouteTracer",
    "Router",
]

#: Public name -> the submodule that defines it, imported on first access
#: (PEP 562; see ``repro/__init__.py``).
_LAZY = {
    **dict.fromkeys(("ChannelKind", "ChannelSpec", "PhyParams"), "channel"),
    **dict.fromkeys(("FLIT_BITS", "Flit", "Packet"), "flit"),
    **dict.fromkeys(("Link", "PipelinedLink"), "link"),
    "Network": "network",
    **dict.fromkeys(("Candidate", "Router"), "router"),
    "RouteTracer": "tracing",
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
