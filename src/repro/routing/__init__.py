"""Routing functions and deadlock/livelock analysis.

Negative-first mesh routing, weighted torus direction planning,
minus-first hypercube routing [30], the paper's Algorithm 1 for
hetero-channel systems, Eq (5) subnetwork selection, the route table
every static pass reads, and the Lemma-1 escape-channel analyser.
"""

from importlib import import_module

__all__ = [
    "CUBE",
    "FaultTolerantRouting",
    "UnroutableError",
    "adaptive_link_indices",
    "apply_faults",
    "fail_random_links",
    "EscapeAnalysis",
    "FixedSelector",
    "HeteroChannelRouting",
    "HopCountSelector",
    "HypercubeRouting",
    "MESH",
    "MeshRouting",
    "RouteTable",
    "TorusRouting",
    "WeightedSelector",
    "analyse_escape",
    "make_routing",
]

#: Public name -> the submodule that defines it, imported on first access
#: (PEP 562; see ``repro/__init__.py``).
_LAZY = {
    **dict.fromkeys(("EscapeAnalysis", "RouteTable", "analyse_escape"), "deadlock"),
    **dict.fromkeys(
        (
            "FaultTolerantRouting",
            "UnroutableError",
            "adaptive_link_indices",
            "apply_faults",
            "fail_random_links",
        ),
        "fault",
    ),
    **dict.fromkeys(
        ("HeteroChannelRouting", "HypercubeRouting", "MeshRouting", "TorusRouting", "make_routing"),
        "functions",
    ),
    **dict.fromkeys(
        ("CUBE", "MESH", "FixedSelector", "HopCountSelector", "WeightedSelector"),
        "policies",
    ),
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
