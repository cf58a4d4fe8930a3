"""Routing functions and deadlock/livelock analysis.

Negative-first mesh routing, weighted torus direction planning,
minus-first hypercube routing [30], the paper's Algorithm 1 for
hetero-channel systems, Eq (5) subnetwork selection, the route table
every static pass reads, and the Lemma-1 escape-channel analyser.
"""

from repro import _lazy_exports

#: Submodule -> the public names it contributes, imported on first access.
_EXPORTS = {
    "deadlock": ("EscapeAnalysis", "RouteTable", "analyse_escape"),
    "fault": (
        "FaultTolerantRouting", "UnroutableError", "adaptive_link_indices", "apply_faults",
        "fail_random_links",
    ),
    "functions": (
        "HeteroChannelRouting", "HypercubeRouting", "MeshRouting", "TorusRouting",
        "make_routing",
    ),
    "policies": ("CUBE", "MESH", "FixedSelector", "HopCountSelector", "WeightedSelector"),
}
__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
