"""Routing functions and deadlock/livelock analysis.

Negative-first mesh routing, weighted torus direction planning,
minus-first hypercube routing [30], the paper's Algorithm 1 for
hetero-channel systems, Eq (5) subnetwork selection, the route table
every static pass reads, and the Lemma-1 escape-channel analyser.
"""

from .deadlock import EscapeAnalysis, RouteTable, analyse_escape
from .fault import (
    FaultTolerantRouting,
    UnroutableError,
    adaptive_link_indices,
    apply_faults,
    fail_random_links,
)
from .functions import (
    HeteroChannelRouting,
    HypercubeRouting,
    MeshRouting,
    TorusRouting,
    make_routing,
)
from .policies import CUBE, MESH, FixedSelector, HopCountSelector, WeightedSelector, make_selector

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
    "make_selector",
]
