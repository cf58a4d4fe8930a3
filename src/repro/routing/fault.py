"""Fault tolerance through channel diversity (Sec 9).

The paper observes that hetero-IF "provides more channel diversity and
adaptivity, [which] may improve the system's fault tolerance".  This
module makes that claim testable:

* :func:`apply_faults` removes failed links from every router's candidate
  sets by wrapping the installed routing function;
* :func:`adaptive_link_indices` lists the links that are *safe* to fail in
  a system — those carrying no escape channel, read off its links (torus
  wraparounds, hypercube links beside a global mesh; the serial halves of
  hetero-PHY channels are handled by the adapter itself);
* the Lemma 1 analyser (:func:`repro.routing.deadlock.analyse_escape`)
  still applies after fault injection, so a fault pattern that severs the
  escape subnetwork is detected rather than silently deadlocking.

The headline experiment (benchmarks/test_fault_tolerance.py): failing
serial links degrades a hetero-channel system gracefully — its escape is
the untouched parallel mesh — while the same failures break the
uniform-serial hypercube, whose escape paths run over the failed links.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.noc.network import Network
from repro.noc.router import Router
from repro.topology.system import SystemSpec
from repro.traffic.rng import Stream


class UnroutableError(RuntimeError):
    """A fault pattern left some packet with no usable candidate."""


class FaultTolerantRouting:
    """Wraps a routing function, filtering candidates over failed links."""

    def __init__(self, base, failed: Iterable[int]) -> None:
        # Deliberately no reference to the network: a routing function that
        # points back at it would keep a closed network cyclic.
        self.base = base
        self.failed = frozenset(failed)

    def __call__(self, router: Router, packet):
        candidates = self.base(router, packet)
        outputs = router.outputs
        filtered = []
        for cand in candidates:
            link = outputs[cand[0]].link
            if link is None or link.index not in self.failed:
                filtered.append(cand)
        if not filtered:
            raise UnroutableError(
                f"packet for node {packet.dst} stranded at node {router.node}: "
                "all candidate channels failed"
            )
        if len(filtered) != len(candidates):
            # The packet detours around a fault, which invalidates the
            # minimal-progress livelock argument (a tied adaptive choice can
            # otherwise shuttle it between the fault's endpoints forever).
            # Apply the Sec 6.2 livelock rule from the next hop on: restrict
            # the packet to the (intact) escape discipline.
            packet.adaptive_banned = True
        return filtered


def apply_faults(network: Network, failed: Sequence[int]) -> None:
    """Remove the given links (by index) from all routing decisions."""
    for index in failed:
        if not 0 <= index < len(network.links):
            raise ValueError(f"no link with index {index}")
    for router in network.routers:
        router.routing_fn = FaultTolerantRouting(router.routing_fn, failed)


def adaptive_link_indices(network: Network, spec: SystemSpec) -> list[int]:
    """Links that carry no escape channel in this system.

    Wraparound links never do (torus escape stays on the mesh).  Cube
    links do not when a global mesh carries the escape (Algorithm 1, the
    hetero-channel system); without one (the uniform serial hypercube)
    every cube link carries minus-first escape traffic, which is exactly
    why that system degrades badly under faults.
    """
    safe_tags = ("wrap", "cube") if spec.has_global_mesh else ("wrap",)
    return [
        i
        for i, channel in enumerate(network.specs)
        if channel.tag is not None and channel.tag[0] in safe_tags
    ]


def fail_random_links(
    network: Network,
    candidates: Sequence[int],
    count: int,
    *,
    seed: int = 0,
) -> list[int]:
    """Pick ``count`` distinct links to fail and apply the faults."""
    if count > len(candidates):
        raise ValueError(
            f"cannot fail {count} links; only {len(candidates)} candidates"
        )
    picks = Stream(seed).choice(len(candidates), count)
    chosen = sorted(candidates[i] for i in picks)
    apply_faults(network, chosen)
    return chosen
