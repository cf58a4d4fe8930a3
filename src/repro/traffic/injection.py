"""Synthetic injection processes.

:class:`SyntheticWorkload` drives a traffic pattern at a configured
injection rate in flits/cycle/node (the paper's x-axis unit).  Packet
creation per cycle is sampled as a binomial over the injecting nodes —
statistically the same Bernoulli process per node as in conventional NoC
simulators, but one draw per cycle instead of one per node, so large
systems stay fast.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from repro.noc.flit import Packet
from .patterns import TrafficPattern
from .rng import Stream


class SyntheticWorkload:
    """Bernoulli packet injection following a traffic pattern.

    Parameters
    ----------
    pattern:
        Destination chooser; may restrict the injecting nodes.
    n_nodes:
        System size.
    rate:
        Offered load in flits/cycle/node, averaged over injecting nodes.
    packet_length:
        Flits per packet.
    until:
        Last cycle (exclusive) at which packets are generated; None means
        forever.
    seed:
        RNG seed (runs are deterministic given the seed).
    """

    def __init__(
        self,
        pattern: TrafficPattern,
        n_nodes: int,
        rate: float,
        packet_length: int,
        *,
        until: Optional[int] = None,
        seed: int = 1,
        ordered: bool = True,
    ) -> None:
        if not 0 <= rate < math.inf:  # also False for NaN, which would inject at p = 1
            raise ValueError(f"rate must be a finite number >= 0, got {rate!r}")
        if packet_length < 1:
            raise ValueError("packet_length must be >= 1")
        self.pattern = pattern
        self.n_nodes = n_nodes
        self.rate = rate
        self.packet_length = packet_length
        self.until = until
        self.ordered = ordered
        self.rng = Stream(seed)
        sources = pattern.sources()
        self._sources: Optional[Sequence[int]] = (
            list(sources) if sources is not None else None
        )
        n_injectors = len(self._sources) if self._sources is not None else n_nodes
        self._n_injectors = n_injectors
        # Packet-generation probability per injector per cycle.
        self._p = min(1.0, rate / packet_length)

    def step(self, now: int) -> Iterable[Packet]:
        if self._p == 0 or (self.until is not None and now >= self.until):
            return []
        rng = self.rng
        count = rng.binomial(self._n_injectors, self._p)
        if count == 0:
            return []
        packets: list[Packet] = []
        # Every pick is drawn before the first destination: the stream order
        # the pinned runs were recorded with.
        picks = [rng.integers(self._n_injectors) for _ in range(count)]
        for pick in picks:
            src = self._sources[pick] if self._sources is not None else pick
            dst = self.pattern.dest(src, rng)
            packets.append(
                Packet(
                    src,
                    dst,
                    self.packet_length,
                    now,
                    ordered=self.ordered,
                )
            )
        return packets

    def done(self, now: int) -> bool:
        return self.until is not None and now >= self.until
