"""Synthetic traffic patterns (Sec 7.2).

The paper evaluates six patterns: ``uniform`` random, ``uniform-hotspot``
(communication restricted to a random 10% subset of node pairs), and the
four bit-permutations of Dally & Towles [21]:

* bit-shuffle    ``d_i = s_(i-1) mod b``   (rotate the index left)
* bit-complement ``d_i = not s_i``
* bit-transpose  ``d_i = s_(i+b/2) mod b`` (rotate by half the width)
* bit-reverse    ``d_i = s_(b-i-1)``

Permutations are defined on ``b = ceil(log2(N))`` bits; for node counts
that are not a power of two (e.g. the 3136-node system of Fig 14) the
result is reduced mod N, and a self-target falls through to the next node
— the standard extension.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence

from .rng import Stream


class TrafficPattern(Protocol):
    """Maps sources to destinations; may restrict which nodes inject."""

    def dest(self, src: int, rng: Stream) -> int:
        """Destination node for a packet injected at ``src``."""
        ...

    def sources(self) -> Optional[Sequence[int]]:
        """Injecting nodes, or None when every node injects."""
        ...


class _PatternBase:
    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 2:
            raise ValueError("patterns need at least two nodes")
        self.n_nodes = n_nodes

    def sources(self) -> Optional[Sequence[int]]:
        return None


class UniformRandom(_PatternBase):
    """Independent uniformly random destination per packet."""

    def dest(self, src: int, rng: Stream) -> int:
        dst = rng.integers(self.n_nodes - 1)
        return dst if dst < src else dst + 1  # uniform over nodes != src


class UniformHotspot(_PatternBase):
    """Uniform traffic restricted to a random subset of node pairs.

    A fraction of the nodes (10% by default) is selected once, each paired
    with a random partner; only those nodes inject and each sends to its
    fixed partner.
    """

    def __init__(
        self, n_nodes: int, fraction: float = 0.1, *, seed: int = 0
    ) -> None:
        super().__init__(n_nodes)
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        rng = Stream(seed)
        count = max(2, int(round(n_nodes * fraction)))
        self._sources = rng.choice(n_nodes, count)
        partners = list(self._sources)
        # Derange the chosen set so nobody talks to itself.
        rng.shuffle(partners)
        for i, (a, b) in enumerate(zip(self._sources, partners)):
            if a == b:
                j = (i + 1) % len(partners)
                partners[i], partners[j] = partners[j], partners[i]
        self._partner = dict(zip(self._sources, partners))

    def sources(self) -> Sequence[int]:
        return self._sources

    def dest(self, src: int, rng: Stream) -> int:
        try:
            return self._partner[src]
        except KeyError:
            raise ValueError(f"node {src} is not a hotspot participant") from None


class _BitPermutation(_PatternBase):
    """Base for deterministic bit-permutation patterns."""

    def __init__(self, n_nodes: int) -> None:
        super().__init__(n_nodes)
        self.bits = max(1, (n_nodes - 1).bit_length())

    def _permute(self, src: int) -> int:
        raise NotImplementedError

    def dest(self, src: int, rng: Stream) -> int:
        dst = self._permute(src) % self.n_nodes
        if dst == src:
            dst = (dst + 1) % self.n_nodes
        return dst


class BitShuffle(_BitPermutation):
    """d_i = s_(i-1 mod b): rotate the source index left by one bit."""

    def _permute(self, src: int) -> int:
        b = self.bits
        mask = (1 << b) - 1
        return ((src << 1) | (src >> (b - 1))) & mask


class BitComplement(_BitPermutation):
    """d_i = not s_i: invert every bit of the source index."""

    def _permute(self, src: int) -> int:
        return ~src & ((1 << self.bits) - 1)


class BitTranspose(_BitPermutation):
    """d_i = s_(i+b/2 mod b): rotate the source index by half its width."""

    def _permute(self, src: int) -> int:
        b = self.bits
        half = b // 2
        mask = (1 << b) - 1
        return ((src << half) | (src >> (b - half))) & mask


class BitReverse(_BitPermutation):
    """d_i = s_(b-i-1): mirror the bits of the source index."""

    def _permute(self, src: int) -> int:
        result = 0
        src_bits = src
        for _ in range(self.bits):
            result = (result << 1) | (src_bits & 1)
            src_bits >>= 1
        return result


class LocalUniform(_PatternBase):
    """Uniform traffic restricted to ``span x span`` node neighbourhoods.

    Used by the traffic-scale flexibility study (Fig 18): the global mesh
    is partitioned into ``span x span`` tiles and every packet's
    destination is drawn uniformly from the source's own tile.  Tiles are
    offset by half a span from the chiplet grid, so local neighbourhoods
    straddle chiplet boundaries and exercise the die-to-die interfaces the
    way real local traffic does.
    """

    def __init__(self, n_nodes: int, *, grid, span: int) -> None:
        super().__init__(n_nodes)
        if grid.n_nodes != n_nodes:
            raise ValueError("grid size does not match n_nodes")
        if span < 1:
            raise ValueError("span must be >= 1")
        self.grid = grid
        self.span = span
        offset = span // 2 if span < grid.width else 0
        self._offset = offset
        self._tiles: dict[tuple[int, int], list[int]] = {}
        for node in range(n_nodes):
            gx, gy = grid.coords(node)
            key = ((gx + offset) // span, (gy + offset) // span)
            self._tiles.setdefault(key, []).append(node)
        # Nodes in single-node border tiles (possible because of the
        # half-span offset) have no local partner and do not inject.
        self._sources = [
            node
            for nodes in self._tiles.values()
            if len(nodes) >= 2
            for node in nodes
        ]
        if not self._sources:
            raise ValueError(
                f"span {span} produces only single-node tiles on a "
                f"{grid.width}x{grid.height} grid"
            )
        self._sources.sort()

    def sources(self) -> Sequence[int]:
        return self._sources

    def dest(self, src: int, rng: Stream) -> int:
        gx, gy = self.grid.coords(src)
        key = ((gx + self._offset) // self.span, (gy + self._offset) // self.span)
        tile = self._tiles[key]
        if len(tile) < 2:
            raise ValueError(f"node {src} has no local communication partner")
        dst = tile[rng.integers(len(tile))]
        while dst == src:
            dst = tile[rng.integers(len(tile))]
        return dst


#: Pattern registry keyed by the names used in the paper's figures.
PATTERNS = {
    "uniform": UniformRandom,
    "hotspot": UniformHotspot,
    "shuffle": BitShuffle,
    "complement": BitComplement,
    "transpose": BitTranspose,
    "reverse": BitReverse,
    "local": LocalUniform,
}

#: The six patterns evaluated in Fig 11 / Fig 14, in figure order.
FIGURE_PATTERNS = (
    "uniform",
    "hotspot",
    "shuffle",
    "complement",
    "transpose",
    "reverse",
)


def make_pattern(name: str, n_nodes: int, **kwargs) -> TrafficPattern:
    """Build a traffic pattern by figure name (see :data:`PATTERNS`)."""
    try:
        cls = PATTERNS[name]
    except KeyError:
        raise ValueError(
            f"unknown pattern {name!r}; expected one of {sorted(PATTERNS)}"
        ) from None
    return cls(n_nodes, **kwargs)
