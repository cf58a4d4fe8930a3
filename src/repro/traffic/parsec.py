"""Synthetic PARSEC-like trace generation (Netrace substitute).

The paper replays Netrace traces: packets collected from a 64-core
multiprocessor running PARSEC under Linux, with exactly two packet sizes —
8-byte control/request packets (1 flit) and 72-byte cache-line packets
(9 flits) [15, 33].  The original trace files are not redistributable, so
this module generates traces with the same structure:

* request/reply cache traffic between cores and address-interleaved
  directory/L2 homes (read request 1 flit -> data reply 9 flits; write
  back 9 flits -> ack 1 flit),
* per-application injection rate, spatial locality and burstiness
  profiles (two-state Markov on/off process),
* deterministic generation from a seed.

What the figures depend on — packet-size mix, locality, burstiness and
relative load between applications — is reproduced; absolute latencies
will differ from Netrace but network *rankings* (Fig 12) are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from repro.topology.grid import ChipletGrid
from .rng import Stream
from .trace import Trace

#: Flit counts of the two Netrace packet sizes (8 B and 72 B at 8 B/flit).
CONTROL_FLITS = 1
DATA_FLITS = 9


@dataclass(frozen=True)
class AppProfile:
    """Traffic profile of one PARSEC application.

    ``request_rate`` is the average read/write transaction initiation rate
    per core per cycle while the core is in a burst; ``duty`` is the
    fraction of time spent bursting; ``locality`` the probability that the
    addressed home node lies within ``radius`` hops of the core;
    ``read_fraction`` the share of transactions that are reads.
    """

    name: str
    request_rate: float
    duty: float
    locality: float
    read_fraction: float
    radius: int = 2
    burst_length: float = 200.0  # mean cycles per ON period
    service_delay: int = 24  # cycles between request and reply injection


#: The nine PARSEC applications evaluated in Fig 12.  Rates follow the
#: relative intensities reported for Netrace (canneal/x264 heavy,
#: blackscholes/swaptions light).
PARSEC_PROFILES = {
    "blackscholes": AppProfile("blackscholes", 0.004, 0.5, 0.20, 0.80),
    "bodytrack": AppProfile("bodytrack", 0.012, 0.6, 0.15, 0.75),
    "canneal": AppProfile("canneal", 0.030, 0.7, 0.05, 0.65),
    "dedup": AppProfile("dedup", 0.016, 0.6, 0.10, 0.60),
    "ferret": AppProfile("ferret", 0.020, 0.6, 0.10, 0.70),
    "fluidanimate": AppProfile("fluidanimate", 0.014, 0.5, 0.25, 0.70),
    "swaptions": AppProfile("swaptions", 0.006, 0.5, 0.15, 0.85),
    "vips": AppProfile("vips", 0.014, 0.6, 0.12, 0.70),
    "x264": AppProfile("x264", 0.022, 0.8, 0.12, 0.65),
}


def generate_parsec_trace(
    app: str,
    grid: ChipletGrid,
    duration: int,
    *,
    seed: int = 7,
) -> Trace:
    """Generate a Netrace-like trace for one application on a system.

    Cores occupy every node of the grid (the paper evaluates 64-node
    systems for the 64-core traces).  Homes are address-interleaved across
    all nodes; coherence traffic is order-sensitive, so all packets are
    marked ``ordered`` with ``msg_class="coherence"`` for requests and
    ``"data"`` for replies.
    """
    try:
        profile = PARSEC_PROFILES[app]
    except KeyError:
        raise ValueError(
            f"unknown PARSEC app {app!r}; expected one of {sorted(PARSEC_PROFILES)}"
        ) from None
    if duration < 1:
        raise ValueError("duration must be >= 1")
    rng = Stream(seed)
    random = rng.random
    n = grid.n_nodes
    transactions: list[tuple[int, int, int, bool]] = []  # (cycle, core, home, is_read)
    # Two-state Markov burst process per core.
    on = [random() < profile.duty for _ in range(n)]
    p_exit_on = 1.0 / profile.burst_length
    off_length = profile.burst_length * (1.0 - profile.duty) / max(profile.duty, 1e-9)
    p_exit_off = 1.0 / max(off_length, 1.0)
    coords = [grid.coords(node) for node in range(n)]
    for cycle in range(duration):
        flips = [random() for _ in range(n)]
        on = [flip >= p_exit_on if was_on else flip < p_exit_off for was_on, flip in zip(on, flips)]
        # One draw per active core, in core order, before any home is picked.
        fire = [core for core in compress(range(n), on) if random() < profile.request_rate]
        for src in fire:
            home = _pick_home(src, coords, grid, profile, rng)
            if home == src:
                continue  # local access, no network traffic
            transactions.append((cycle, src, home, random() < profile.read_fraction))
    cycle, core, home, is_read = zip(*transactions) if transactions else ((),) * 4
    # A read is a control request answered by a cache line; a write-back is
    # a cache line answered by a control ack.
    control = is_read + tuple(not read for read in is_read)
    return Trace.from_columns(
        cycle + tuple(c + profile.service_delay for c in cycle),
        core + home,
        home + core,
        [CONTROL_FLITS if c else DATA_FLITS for c in control],
        ["coherence" if c else "data" for c in control],
        name=f"parsec-{app}",
    )


def _pick_home(
    src: int,
    coords: list[tuple[int, int]],
    grid: ChipletGrid,
    profile: AppProfile,
    rng: Stream,
) -> int:
    if rng.random() < profile.locality:
        sx, sy = coords[src]
        span = 2 * profile.radius + 1
        dx = rng.integers(span) - profile.radius
        dy = rng.integers(span) - profile.radius
        gx = min(max(sx + dx, 0), grid.width - 1)
        gy = min(max(sy + dy, 0), grid.height - 1)
        return grid.node_at(gx, gy)
    return rng.integers(grid.n_nodes)
