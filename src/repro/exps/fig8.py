"""Fig 8: V-t curve comparison of interface architectures.

(a) Standard parallel, serial and compromised interfaces against the
hetero-PHY fold (sum of parallel + serial curves): the hetero curve
matches the parallel interface's low t-intercept and overtakes every
uniform interface in delivered volume.

(b) Pin-constrained comparison: with the total I/O pin count fixed, the
hetero-PHY interface adjusts its lane/channel ratio; the half/half split
is the paper's halved configuration.

Bandwidths/delays follow Table 2 (parallel 2 flits/cy @ 5 cy, serial
4 flits/cy @ 20 cy); the compromised interface is modelled BoW-like
between the two (3 flits/cy @ 10 cy).
"""

from __future__ import annotations

from repro.core.vt_model import VTCurve, hetero_curve, pin_constrained_hetero
from .common import ExperimentResult

#: Table-2-aligned curve parameters.
PARALLEL = VTCurve(bandwidth=2, delay=5, name="parallel")
SERIAL = VTCurve(bandwidth=4, delay=20, name="serial")
COMPROMISED = VTCurve(bandwidth=3, delay=10, name="compromised")


def run(scale: str = "small") -> ExperimentResult:
    """Sample all Fig 8 curves on a common time grid."""
    del scale  # analytic - scale-independent
    hetero = hetero_curve(PARALLEL, SERIAL)
    half = pin_constrained_hetero(PARALLEL, SERIAL, parallel_pin_share=0.5)
    result = ExperimentResult(
        name="fig8",
        title="V-t curves: data volume delivered vs time (Eq 2)",
        headers=("t_cycles", "parallel", "serial", "compromised", "hetero", "hetero_half_pins"),
    )
    for t in (step * 2.5 for step in range(25)):  # 0 to 60 cycles
        result.add(
            t,
            PARALLEL.volume(t),
            SERIAL.volume(t),
            COMPROMISED.volume(t),
            hetero.volume(t),
            half.volume(t),
        )
    v = 64.0  # one 16-flit packet at 4 bytes... illustrative volume
    result.notes.append(
        "time to deliver 64 flits: "
        f"parallel {PARALLEL.time_to_deliver(v):.1f}, "
        f"serial {SERIAL.time_to_deliver(v):.1f}, "
        f"compromised {COMPROMISED.time_to_deliver(v):.1f}, "
        f"hetero {hetero.time_to_deliver(v):.1f} cycles"
    )
    return result
