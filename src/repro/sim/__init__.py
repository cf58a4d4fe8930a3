"""Simulation layer: configuration (Table 2), engine, statistics, harness.

Every name resolves on first access (PEP 562), so ``repro.core`` modules
can depend on :mod:`repro.sim.config` without loading the engine, the
network builder or the experiment harness, and without an import cycle.
"""

from repro import _lazy_exports

#: Submodule -> the public names it contributes, imported on first access.
_EXPORTS = {
    "config": ("DEFAULT_CONFIG", "SimConfig"),
    "stats": ("DeadlockError", "Stats"),
    "engine": ("Engine", "Workload"),
    "build": ("build_network",),
    "experiment": (
        "RunResult", "SweepPoint", "latency_rate_sweep", "run_synthetic", "run_trace",
        "saturation_rate",
    ),
}
__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
