"""Simulation layer: configuration (Table 2), engine, statistics, harness.

Every name resolves on first access (PEP 562), so ``repro.core`` modules
can depend on :mod:`repro.sim.config` without loading the engine, the
network builder or the experiment harness, and without an import cycle.
"""

from importlib import import_module

__all__ = [
    "DEFAULT_CONFIG",
    "DeadlockError",
    "Engine",
    "RunResult",
    "SimConfig",
    "Stats",
    "SweepPoint",
    "Workload",
    "build_network",
    "latency_rate_sweep",
    "run_synthetic",
    "run_trace",
    "saturation_rate",
]

#: Public name -> the submodule that defines it, imported on first access
#: (PEP 562; see ``repro/__init__.py``).
_LAZY = {
    **dict.fromkeys(("DEFAULT_CONFIG", "SimConfig"), "config"),
    **dict.fromkeys(("DeadlockError", "Stats"), "stats"),
    **dict.fromkeys(("Engine", "Workload"), "engine"),
    "build_network": "build",
    **dict.fromkeys(
        (
            "RunResult",
            "SweepPoint",
            "latency_rate_sweep",
            "run_synthetic",
            "run_trace",
            "saturation_rate",
        ),
        "experiment",
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
