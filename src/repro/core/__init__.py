"""The paper's contribution: heterogeneous die-to-die interfaces.

Interface technology records (Table 1), the hetero-PHY link with its
TX dispatch pipeline and RX reorder buffer (Sec 4.2, Eq 1), the dispatch
scheduling policies (Sec 5.3), the bandwidth-latency V-t model (Sec 5.1,
Eq 2) and the weighted path-length model (Sec 5.2, Eq 3/4).
"""

from importlib import import_module

__all__ = [
    "AIB",
    "BOW",
    "SERDES",
    "TABLE1",
    "ApplicationAwarePolicy",
    "BalancedPolicy",
    "DispatchPolicy",
    "EnergyEfficientPolicy",
    "PassiveApplicationAwarePolicy",
    "HeteroPhyLink",
    "HeteroVTCurve",
    "HopCostModel",
    "InterfaceSpec",
    "PerformanceFirstPolicy",
    "ReorderBuffer",
    "RobOverflowError",
    "VTCurve",
    "hetero_curve",
    "hetero_phy_link_factory",
    "lookup",
    "pin_constrained_hetero",
    "rob_capacity",
]

#: Public name -> the submodule that defines it, imported on first access
#: (PEP 562; see ``repro/__init__.py``).
_LAZY = {
    **dict.fromkeys(("AIB", "BOW", "SERDES", "TABLE1", "InterfaceSpec", "lookup"), "interfaces"),
    **dict.fromkeys(("HeteroPhyLink", "hetero_phy_link_factory"), "phy"),
    **dict.fromkeys(("ReorderBuffer", "RobOverflowError", "rob_capacity"), "rob"),
    **dict.fromkeys(
        (
            "ApplicationAwarePolicy",
            "BalancedPolicy",
            "DispatchPolicy",
            "EnergyEfficientPolicy",
            "PassiveApplicationAwarePolicy",
            "PerformanceFirstPolicy",
        ),
        "scheduling",
    ),
    **dict.fromkeys(
        ("HeteroVTCurve", "VTCurve", "hetero_curve", "pin_constrained_hetero"), "vt_model"
    ),
    "HopCostModel": "weighted_path",
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
