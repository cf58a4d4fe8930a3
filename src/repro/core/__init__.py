"""The paper's contribution: heterogeneous die-to-die interfaces.

Interface technology records (Table 1), the hetero-PHY link with its
TX dispatch pipeline and RX reorder buffer (Sec 4.2, Eq 1), the dispatch
scheduling policies (Sec 5.3), the bandwidth-latency V-t model (Sec 5.1,
Eq 2) and the weighted path-length model (Sec 5.2, Eq 3/4).
"""

from repro import _lazy_exports

#: Submodule -> the public names it contributes, imported on first access.
_EXPORTS = {
    "interfaces": ("AIB", "BOW", "SERDES", "TABLE1", "InterfaceSpec", "lookup"),
    "phy": ("HeteroPhyLink", "hetero_phy_link_factory"),
    "rob": ("ReorderBuffer", "RobOverflowError", "rob_capacity"),
    "scheduling": (
        "ApplicationAwarePolicy", "BalancedPolicy", "DispatchPolicy", "EnergyEfficientPolicy",
        "PassiveApplicationAwarePolicy", "PerformanceFirstPolicy",
    ),
    "vt_model": ("HeteroVTCurve", "VTCurve", "hetero_curve", "pin_constrained_hetero"),
    "weighted_path": ("HopCostModel",),
}
__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
