"""Chiplet grids and multi-chiplet system builders."""

from repro import _lazy_exports

#: Submodule -> the public names it contributes, imported on first access.
_EXPORTS = {
    "grid": ("DIRECTIONS", "OPPOSITE", "ChipletGrid"),
    "multipackage": ("build_hetero_channel_packages", "package_of"),
    "system": ("FAMILIES", "SystemSpec", "build_system"),
}
__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
