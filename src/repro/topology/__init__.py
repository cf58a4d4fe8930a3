"""Chiplet grids and multi-chiplet system builders."""

from importlib import import_module

__all__ = [
    "ChipletGrid",
    "DIRECTIONS",
    "FAMILIES",
    "OPPOSITE",
    "SystemSpec",
    "build_hetero_channel_packages",
    "build_system",
    "package_of",
]

#: Public name -> the submodule that defines it, imported on first access
#: (PEP 562; see ``repro/__init__.py``).
_LAZY = {
    **dict.fromkeys(("DIRECTIONS", "OPPOSITE", "ChipletGrid"), "grid"),
    **dict.fromkeys(("build_hetero_channel_packages", "package_of"), "multipackage"),
    **dict.fromkeys(("FAMILIES", "SystemSpec", "build_system"), "system"),
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
