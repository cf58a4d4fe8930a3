"""Per-figure experiment modules.

Each module exposes ``run(scale) -> ExperimentResult`` regenerating the
numeric series behind one table or figure of the paper's evaluation.
``EXPERIMENTS`` maps experiment ids to their runners (used by the CLI and
the benchmark harness).  A runner imports its module on first call, so
``repro run fig11`` loads no other figure's module.
"""

from importlib import import_module
from typing import Callable

from .common import ExperimentResult, current_scale


def _runner(module: str) -> Callable[[str], ExperimentResult]:
    def run(scale: str) -> ExperimentResult:
        return import_module(f"{__name__}.{module}").run(scale)

    return run


EXPERIMENTS = {
    module: _runner(module)
    for module in (
        "table1",
        "fig8",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "table3",
        "table4",
        "fig16",
        "fig17",
        "fig18",
    )
}

__all__ = ["EXPERIMENTS", "ExperimentResult", "current_scale"]
