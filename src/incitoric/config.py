"""Run configuration: explicit budgets for every potentially explosive
enumeration.

Budgets are hard limits; exceeding one raises BudgetExceeded rather than
silently truncating.  The defaults reproduce every acceptance criterion on
a laptop.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParameters


@dataclass(frozen=True)
class RunConfig:
    pair_queue_budget: int = 2_000_000
    fiber_budget: int = 200_000
    box_budget: int = 4_000_000
    volume_simplex_budget: int = 200_000
    derangement_max_n: int = 9
    # the benchmark worker builds RunConfig(workers=1); every run is
    # sequential, so 1 is the only value accepted
    workers: int = 1

    def __post_init__(self):
        for name in (
            "pair_queue_budget",
            "fiber_budget",
            "box_budget",
            "volume_simplex_budget",
            "derangement_max_n",
        ):
            if getattr(self, name) <= 0:
                raise BadParameters(f"{name} must be positive, not {getattr(self, name)}")
        if self.workers != 1:
            raise BadParameters("workers must be 1: every run is sequential")


DEFAULT_CONFIG = RunConfig()

