"""Run configuration: explicit budgets for every potentially explosive
enumeration, plus a deterministic fork-join helper.

Budgets are hard limits; exceeding one raises BudgetExceeded rather than
silently truncating.  The defaults reproduce every acceptance criterion on
a laptop.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass


@dataclass(frozen=True)
class RunConfig:
    pair_queue_budget: int = 2_000_000
    fiber_budget: int = 200_000
    box_budget: int = 4_000_000
    volume_simplex_budget: int = 200_000
    derangement_max_n: int = 8
    rank_report_max_n: int = 8
    workers: int = 1

    def __post_init__(self):
        for name in (
            "pair_queue_budget",
            "fiber_budget",
            "box_budget",
            "volume_simplex_budget",
            "derangement_max_n",
            "rank_report_max_n",
            "workers",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


DEFAULT_CONFIG = RunConfig()


def parallel_map(fn, items, workers: int = 1, chunk: int = 64):
    """Map ``fn`` over ``items`` with results merged in input order.

    With ``workers <= 1`` this is a plain sequential map.  Otherwise the
    items are split into fixed chunks handed to a process pool; chunk
    results are concatenated in chunk order, so output is independent of
    scheduling.  ``fn`` must be a picklable pure function.
    """
    items = list(items)
    if workers <= 1 or len(items) <= chunk:
        return [fn(x) for x in items]
    chunks = [items[i : i + chunk] for i in range(0, len(items), chunk)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_apply_chunk, [(fn, c) for c in chunks]))
    out = []
    for part in parts:
        out.extend(part)
    return out


def _apply_chunk(arg):
    fn, chunk = arg
    return [fn(x) for x in chunk]
