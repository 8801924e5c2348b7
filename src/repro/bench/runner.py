"""Shared experiment plumbing: cached coloring runs and geometric means.

Several experiments need the same ``(dataset, algorithm, threads, order,
policy)`` run — Table III, Table IV and Figure 2 all consume the Figure 2
matrix — so results are memoized per process.  The sim and numpy backends
are deterministic, so caching never changes their results; multi-worker
process runs are pinned to their first outcome within a process.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.core.bgpc import color_bgpc, sequential_bgpc
from repro.core.d2gc import color_d2gc, sequential_d2gc
from repro.core.policies import get_policy
from repro.datasets.registry import load_d2gc_dataset, load_dataset
from repro.order import get_ordering
from repro.types import ColoringResult

__all__ = [
    "geomean",
    "iteration_report",
    "run_algorithm",
    "run_sequential_baseline",
    "clear_cache",
    "PAPER_THREADS",
]

#: Thread counts of the paper's sweeps.
PAPER_THREADS = (2, 4, 8, 16)

_cache: dict[tuple, ColoringResult] = {}


def clear_cache() -> None:
    """Drop all memoized runs, orderings and instances (mainly for tests)."""
    _cache.clear()
    _order_cache.clear()
    _instance_cache.clear()


def iteration_report(result: ColoringResult, label: str = "") -> list[tuple]:
    """Per-iteration breakdown rows of a run, for experiment tables.

    Delegates to :func:`repro.obs.iteration_breakdown` and prefixes every
    row with ``label`` (e.g. ``"N1-N2/sim"``), so experiments can stack the
    per-iteration columns of several runs in one table.  The returned rows
    include the breakdown's ``total`` (and, for NumPy runs, ``setup``)
    summary rows, whose cost column sums exactly to the run's end-to-end
    ``cycles`` / ``wall_seconds``.
    """
    from repro.obs import iteration_breakdown

    _, rows = iteration_breakdown(result)
    return [(label, *row) for row in rows] if label else rows


def geomean(values: Iterable[float]) -> float:
    """Geometric mean, matching the paper's aggregation across matrices."""
    values = list(values)
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


_order_cache: dict[tuple, np.ndarray] = {}


def _order_for(problem: str, dataset: str, scale: str, ordering: str) -> np.ndarray | None:
    """Ordering permutation for an instance, memoized.

    Smallest-last materializes the conflict graph, which is far more
    expensive than a single coloring run — without memoization Table IV
    would recompute it once per (algorithm, thread-count) pair.
    """
    if ordering == "natural":
        return None
    key = (problem, dataset, scale, ordering)
    if key not in _order_cache:
        if problem == "bgpc":
            instance = load_dataset(dataset, scale)
        else:
            instance = load_d2gc_dataset(dataset, scale)
        _order_cache[key] = get_ordering(ordering)(instance)
    return _order_cache[key]


_instance_cache: dict[tuple, object] = {}


def _instance_for(problem: str, dataset: str, scale: str, ordering: str):
    """The (pre-permuted) instance for a run, memoized.

    Applying an ordering permutes the graph and invalidates its flattened
    two-hop cache; doing that once per (dataset, ordering) instead of once
    per run keeps the Table IV sweep tractable.  The returned colors are
    then indexed by *permuted* ids, which is fine for the harness: it only
    consumes cycle counts and palette sizes.
    """
    key = (problem, dataset, scale, ordering)
    if key not in _instance_cache:
        base = (
            load_dataset(dataset, scale)
            if problem == "bgpc"
            else load_d2gc_dataset(dataset, scale)
        )
        order = _order_for(problem, dataset, scale, ordering)
        if order is None:
            _instance_cache[key] = base
        elif problem == "bgpc":
            _instance_cache[key] = base.permute_vertices(order)
        else:
            _instance_cache[key] = base.permute(order)
    return _instance_cache[key]


def run_sequential_baseline(
    dataset: str,
    scale: str = "small",
    problem: str = "bgpc",
    ordering: str = "natural",
) -> ColoringResult:
    """Sequential greedy baseline (memoized)."""
    key = ("seq", problem, dataset, scale, ordering)
    if key not in _cache:
        instance = _instance_for(problem, dataset, scale, ordering)
        if problem == "bgpc":
            result = sequential_bgpc(instance)
        else:
            result = sequential_d2gc(instance)
        _cache[key] = result
    return _cache[key]


def run_algorithm(
    dataset: str,
    algorithm: str,
    threads: int,
    scale: str = "small",
    problem: str = "bgpc",
    ordering: str = "natural",
    policy_name: str = "U",
    backend: str = "sim",
    fastpath_mode: str = "exact",
) -> ColoringResult:
    """One parallel coloring run (memoized).

    ``backend`` accepts any name from the execution-backend registry
    (:func:`repro.core.backends.backend_names`): ``"numpy"`` runs the
    vectorized fast path and ``"process"`` runs a worker-process pool;
    both carry wall seconds rather than cycles, so the cycle-based
    experiment tables should keep the default ``"sim"``.  Multi-worker
    process runs are nondeterministic across processes; memoization
    within a process still returns one stable result per key.
    """
    key = (
        "par",
        problem,
        dataset,
        scale,
        algorithm,
        threads,
        ordering,
        policy_name,
        backend,
        fastpath_mode,
    )
    if key not in _cache:
        instance = _instance_for(problem, dataset, scale, ordering)
        policy = None if policy_name == "U" else get_policy(policy_name)
        if problem == "bgpc":
            result = color_bgpc(
                instance,
                algorithm=algorithm,
                threads=threads,
                policy=policy,
                backend=backend,
                fastpath_mode=fastpath_mode,
            )
        else:
            result = color_d2gc(
                instance,
                algorithm=algorithm,
                threads=threads,
                policy=policy,
                backend=backend,
                fastpath_mode=fastpath_mode,
            )
        _cache[key] = result
    return _cache[key]
