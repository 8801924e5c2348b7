"""Incremental recoloring for evolving graphs.

Production graphs change; recoloring from scratch throws away everything a
valid coloring already knows.  :func:`recolor_incremental` takes a valid
BGPC coloring, a :class:`~repro.graph.delta.GraphDelta` (edge insertions
and deletions), and re-runs the speculative color → remove loop **only on
the invalidated frontier** — the insertion endpoints plus every member of
every inserted-into net (the two-hop rule; see
:func:`repro.graph.delta.delta_frontier` for why that set is sufficient).
Deletions never invalidate a valid coloring, so a delete-only delta costs
zero kernel work.

The frontier run goes through :func:`~repro.core.driver.run_speculative`
like any other run: the engine is seeded with the surviving colors
(``initial_colors``) and the loop's first work queue is the frontier
(``initial_work``), so every non-frontier vertex keeps its color and every
frontier vertex is greedily re-colored against the full, updated two-hop
forbidden set.  Any schedule ``color_bgpc`` accepts works here, switch
segments and adaptive controllers included; a backend whose capability
record lacks ``resume`` (``numpy``, ``compiled``, ``sharded``) is
rejected by the driver.

Work accounting rides on the standard counters: the returned result's
``work_metrics`` cover only the frontier run, so comparing them against a
full recolor of the mutated graph quantifies the savings (the
``incremental`` bench experiment and the regress suite pin exactly that).

Determinism: under the deterministic backends (``sim``; ``process`` at
one worker) the incremental colors are a pure function of
(base graph, base colors, delta, schedule, threads) — golden-pinned in
``tests/test_incremental.py``.

Note on palettes: incremental runs may leave the palette *larger* than a
from-scratch recolor would produce (deletions can strand high colors, and
frontier vertices respect all surviving neighbors).  When palette size
matters more than latency, follow up with
:func:`repro.core.recolor.reduce_colors`, which compacts a valid coloring
in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.driver import run_speculative
from repro.core.plan import resolve_schedule
from repro.core.validate import validate_bgpc
from repro.errors import ColoringError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.delta import GraphDelta, apply_delta, delta_frontier
from repro.machine.cost import CostModel
from repro.obs.work import WORK_METRICS
from repro.types import ColoringResult, UNCOLORED

__all__ = ["IncrementalResult", "recolor_incremental"]


@dataclass(frozen=True)
class IncrementalResult:
    """Outcome of one incremental recoloring epoch.

    Attributes
    ----------
    result:
        The frontier run's :class:`~repro.types.ColoringResult` — valid on
        the mutated graph; its ``work_metrics`` cover only the frontier.
    graph:
        The mutated :class:`~repro.graph.bipartite.BipartiteGraph`
        (``apply_delta(bg, delta)``) — feed it, with :attr:`colors`, into
        the next epoch.
    frontier:
        Sorted vertex ids that were reset and re-colored.
    num_insertions / num_deletions:
        Canonical delta sizes (after deduplication).
    """

    result: ColoringResult
    graph: BipartiteGraph
    frontier: np.ndarray
    num_insertions: int
    num_deletions: int

    @property
    def colors(self) -> np.ndarray:
        return self.result.colors

    @property
    def num_colors(self) -> int:
        return self.result.num_colors

    @property
    def frontier_size(self) -> int:
        return int(self.frontier.size)

    @property
    def work_metrics(self) -> dict:
        return self.result.work_metrics


def _zero_work_result(
    colors: np.ndarray, name: str, threads: int, backend: str
) -> ColoringResult:
    return ColoringResult(
        colors=colors,
        num_colors=int(colors.max()) + 1 if colors.size else 0,
        iterations=[],
        algorithm=name,
        threads=threads,
        cycles=0.0,
        backend=backend,
        wall_seconds=0.0,
        work_metrics={metric: 0 for metric in WORK_METRICS},
    )


def recolor_incremental(
    bg: BipartiteGraph,
    colors: np.ndarray,
    delta: GraphDelta,
    *,
    algorithm: str = "V-V",
    threads: int = 1,
    backend: str = "sim",
    cost: CostModel | None = None,
    policy=None,
    max_iterations: int = 200,
    tracer=None,
    validate: bool = True,
    mutated: BipartiteGraph | None = None,
) -> IncrementalResult:
    """Re-color only the frontier that ``delta`` invalidates in ``bg``.

    Parameters
    ----------
    bg:
        The base graph ``colors`` is valid on.
    colors:
        A valid coloring of ``bg`` (validated unless ``validate=False``;
        never mutated).
    delta:
        The change set.  Inserted edges may grow either side; ids stay
        stable, so ``colors`` indexes the mutated graph's vertices too
        (new vertices start uncolored).
    algorithm:
        Schedule for the frontier run (default ``"V-V"``).  Vertex-based
        phases cost work proportional to the *frontier*; net-based phases
        sweep every net each round regardless of the queue, forfeiting the
        savings — prefer ``V-*`` schedules here.
    threads / backend / cost / policy / max_iterations / tracer:
        As in :func:`repro.core.bgpc.color_bgpc`; backends that cannot
        resume a partial coloring (e.g. ``"numpy"``) are rejected.
    validate:
        Skip the base-coloring validation (one sort of every net
        membership) when the caller already guarantees it (the service
        trusts its own cache).  The *result* is always validated against
        the whole mutated graph.
    mutated:
        Pass ``apply_delta(bg, delta)`` if already materialized (the
        service builds it for re-fingerprinting) to avoid applying the
        delta twice.

    Returns
    -------
    IncrementalResult
        Valid coloring of the mutated graph, the mutated graph itself, the
        frontier, and frontier-only work metrics.
    """
    colors = np.asarray(colors, dtype=np.int64)
    if colors.shape != (bg.num_vertices,):
        raise ColoringError(
            f"colors must have shape ({bg.num_vertices},), got {colors.shape}"
        )
    if validate:
        validate_bgpc(bg, colors)
    if mutated is None:
        mutated = apply_delta(bg, delta)
    frontier = delta_frontier(mutated, delta)

    schedule = resolve_schedule(algorithm, problem="BGPC")
    cost = cost if cost is not None else CostModel()

    initial = np.full(mutated.num_vertices, UNCOLORED, dtype=np.int64)
    initial[: colors.size] = colors
    if frontier.size:
        initial[frontier] = UNCOLORED
        from repro.core.bgpc.runner import BGPCAdapter

        result = run_speculative(
            BGPCAdapter(mutated, cost),
            schedule,
            threads=threads,
            cost=cost,
            policy=policy,
            max_iterations=max_iterations,
            backend=backend,
            tracer=tracer,
            initial_colors=initial,
            initial_work=frontier,
        )
    else:
        # Deletions only removed constraints: the old colors are already
        # valid on the mutated graph, at zero kernel work.
        result = _zero_work_result(initial, schedule.name, threads, backend)

    validate_bgpc(mutated, result.colors)
    return IncrementalResult(
        result=result,
        graph=mutated,
        frontier=frontier,
        num_insertions=delta.num_insertions,
        num_deletions=delta.num_deletions,
    )
