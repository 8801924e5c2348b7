"""Hybrid MPI+multicore BGPC: ranks of simulated multicore engines.

:func:`hybrid_bgpc` layers the distributed superstep framework of
:mod:`repro.dist.superstep` on top of the simulator: each rank colors its
share of every batch on its *own*
:class:`~repro.core.backends.SimPhaseEngine`, so two conflict sources
coexist — intra-rank thread races inside an engine and cross-rank
speculation between engines — and one resolver absorbs both, smaller
vertex id winning.  Engines are built per batch, which is why the harness
stays on the simulator: a ``process`` engine would pay pool and
shared-segment setup every batch.
"""

from __future__ import annotations

import numpy as np

from repro.core.backends import SimPhaseEngine
from repro.core.bgpc.vertex import make_vertex_color_kernel
from repro.core.plan import PhasePlan
from repro.core.policies import FirstFit
from repro.dist.mpi import ClusterModel
from repro.dist.superstep import (
    DistributedResult,
    _result,
    _setup,
    _totals,
    run_supersteps,
)
from repro.errors import ColoringError
from repro.graph.bipartite import BipartiteGraph
from repro.machine.cost import CostModel
from repro.machine.engine import QUEUE_NONE
from repro.types import PhaseKind

__all__ = ["hybrid_bgpc"]


def hybrid_bgpc(
    bg: BipartiteGraph,
    ranks: int = 2,
    threads_per_rank: int = 4,
    batch: int = 100,
    partition: np.ndarray | None = None,
    cost: CostModel | None = None,
    cluster: ClusterModel | None = None,
) -> DistributedResult:
    """Color ``bg`` on ``ranks`` modeled nodes of ``threads_per_rank`` cores.

    Every batch is a superstep: each rank runs one coloring phase over its
    share on a fresh engine seeded with the committed snapshot, the picks
    are merged, and conflicting vertices (intra-rank races *and* cross-rank
    speculation) are reset and re-queued.  Deterministic: races are the
    simulator's.

    *Every* vertex goes through the supersteps, interior ones included:
    a rank's threads race, so its interior picks need the resolver too.
    The result's ``interior`` / ``boundary`` fields are therefore partition
    statistics only — an edgeless graph reports every vertex interior yet
    still takes supersteps and exchanges one word per vertex.
    """
    if threads_per_rank < 1:
        raise ColoringError(
            f"threads_per_rank must be >= 1, got {threads_per_rank}"
        )
    cluster, part, is_boundary, colors = _setup(bg, ranks, batch, partition, cluster)
    cost = cost if cost is not None else CostModel()
    kernel = make_vertex_color_kernel(bg, FirstFit(), cost)
    plan = PhasePlan(
        phase=PhaseKind.COLOR, kind="vertex", chunk=1, queue_mode=QUEUE_NONE
    )

    def color_slices(slices):
        picks, compute = [], [0.0] * len(slices)
        for r, mine in enumerate(slices):
            if mine.size:
                engine = SimPhaseEngine(colors.copy(), threads_per_rank, cost)
                engine.run_phase(plan, mine.size, kernel, task_ids=mine)
                picks.append((mine, engine.values[mine]))
                compute[r] = engine.total_cycles
        words = [int(mine.size) for mine in slices]
        return picks, compute, words, [int(w > 0) for w in words]

    pending = np.arange(bg.num_vertices, dtype=np.int64)
    start = _totals(cluster)
    steps = run_supersteps(bg, part, cluster, colors, pending, batch, color_slices)
    conflicts = sum(len(losers) for _, losers, _ in steps)
    return _result(colors, cluster, start, is_boundary, conflicts, 0.0)
