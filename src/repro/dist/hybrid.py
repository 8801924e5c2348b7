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
    _validated_partition,
    boundary_mask,
    detect_losers,
)
from repro.errors import ColoringError
from repro.graph.bipartite import BipartiteGraph
from repro.machine.cost import CostModel
from repro.machine.engine import QUEUE_NONE
from repro.types import UNCOLORED, PhaseKind

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
    """
    if threads_per_rank < 1:
        raise ColoringError(
            f"threads_per_rank must be >= 1, got {threads_per_rank}"
        )
    if batch < 1:
        raise ColoringError(f"batch must be >= 1, got {batch}")
    cluster = cluster if cluster is not None else ClusterModel(ranks)
    ranks = cluster.ranks
    cost = cost if cost is not None else CostModel()
    n = bg.num_vertices
    part = _validated_partition(partition, n, ranks)
    is_boundary = boundary_mask(bg, part)
    kernel = make_vertex_color_kernel(bg, FirstFit(), cost)
    plan = PhasePlan(
        phase=PhaseKind.COLOR, kind="vertex", chunk=1, queue_mode=QUEUE_NONE
    )

    colors = np.full(n, UNCOLORED, dtype=np.int64)
    pending = np.arange(n, dtype=np.int64)
    conflicts = 0
    while pending.size:
        batch_vs, rest = pending[:batch], pending[batch:]
        owners = part[batch_vs]
        compute = [0.0] * ranks
        words = [0] * ranks
        messages = [0] * ranks
        merged = colors.copy()
        for r in range(ranks):
            mine = batch_vs[owners == r]
            if mine.size == 0:
                continue
            engine = SimPhaseEngine(colors.copy(), threads_per_rank, cost)
            engine.run_phase(plan, mine.size, kernel, task_ids=mine)
            merged[mine] = engine.values[mine]
            compute[r] = engine.total_cycles
            words[r] = int(mine.size)
            messages[r] = 1
        colors = merged
        losers, _ = detect_losers(bg, batch_vs, colors)
        colors[losers] = UNCOLORED
        conflicts += len(losers)
        cluster.superstep(compute, words, messages)
        pending = np.concatenate([losers, rest])

    return DistributedResult(
        colors=colors,
        num_colors=int(colors.max()) + 1 if colors.size else 0,
        ranks=ranks,
        interior=int((~is_boundary).sum()),
        boundary=int(is_boundary.sum()),
        supersteps=cluster.num_supersteps,
        conflicts=conflicts,
        comm_words=cluster.total_words,
        comm_messages=cluster.total_messages,
        cycles=cluster.total_cycles,
    )
