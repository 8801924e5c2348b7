"""``backend="sharded"``: really-executing partitioned coloring.

Where :func:`repro.dist.distributed_bgpc` *models* a cluster (its
communication is charged to :class:`~repro.dist.mpi.ClusterModel` and every
"rank" runs in the parent process), this backend executes the same
interior/boundary superstep protocol on a persistent pool of worker
processes — the shared-memory substrate PR 4 built for ``backend="process"``
(:class:`~repro.core.backends.ProcessPhaseEngine` +
:mod:`repro.core.procworker`):

1. **Partition.**  ``V_A`` is split across ``threads`` shards by a named
   partitioner from the :data:`repro.dist.partition.PARTITIONERS` registry
   (``partitioner="bfs"`` by default).  The partition is computed on the
   adapter's generic constraint-group view
   (:meth:`~repro.core.driver.ProblemAdapter.fastpath_groups`), so BGPC and
   D2GC shard through the same code.
2. **Interior.**  Vertices whose constraint groups stay within one shard
   are colored per-shard with zero cross-talk: one
   :func:`~repro.core.procworker.run_chunk` slice per shard, writing
   straight into the shared color segment.  Interior vertices of different
   shards never share a group (a shared group makes both *boundary*), so
   the phase is deterministic at any shard count.
3. **Boundary supersteps.**  The remaining vertices are resolved in
   batched bulk-synchronous rounds: each shard colors its slice of the
   batch against a private snapshot of the committed palette
   (:func:`~repro.core.procworker.run_frontier`) and ships its picks back
   as packed ``(ids, colors)`` int64 arrays — the *actual* frontier
   exchange, counted into ``shard.comm_words`` / ``shard.comm_messages``
   instead of a model charge.  The parent commits the exchange, detects
   cross-shard conflicts (smaller vertex id wins, exactly the oracle's
   rule) and re-queues the losers.

Given the same partition and batch size the colors, superstep count and
conflict count are **equal** to :func:`repro.dist.distributed_bgpc` — the
simulator stays the reference oracle and a parity test enforces it.  With
one shard every vertex is interior and the run is byte-identical to
``backend="process"`` at one worker.

Determinism contract: partitioners are deterministic per
``(graph, ranks, seed)``; interior shards touch disjoint color entries;
supersteps commit only at barriers.  Unlike ``process`` at >1 worker,
results are therefore deterministic at *any* shard count, which is why
multi-shard cases can sit in the pinned regress suite.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.backends import Capabilities, RunRecorder
from repro.errors import ColoringError
from repro.types import ColoringResult, UNCOLORED

__all__ = ["ShardedBackend"]


class ShardedBackend:
    """Partitioned superstep coloring on a worker-process pool.

    ``threads`` is the shard count (one worker process per shard).  Extra
    options beyond the common backend signature:

    ``partitioner``
        Name from :data:`repro.dist.partition.PARTITIONERS`
        (default ``"bfs"``).
    ``batch``
        Boundary vertices colored per superstep (default 100, >= 1).
    ``seed``
        Seed forwarded to the partitioner (default 0).

    Its capability record is empty: first-fit only, and no resume from
    ``initial_colors``/``initial_work`` (its interior/boundary split
    assumes a fresh palette).  The schedule's kernel plan is ignored — the
    superstep protocol *is* the schedule — but the spec name is kept for
    reporting.  ``REPRO_PROCESS_FAULT`` fault injection applies to the
    pool workers just as for ``backend="process"``.
    """

    name = "sharded"
    capabilities = Capabilities()

    def run(
        self,
        adapter,
        schedule,
        *,
        name,
        threads,
        cost=None,
        policy=None,
        max_iterations=200,
        fastpath_mode="exact",  # accepted for signature uniformity; unused
        tracer=None,
        initial_colors=None,
        initial_work=None,
        partitioner="bfs",
        batch=100,
        seed=0,
    ) -> ColoringResult:
        from concurrent.futures.process import BrokenProcessPool

        from repro.core import procworker
        from repro.core.backends import ProcessPhaseEngine
        from repro.dist.partition import get_partitioner
        from repro.dist.superstep import boundary_mask, detect_losers
        from repro.graph.bipartite import BipartiteGraph
        from repro.obs.tracer import ensure_tracer
        from repro.obs.work import WorkCounters

        if not hasattr(adapter, "process_spec"):
            raise ColoringError(
                "backend='sharded' needs an adapter with process_spec() "
                f"(shared-memory layout); {type(adapter).__name__} has none"
            )
        if threads < 1:
            raise ColoringError(
                f"sharded backend needs threads (shards) >= 1, got {threads}"
            )
        if batch < 1:
            raise ColoringError(f"batch must be >= 1, got {batch}")
        try:
            partition_fn = get_partitioner(partitioner)
        except ValueError as exc:
            raise ColoringError(str(exc)) from None
        try:
            fault = procworker.parse_fault(os.environ.get("REPRO_PROCESS_FAULT"))
        except ValueError as exc:
            raise ColoringError(str(exc)) from None
        tracer = ensure_tracer(tracer)

        # The generic constraint-group view: nets x vertices for BGPC,
        # closed neighborhoods x vertices for D2GC.  Both partitioning and
        # boundary detection run on it, so any adapter with fastpath_groups
        # + process_spec shards identically.
        gview = BipartiteGraph.from_net_to_vtxs(adapter.fastpath_groups())
        part = partition_fn(gview, threads, seed=seed)
        is_boundary = boundary_mask(gview, part)
        n = adapter.n_targets
        owners_of = [
            np.nonzero((part == r) & ~is_boundary)[0].astype(np.int64)
            for r in range(threads)
        ]

        comm_words = comm_messages = conflicts_total = supersteps = 0
        # Constructed before the pool so the run's wall time includes its setup.
        rec = RunRecorder(
            tracer, name, self.name, threads=threads, partitioner=partitioner
        )

        engine = ProcessPhaseEngine(
            adapter, threads, cost=cost, tracer=tracer, policy=policy, fault=fault
        )
        try:
            with rec:
                # ---- interior phase: one slice per shard, no cross-talk --
                interior_work = WorkCounters()
                with tracer.span(
                    "phase", iteration=0, phase="color", kind="interior"
                ) as phase_span:
                    iter_start = time.perf_counter()
                    ranges = []
                    lo = 0
                    for ids in owners_of:
                        if ids.size:
                            engine.work[lo : lo + ids.size] = ids
                            ranges.append(("color:vertex", lo, lo + ids.size, True))
                            lo += ids.size
                    try:
                        for _pid, _done, _appends, chunk_work in engine.pool.map(
                            procworker.run_chunk, ranges
                        ):
                            interior_work.merge(chunk_work)
                    except BrokenProcessPool as exc:
                        raise ColoringError(
                            "sharded backend: a worker process died during "
                            "the interior phase; shared segments are "
                            "reclaimed by the parent"
                        ) from exc
                    phase_span.set(items=lo)
                rec.add_work(interior_work, iteration=0, phase="color", kind="interior")
                rec.record(
                    engine.colors,
                    queue_size=lo,
                    conflicts=0,
                    wall_seconds=time.perf_counter() - iter_start,
                )

                # ---- boundary supersteps ---------------------------------
                pending = np.nonzero(is_boundary)[0].astype(np.int64)
                boundary_total = int(pending.size)
                while pending.size:
                    if supersteps >= max(max_iterations, boundary_total + 1):
                        raise ColoringError(
                            f"{name} did not converge in {supersteps} "
                            f"supersteps ({pending.size} boundary vertices "
                            "still pending)"
                        )
                    iter_start = time.perf_counter()
                    batch_vs, rest = pending[:batch], pending[batch:]
                    step_work = WorkCounters()
                    # Per-rank slices in batch (not sorted) order: the
                    # oracle's overlays accumulate in batch order too.
                    owners = part[batch_vs]
                    ranges = []
                    lo = 0
                    for r in range(threads):
                        mine = batch_vs[owners == r]
                        if mine.size:
                            engine.work[lo : lo + mine.size] = mine
                            ranges.append((lo, lo + mine.size))
                            lo += mine.size
                    exchanges = []
                    try:
                        for _pid, ids, cols, frontier_work in engine.pool.map(
                            procworker.run_frontier, ranges
                        ):
                            exchanges.append((ids, cols))
                            step_work.merge(frontier_work)
                            comm_words += 2 * int(ids.size)
                            comm_messages += 1
                    except BrokenProcessPool as exc:
                        raise ColoringError(
                            "sharded backend: a worker process died during "
                            f"superstep {supersteps}; shared segments are "
                            "reclaimed by the parent"
                        ) from exc
                    # Commit the exchange (disjoint ids: one owner each),
                    # then detect cross-shard conflicts on the committed
                    # palette — smaller vertex id wins, as everywhere.
                    writes = 0
                    for ids, cols in exchanges:
                        engine.colors[ids] = cols
                        writes += int(ids.size)
                    losers, checks = detect_losers(
                        gview, batch_vs, engine.colors
                    )
                    step_work.add("conflict_checks", checks)
                    engine.colors[losers] = UNCOLORED
                    step_work.add("color_writes", len(losers))
                    step_work.add("queue_pushes", len(losers))
                    conflicts_total += len(losers)
                    rec.add_work(
                        step_work,
                        iteration=supersteps + 1,
                        phase="superstep",
                        kind="boundary",
                    )
                    if tracer.enabled:
                        tracer.counter(
                            "shard.exchange_words",
                            2 * writes,
                            superstep=supersteps,
                        )
                    rec.record(
                        engine.colors,
                        queue_size=batch_vs.size,
                        conflicts=len(losers),
                        wall_seconds=time.perf_counter() - iter_start,
                    )
                    supersteps += 1
                    pending = np.concatenate([losers, rest])

                rec.close(
                    engine.snapshot(), supersteps=supersteps, comm_words=comm_words
                )
        finally:
            engine.close()

        return rec.result(
            {
                "shard.interior": n - boundary_total,
                "shard.boundary": boundary_total,
                "shard.supersteps": supersteps,
                "shard.conflicts": conflicts_total,
                "shard.comm_words": comm_words,
                "shard.comm_messages": comm_messages,
            }
        )
