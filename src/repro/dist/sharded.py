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
3. **Boundary supersteps.**  The remaining vertices go through
   :func:`repro.dist.superstep.run_supersteps`, the loop
   :func:`~repro.dist.distributed_bgpc` and :func:`~repro.dist.hybrid_bgpc`
   share.  Here each shard colors its slice of a batch in a worker
   (:func:`~repro.core.procworker.run_frontier`) against a private snapshot
   of the committed palette and ships its picks back as packed
   ``(ids, colors)`` int64 arrays — the *actual* frontier exchange, which a
   :class:`~repro.dist.mpi.ClusterModel` counts into ``shard.*``.

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
from repro.types import ColoringResult

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
        max_iterations=200,  # unused: run_supersteps bounds its own loop
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
        from repro.dist.mpi import ClusterModel
        from repro.dist.partition import get_partitioner
        from repro.dist.superstep import boundary_mask, run_supersteps
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
        pending = np.nonzero(is_boundary)[0].astype(np.int64)
        interior = adapter.n_targets - pending.size
        owned = [
            np.nonzero((part == r) & ~is_boundary)[0].astype(np.int64)
            for r in range(threads)
        ]
        # Counts the real exchanges (shard.supersteps/comm_*); its modeled
        # cycles are not reported.
        cluster = ClusterModel(threads)
        conflicts = 0
        # Constructed before the pool so the run's wall time includes its setup.
        rec = RunRecorder(
            tracer, name, self.name, threads=threads, partitioner=partitioner
        )

        engine = ProcessPhaseEngine(
            adapter, threads, cost=cost, tracer=tracer, policy=policy, fault=fault
        )

        def pool_map(slices, phase, work, chunk_key=None):
            """Run one pool task per non-empty slice; return the results.

            The slices are laid end to end in the shared work queue.  Tasks
            are ``run_chunk`` (writing the shared colors) under ``chunk_key``,
            else ``run_frontier`` (returning their picks).  Their operation
            counts merge into ``work``; a dead worker raises
            :class:`ColoringError` naming ``phase``.
            """
            tasks = []
            lo = 0
            for ids in slices:
                if ids.size:
                    engine.work[lo : lo + ids.size] = ids
                    tasks.append((lo, lo + ids.size))
                    lo += ids.size
            fn = procworker.run_frontier
            if chunk_key is not None:
                fn = procworker.run_chunk
                tasks = [(chunk_key, lo, hi, True) for lo, hi in tasks]
            try:
                results = list(engine.pool.map(fn, tasks))
            except BrokenProcessPool as exc:
                raise ColoringError(
                    f"sharded backend: a worker process died during {phase}; "
                    "shared segments are reclaimed by the parent"
                ) from exc
            for result in results:
                work.merge(result[-1])
            return results

        try:
            with rec:
                # ---- interior phase: one slice per shard, no cross-talk --
                interior_work = WorkCounters()
                with tracer.span(
                    "phase", iteration=0, phase="color", kind="interior"
                ) as phase_span:
                    iter_start = time.perf_counter()
                    pool_map(owned, "the interior phase", interior_work, "color:vertex")
                    phase_span.set(items=interior)
                rec.add_work(interior_work, iteration=0, phase="color", kind="interior")
                rec.record(
                    engine.colors,
                    queue_size=interior,
                    conflicts=0,
                    wall_seconds=time.perf_counter() - iter_start,
                )

                # ---- boundary supersteps ---------------------------------
                # Each shard colors its slice against a private snapshot and
                # ships its picks back: two words per pick, one message.
                step_work, step_words = WorkCounters(), 0

                def color_slices(slices):
                    nonlocal step_work, step_words
                    step_work = WorkCounters()
                    words = [0] * threads
                    picks = []
                    phase = f"superstep {cluster.num_supersteps}"
                    results = pool_map(slices, phase, step_work)
                    busy = [r for r, ids in enumerate(slices) if ids.size]
                    for r, (_pid, ids, cols, _work) in zip(busy, results):
                        picks.append((ids, cols))
                        words[r] = 2 * int(ids.size)
                    step_words = sum(words)
                    messages = [int(ids.size > 0) for ids in slices]
                    return picks, [0.0] * threads, words, messages

                iter_start = time.perf_counter()
                steps = run_supersteps(
                    gview, part, cluster, engine.colors, pending, batch, color_slices
                )
                for step, (batch_vs, losers, checks) in enumerate(steps):
                    step_work.add("conflict_checks", checks)
                    step_work.add("color_writes", len(losers))
                    step_work.add("queue_pushes", len(losers))
                    conflicts += len(losers)
                    rec.add_work(
                        step_work, iteration=step + 1, phase="superstep", kind="boundary"
                    )
                    if tracer.enabled:
                        tracer.counter(
                            "shard.exchange_words", step_words, superstep=step
                        )
                    rec.record(
                        engine.colors,
                        queue_size=batch_vs.size,
                        conflicts=len(losers),
                        wall_seconds=time.perf_counter() - iter_start,
                    )
                    iter_start = time.perf_counter()

                rec.close(
                    engine.snapshot(),
                    supersteps=cluster.num_supersteps,
                    comm_words=cluster.total_words,
                )
        finally:
            engine.close()

        return rec.result(
            {
                "shard.interior": interior,
                "shard.boundary": int(pending.size),
                "shard.supersteps": cluster.num_supersteps,
                "shard.conflicts": conflicts,
                "shard.comm_words": cluster.total_words,
                "shard.comm_messages": cluster.total_messages,
            }
        )

