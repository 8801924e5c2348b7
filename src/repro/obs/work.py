"""Deterministic work-metric counters for the perf-regression gate.

Wall-clock on a shared CI runner is noise; the *operation counts* of a
deterministic run are not.  This module defines the counter vocabulary the
kernels and backends emit so that two runs of the same code on the same
instance produce byte-identical numbers — the currency of
``python -m repro.bench regress`` (see ``docs/benchmarks.md``):

==================  =========================================================
metric              what it counts
==================  =========================================================
``tasks``           kernel invocations (one per vertex/net per phase)
``probes``          forbidden-set probe steps: every first-fit / reverse
                    first-fit cursor step and explicit membership test
``scans``           adjacency entries touched while *coloring* (the
                    two-hop / net-member traversals of Algs. 2, 4, 8, 9)
``conflict_checks`` adjacency entries examined while *detecting conflicts*
                    (the removal sweeps of Algs. 3, 5, 7, 10)
``queue_pushes``    appends to the next-iteration work queue
``color_writes``    color stores, including ``UNCOLORED`` resets
==================  =========================================================

Kernels accumulate ``probes``/``scans``/``conflict_checks`` on their
:class:`~repro.machine.engine.TaskContext`; the per-task totals are folded
into one :class:`WorkCounters` per phase by whichever engine executed it
(simulated, process pool, or the vectorized fast path).  The
backend loop then emits each metric through the tracer as a ``work.<metric>``
counter (riding the normal :class:`~repro.obs.tracer.TraceEvent` path) and
attaches the run totals to the ``work_metrics`` dict of
:class:`~repro.types.ColoringResult`.

Determinism caveat: counters from the ``process`` backend are only
deterministic with a single worker — real races change how many conflicts
(and hence repair iterations) occur.  The regress suite pins that backend
to one worker for exactly this reason.
"""

from __future__ import annotations

__all__ = ["FASTPATH_METRICS", "SHARD_METRICS", "WORK_METRICS", "WorkCounters"]

#: Canonical metric names, in reporting order.
WORK_METRICS = (
    "tasks",
    "probes",
    "scans",
    "conflict_checks",
    "queue_pushes",
    "color_writes",
)

#: Extra per-shard metrics the ``sharded`` backend attaches to
#: ``ColoringResult.work_metrics`` alongside :data:`WORK_METRICS` — also
#: deterministic, also gated by the regress suite:
#:
#: ==========================  ============================================
#: metric                      what it counts
#: ==========================  ============================================
#: ``shard.interior``          vertices colored with zero cross-talk
#: ``shard.boundary``          vertices resolved through supersteps
#: ``shard.supersteps``        bulk-synchronous boundary rounds executed
#: ``shard.conflicts``         boundary picks lost to a smaller-id neighbor
#: ``shard.comm_words``        int64 words actually exchanged (packed
#:                             ``(id, color)`` frontier pairs)
#: ``shard.comm_messages``     frontier result messages (one per active
#:                             rank per superstep)
#: ==========================  ============================================
#:
#: They are *attached extras*, not :class:`WorkCounters` slots: only the
#: sharded backend produces them, and they count structure (partition
#: quality, exchange volume), not kernel operations.
SHARD_METRICS = (
    "shard.interior",
    "shard.boundary",
    "shard.supersteps",
    "shard.conflicts",
    "shard.comm_words",
    "shard.comm_messages",
)

#: Packed-bitset structure metrics the vectorized fast path attaches to
#: ``ColoringResult.work_metrics`` for speculative runs (``numpy`` and
#: ``compiled`` report the same keys) — attached extras in the same sense
#: as :data:`SHARD_METRICS`:
#:
#: ==============================  ==========================================
#: metric                          what it counts
#: ==============================  ==========================================
#: ``fastpath.palette_words``      widest per-round forbidden mask, in
#:                                 packed uint64 words (64 colors/word)
#: ``fastpath.mask_or_words``      total packed words OR-combined across
#:                                 all rounds (the bitset work volume)
#: ==============================  ==========================================
#:
#: Both are deterministic and gated by the regress suite; both are 0 when
#: no masked round runs (exact mode, or a conflict-free first round).
FASTPATH_METRICS = (
    "fastpath.palette_words",
    "fastpath.mask_or_words",
)


class WorkCounters:
    """One phase's (or run's) deterministic operation counts.

    Plain integer slots — cheap enough to fold per task in the hot loops.
    """

    __slots__ = WORK_METRICS

    def __init__(self) -> None:
        self.tasks = 0
        self.probes = 0
        self.scans = 0
        self.conflict_checks = 0
        self.queue_pushes = 0
        self.color_writes = 0

    def add_task(self, ctx) -> None:
        """Fold one finished task's context counters into this phase."""
        self.tasks += 1
        self.probes += ctx.probes
        self.scans += ctx.scans
        self.conflict_checks += ctx.conflict_checks
        self.queue_pushes += len(ctx.appends)
        self.color_writes += len(ctx.writes)

    def add(self, metric: str, value: int) -> None:
        """Add ``value`` to one metric by name (engine-side bulk counts)."""
        setattr(self, metric, getattr(self, metric) + int(value))

    def merge(self, other: "WorkCounters | dict") -> None:
        """Fold another counter set (or its dict form) into this one."""
        get = other.get if isinstance(other, dict) else lambda m, _=0: getattr(other, m)
        for metric in WORK_METRICS:
            setattr(self, metric, getattr(self, metric) + int(get(metric, 0)))

    def as_dict(self) -> dict[str, int]:
        """Metric name → count, in canonical order (JSON-stable)."""
        return {metric: int(getattr(self, metric)) for metric in WORK_METRICS}

    def emit(self, tracer, **attrs) -> None:
        """Emit every metric as a ``work.<metric>`` counter event."""
        for metric in WORK_METRICS:
            tracer.counter(f"work.{metric}", getattr(self, metric), **attrs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{m}={getattr(self, m)}" for m in WORK_METRICS)
        return f"WorkCounters({inner})"
