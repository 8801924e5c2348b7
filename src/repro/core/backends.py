"""Execution backends: where a speculative coloring plan actually runs.

The schedule layer (:mod:`repro.core.plan`) decides *what* each iteration
does; this module decides *where* it executes.  An
:class:`ExecutionBackend` takes a problem adapter plus a
:class:`~repro.core.plan.ScheduleSpec` and returns a
:class:`~repro.types.ColoringResult`; five are registered out of the box:

``"sim"``
    :class:`SimBackend` — the cycle-accurate discrete-event multicore of
    :mod:`repro.machine`; the paper's reproduction vehicle (simulated
    cycles, deterministic races).
``"numpy"``
    :class:`NumpyBackend` — the vectorized whole-array engine of
    :mod:`repro.core.fastpath` (host wall-clock; first-fit only).
``"process"``
    :class:`ProcessBackend` — the same kernels on a persistent pool of
    *worker processes* with the color array, work queue and CSR graph in
    ``multiprocessing.shared_memory`` (:mod:`repro.core.procworker`);
    no GIL, true parallel wall-clock, real cross-process races.

``"compiled"``
    :class:`repro.core.compiled.CompiledBackend` — the fast path's round
    loops JIT-compiled with numba (optional dependency; byte-identical to
    ``numpy``, one-line error when numba is missing).
``"sharded"``
    :class:`repro.dist.sharded.ShardedBackend` — partitioned interior
    coloring plus boundary supersteps on the ``process`` worker pool.

``sim`` and ``process`` are *kernel-level* backends: both drive the same
backend-agnostic loop (:func:`run_plan_loop`), which asks the plan for
each iteration's :class:`~repro.core.plan.PhasePlan` pair and a
:class:`PhaseEngine` to execute it.  ``numpy`` replaces the whole loop
with array rounds.  Every loop records its run through one
:class:`RunRecorder`.  Registering a new backend is one
:func:`register_backend` call — the driver, runners, CLI and bench pick it
up with zero edits (see ``docs/backends.md``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Protocol, runtime_checkable

import numpy as np

from repro.core.plan import PhasePlan, ScheduleSpec
from repro.core.policies import FirstFit
from repro.errors import ColoringError
from repro.types import (
    ColoringResult,
    IterationRecord,
    PhaseKind,
    PhaseTiming,
    UNCOLORED,
)

__all__ = [
    "Capabilities",
    "ExecutionBackend",
    "PhaseEngine",
    "SimBackend",
    "NumpyBackend",
    "ProcessBackend",
    "RunRecorder",
    "backend_names",
    "get_backend",
    "missing_capability",
    "register_backend",
    "require_capabilities",
    "run_plan_loop",
]


@runtime_checkable
class PhaseEngine(Protocol):
    """Executes one phase's parallel for on some substrate.

    ``clocked`` says whether the engine has a simulated clock: clocked
    engines return a :class:`~repro.types.PhaseTiming` per phase and report
    ``total_cycles``; unclocked engines return ``None`` timings and the
    loop records measured wall seconds instead.

    ``last_work`` holds the :class:`~repro.obs.work.WorkCounters` of the
    most recent :meth:`run_phase` call (``None`` before the first phase):
    the deterministic operation counts the regression gate compares — see
    :mod:`repro.obs.work` and ``docs/benchmarks.md``.
    """

    clocked: bool
    last_work: object | None

    @property
    def values(self) -> np.ndarray:
        """The committed shared color array (read-only for callers)."""
        ...

    def run_phase(
        self,
        plan: PhasePlan,
        n_tasks: int,
        kernel: Callable,
        task_ids=None,
        scan_items: int = 0,
    ) -> tuple[PhaseTiming | None, list[int]]:
        """Run ``kernel`` over ``n_tasks`` tasks under ``plan``.

        ``scan_items`` charges an auxiliary vectorized sweep of that many
        items to the phase (the "collect the uncolored vertices" pass after
        a net-based removal); engines without a clock ignore it.
        """
        ...

    def snapshot(self) -> np.ndarray: ...

    @property
    def total_cycles(self) -> float: ...


class SimPhaseEngine:
    """Kernel-level engine on the simulated multicore (``backend="sim"``)."""

    clocked = True

    def __init__(self, initial_colors: np.ndarray, threads: int, cost=None, tracer=None):
        from repro.machine.machine import Machine

        self.machine = Machine(threads, cost, tracer=tracer)
        self.machine.reset_thread_states()
        self.memory = self.machine.make_memory(initial_colors)
        self.last_work = None

    @property
    def values(self) -> np.ndarray:
        return self.memory.values

    def run_phase(self, plan, n_tasks, kernel, task_ids=None, scan_items=0):
        from repro.machine.scheduler import Schedule
        from repro.obs.work import WorkCounters

        extra = self.machine.parallel_scan_cost(scan_items) if scan_items else 0
        self.last_work = work = WorkCounters()
        return self.machine.parallel_for(
            n_tasks,
            kernel,
            self.memory,
            schedule=Schedule.dynamic(plan.chunk),
            queue_mode=plan.queue_mode,
            phase_kind=plan.phase,
            task_ids=task_ids,
            extra_wall=extra,
            work=work,
        )

    def snapshot(self) -> np.ndarray:
        return self.memory.snapshot()

    @property
    def total_cycles(self) -> float:
        return self.machine.trace.total_cycles


class ProcessPhaseEngine:
    """Kernel-level engine on a worker-process pool (``backend="process"``).

    The committed color array, the per-iteration work queue and the CSR
    graph arrays live in named :mod:`multiprocessing.shared_memory`
    segments; ``threads`` worker processes attach once (pool initializer)
    and then mutate the *same* palette with immediate stores, so races are
    genuine cross-process interleavings with no GIL serializing them.

    Dispatch mirrors the paper's dynamic schedule: each phase is split into
    chunk-sized task ranges (``plan.chunk``, 64 for the engineered specs)
    that idle workers pull from the pool — a cross-process chunk cursor.
    Per-worker task counters are emitted through the tracer
    (``process.worker_tasks``) when tracing is enabled.

    Lifetime: :meth:`close` shuts the pool down and closes **and unlinks**
    every segment; :class:`ProcessBackend` guarantees it runs on every exit
    path, including a worker crash (surfaced as :class:`ColoringError`), so
    no stale ``/dev/shm`` entries survive the run.
    """

    clocked = False

    def __init__(
        self,
        adapter,
        threads: int,
        cost=None,
        tracer=None,
        policy=None,
        fault=None,
        initial_colors: np.ndarray | None = None,
        resumed: bool = False,
    ):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from repro.core import procworker
        from repro.obs.tracer import ensure_tracer

        from repro.machine.engine import TaskContext

        if threads < 1:
            raise ColoringError(f"process backend needs threads >= 1, got {threads}")
        spec = adapter.process_spec(resumed=resumed)
        self.tracer = ensure_tracer(tracer)
        self.threads = threads
        self.fault = fault
        self.worker_totals: dict[int, int] = {}
        # Parent-side context for single-chunk phases executed inline (the
        # tail iterations of the speculative loop): one dispatch unit has no
        # parallelism to win, so skipping the pool round-trip is pure gain.
        self._inline_ctx = TaskContext()
        self._inline_state: dict = {}
        self._shms = []
        self._closed = False
        self.last_work = None
        segments = {}
        try:
            shm, self.colors, segments["colors"] = procworker.create_segment(
                _initial_colors(adapter, initial_colors)
            )
            self._shms.append(shm)
            shm, self.work, segments["work"] = procworker.create_segment(
                np.zeros(adapter.n_targets, dtype=np.int64)
            )
            self._shms.append(shm)
            shm, self.ctrl, segments["ctrl"] = procworker.create_segment(
                np.zeros(threads, dtype=np.int64)
            )
            self._shms.append(shm)
            for key, array in spec["arrays"].items():
                shm, _, segments[key] = procworker.create_segment(array)
                self._shms.append(shm)
            worker_spec = {
                "problem": spec["problem"],
                "segments": segments,
                "cost": spec["cost"],
                "policy": policy,
                "fault": fault,
            }
            # fork (where available) keeps pool warmup cheap — workers skip
            # re-importing numpy and inherit nothing they use besides the
            # explicitly shared segments they attach in the initializer.
            method = (
                "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
            )
            self.pool = ProcessPoolExecutor(
                max_workers=threads,
                mp_context=multiprocessing.get_context(method),
                initializer=procworker.init_worker,
                initargs=(worker_spec,),
            )
            # Pre-warm: force all workers to spawn, attach segments and
            # build state *now*, so the timed speculative loop never pays
            # spawn/init cost mid-phase.  The warmup tasks barrier on the
            # control segment — a spinning worker is not idle, so each
            # submit spawns a fresh process.
            from concurrent.futures.process import BrokenProcessPool

            try:
                list(
                    self.pool.map(
                        procworker.warmup, [(i, threads) for i in range(threads)]
                    )
                )
            except BrokenProcessPool as exc:
                raise ColoringError(
                    "process backend: a worker process died during pool "
                    "warmup; shared segments are reclaimed by the parent"
                ) from exc
        except BaseException:
            self.close()
            raise

    @property
    def values(self) -> np.ndarray:
        return self.colors

    def run_phase(self, plan, n_tasks, kernel, task_ids=None, scan_items=0):
        from concurrent.futures.process import BrokenProcessPool

        from repro.core import procworker
        from repro.obs.work import WorkCounters

        self.last_work = work = WorkCounters()
        if n_tasks == 0:
            return None, []
        use_work = task_ids is not None
        chunk = max(1, plan.chunk)
        # A phase that fits in one dispatch unit has no parallelism to win;
        # run it inline on the shared color view with the parent-built
        # kernel and skip the pool round-trip entirely.  Fault injection
        # forces dispatch so crash tests stay deterministic.
        if kernel is not None and self.fault is None and n_tasks <= chunk:
            return self._run_inline(plan, n_tasks, kernel, task_ids)
        if use_work:
            self.work[:n_tasks] = task_ids
        # The dispatch key carries the active balancing label for coloring
        # phases so workers build (and cache) the right policy kernel — a
        # switched schedule changes the label mid-run.  Removal kernels are
        # policy-free, so their label is pinned to keep the cache key stable.
        label = plan.balancing if plan.phase == PhaseKind.COLOR else "U"
        phase_key = f"{plan.phase}:{plan.kind}:{label}"
        ranges = [
            (phase_key, lo, min(lo + chunk, n_tasks), use_work)
            for lo in range(0, n_tasks, chunk)
        ]
        queued: list[int] = []
        per_worker: dict[int, int] = {}
        try:
            # Group several chunks per IPC message: chunk-64 *execution*
            # granularity is preserved (each range is still one run_chunk
            # call inside the worker) while dispatch and result round-trips
            # drop by the batch factor — the pool analogue of the paper's
            # chunked dynamic scheduling, which exists for this reason.
            # Batches are sized to the machine's *effective* parallelism:
            # finer dynamic balancing than the core count can exploit only
            # adds message round-trips.
            effective = max(1, min(self.threads, os.cpu_count() or 1))
            batch = max(1, len(ranges) // (effective * 4))
            groups = [ranges[i : i + batch] for i in range(0, len(ranges), batch)]
            for pid, done, appends, batch_work in self.pool.map(
                procworker.run_batch, groups
            ):
                queued.extend(appends)
                per_worker[pid] = per_worker.get(pid, 0) + done
                work.merge(batch_work)
        except BrokenProcessPool as exc:
            raise ColoringError(
                "process backend: a worker process died mid-phase "
                f"({phase_key}); shared segments are reclaimed by the parent"
            ) from exc
        for pid, done in per_worker.items():
            self.worker_totals[pid] = self.worker_totals.get(pid, 0) + done
        if self.tracer.enabled:
            for pid, done in sorted(per_worker.items()):
                self.tracer.counter(
                    "process.worker_tasks",
                    done,
                    worker=pid,
                    phase=plan.phase,
                    kind=plan.kind,
                )
        return None, queued

    def _run_inline(self, plan, n_tasks, kernel, task_ids):
        """Execute one small phase in the parent process (no IPC).

        Writes land in the same shared color segment the workers see, so
        the next dispatched phase observes them; the parent behaves as one
        more (momentarily solo) worker with its own policy state.
        """
        import os

        ctx = self._inline_ctx
        colors = self.colors
        tasks = (
            np.asarray(task_ids[:n_tasks]).tolist()
            if task_ids is not None
            else range(n_tasks)
        )
        queued: list[int] = []
        for task in tasks:
            ctx.reset(colors, 0, self._inline_state)
            kernel(task, ctx)
            for where, value in ctx.writes:
                colors[where] = value
            queued.extend(ctx.appends)
            self.last_work.add_task(ctx)
        pid = os.getpid()
        self.worker_totals[pid] = self.worker_totals.get(pid, 0) + n_tasks
        if self.tracer.enabled:
            self.tracer.counter(
                "process.worker_tasks",
                n_tasks,
                worker=pid,
                phase=plan.phase,
                kind=plan.kind,
                inline=True,
            )
        return None, queued

    def snapshot(self) -> np.ndarray:
        return self.colors.copy()

    @property
    def total_cycles(self) -> float:
        return 0.0

    def close(self) -> None:
        """Shut the pool down and close + unlink every shared segment.

        Idempotent; safe to call after a worker crash (the broken pool's
        shutdown is a no-op for dead workers).
        """
        if self._closed:
            return
        self._closed = True
        pool = getattr(self, "pool", None)
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        for shm in self._shms:
            try:
                shm.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._shms = []


def _set_phase_span(span, timing, n_tasks, conflicts=None) -> None:
    attrs = (
        {"items": timing.tasks, "cycles": timing.cycles}
        if timing is not None
        else {"items": n_tasks}
    )
    if conflicts is not None:
        attrs["conflicts"] = conflicts
    span.set(**attrs)


def _initial_colors(adapter, initial_colors) -> np.ndarray:
    """A fresh int64 color array: all uncolored, or a checked copy of ``initial_colors``."""
    if initial_colors is None:
        return np.full(adapter.n_targets, UNCOLORED, dtype=np.int64)
    colors = np.array(initial_colors, dtype=np.int64, copy=True)
    if colors.shape != (adapter.n_targets,):
        raise ColoringError(
            f"initial_colors must have shape ({adapter.n_targets},), "
            f"got {colors.shape}"
        )
    return colors


def _num_colors(colors: np.ndarray) -> int:
    return int(colors.max()) + 1 if colors.size else 0


class RunRecorder:
    """How a run is recorded: one path for every loop in the package.

    Used as ``with RunRecorder(...) as rec:`` around the loop.  Entering
    opens the ``run`` span with ``algorithm``/``backend`` plus
    ``span_attrs`` (a ``threads`` attribute is also the result's thread
    count, default 1).  Inside, :meth:`add_work` folds one phase's
    :class:`~repro.obs.work.WorkCounters` into the run totals and emits them,
    :meth:`record` appends one :class:`~repro.types.IterationRecord` under
    the palette high-water rule, and :meth:`close` stamps the final colors
    on the span (a ``cycles`` attribute is also the result's simulated
    cycle count, default 0).  After the block, :meth:`result` checks that no vertex is
    left uncolored and assembles the :class:`~repro.types.ColoringResult`.

    ``clocked`` runs (simulated cycles) report zero wall seconds; the
    others are timed from construction, so work done between constructing
    the recorder and entering it (pool setup) counts toward the run.
    """

    def __init__(
        self, tracer, name: str, backend: str, *, clocked: bool = False, **span_attrs
    ):
        from repro.obs.work import WorkCounters

        self.tracer = tracer
        self.name = name
        self.backend = backend
        self.clocked = clocked
        self.threads = span_attrs.get("threads", 1)
        self.records: list[IterationRecord] = []
        self.work = WorkCounters()
        self._attrs = {"algorithm": name, "backend": backend, **span_attrs}
        self._palette = 0
        self._final = None
        self._cycles = 0.0
        self._start = time.perf_counter()

    def __enter__(self) -> "RunRecorder":
        self.span = self.tracer.span("run", **self._attrs).__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return self.span.__exit__(exc_type, exc, tb)

    def add_work(self, work, **attrs) -> None:
        """Fold one phase's counters into the run and emit them (``attrs`` tag the events)."""
        self.work.merge(work)
        if self.tracer.enabled:
            work.emit(self.tracer, **attrs)

    def record(
        self,
        colors: np.ndarray,
        *,
        queue_size: int,
        conflicts: int,
        wall_seconds: float = 0.0,
        color_timing: PhaseTiming | None = None,
        remove_timing: PhaseTiming | None = None,
    ) -> int:
        """Append the next iteration's record; returns its ``colors_introduced``.

        Palette growth: the high-water color count of the committed
        ``colors`` is monotone (a removal may reset colors, never retire
        them), so growth is how far it rose this iteration.
        """
        committed_max = int(colors.max()) if colors.size else -1
        introduced = max(0, committed_max + 1 - self._palette)
        self._palette = max(self._palette, committed_max + 1)
        self.records.append(
            IterationRecord(
                index=len(self.records),
                queue_size=int(queue_size),
                conflicts=int(conflicts),
                color_timing=color_timing,
                remove_timing=remove_timing,
                colors_introduced=introduced,
                wall_seconds=0.0 if self.clocked else wall_seconds,
            )
        )
        return introduced

    def close(self, final: np.ndarray, **attrs) -> None:
        """Keep the final colors and set the run span's closing attributes."""
        self._final = final
        self._cycles = attrs.get("cycles", 0.0)
        self.span.set(
            iterations=len(self.records), **attrs, num_colors=_num_colors(final)
        )

    def result(self, extra_metrics=None) -> ColoringResult:
        """The run's :class:`~repro.types.ColoringResult`; raises if any vertex is uncolored.

        ``extra_metrics`` (structure counters such as ``shard.*``) join the
        run's work totals in ``work_metrics``.
        """
        final = self._final
        if final.size and final.min() < 0:
            raise ColoringError(
                f"{self.name} finished with {int((final < 0).sum())} "
                "uncolored vertices"
            )
        metrics = self.work.as_dict()
        metrics.update(extra_metrics or {})
        return ColoringResult(
            colors=final,
            num_colors=_num_colors(final),
            iterations=self.records,
            algorithm=self.name,
            threads=self.threads,
            cycles=self._cycles,
            backend=self.backend,
            wall_seconds=0.0 if self.clocked else time.perf_counter() - self._start,
            work_metrics=metrics,
        )


def run_plan_loop(
    engine: PhaseEngine,
    adapter,
    schedule: ScheduleSpec,
    *,
    name: str,
    threads: int,
    policy=None,
    max_iterations: int = 200,
    tracer=None,
    backend_name: str = "sim",
    initial_work: np.ndarray | None = None,
) -> ColoringResult:
    """The backend-agnostic speculative loop (paper Algs. 1–3).

    Asks ``schedule`` for each iteration's phase plans and ``engine`` to
    execute them; everything schedule- or backend-specific lives behind
    those two objects.  Shared by every kernel-level backend.

    ``initial_work`` restricts the first iteration's work queue to the
    given vertex ids instead of every target — the incremental-recoloring
    entry point (:func:`repro.core.incremental.recolor_incremental`), whose
    engine starts from a partially valid color array.  Net-based *color*
    phases still sweep every net regardless of the queue (their kernels are
    queue-blind by design), so frontier runs should use vertex-based
    schedules to realize the work savings.  The vertex kernels of such a
    run are built ``resumed`` and flatten no whole-graph two-hop cache:
    vertex removal only requeues vertices already queued, so the run only
    ever walks the frontier's rows.

    Work metrics: after each phase the engine's
    :class:`~repro.obs.work.WorkCounters` are emitted as ``work.<metric>``
    counter events (iteration/phase/kind attributes) and folded into the
    run totals returned in :attr:`ColoringResult.work_metrics
    <repro.types.ColoringResult.work_metrics>`.

    Feedback: ``schedule`` may be a full
    :class:`~repro.core.adaptive.ScheduleController` rather than a static
    spec — when it exposes ``observe``, the loop reports every iteration's
    queue size, conflict count and removal-phase work counters back to it
    (after calling ``reset()`` once up front), so the controller's *next*
    ``iteration_plan`` call can pick different kernels or balancing.

    Balancing: each iteration's policy label comes from its
    :class:`~repro.core.plan.PhasePlan` (static suffix, ``@`` switch
    segments, or a controller decision); coloring kernels are built lazily
    per label.  An explicit ``policy`` argument wins for the whole run.
    """
    from repro.core.policies import get_policy
    from repro.obs.tracer import ensure_tracer

    tracer = ensure_tracer(tracer)
    color_kernels: dict[str, tuple[Callable, Callable]] = {}
    resumed = initial_work is not None

    def _color_kernels(label: str) -> tuple[Callable, Callable]:
        # One (vertex, net) coloring-kernel pair per active balancing
        # label, built on first use — at most three pairs, and exactly one
        # when an explicit policy pins the whole run.
        key = label if policy is None else "explicit"
        kernels = color_kernels.get(key)
        if kernels is None:
            if policy is not None:
                vertex_policy = policy
            elif label == "U":
                vertex_policy = FirstFit()
            else:
                vertex_policy = get_policy(label)
            net_policy = (
                None if isinstance(vertex_policy, FirstFit) else vertex_policy
            )
            kernels = (
                adapter.make_vertex_color_kernel(vertex_policy, resumed=resumed),
                adapter.make_net_color_kernel(net_policy),
            )
            color_kernels[key] = kernels
        return kernels

    vertex_remove = adapter.make_vertex_removal_kernel(resumed=resumed)
    net_remove = adapter.make_net_removal_kernel()

    reset = getattr(schedule, "reset", None)
    if reset is not None:
        reset()
    observe = getattr(schedule, "observe", None)

    if initial_work is None:
        work = np.arange(adapter.n_targets, dtype=np.int64)
    else:
        work = np.array(initial_work, dtype=np.int64, copy=True)
        if work.size and (
            work.min() < 0 or work.max() >= adapter.n_targets
        ):
            raise ColoringError(
                f"initial_work ids must be in [0, {adapter.n_targets}), "
                f"got [{work.min()}, {work.max()}]"
            )
    iteration = 0
    rec = RunRecorder(
        tracer, name, backend_name, clocked=engine.clocked, threads=threads
    )

    def _collect_work(phase: str, kind: str) -> None:
        if engine.last_work is not None:
            rec.add_work(engine.last_work, iteration=iteration, phase=phase, kind=kind)

    with rec:
        while work.size:
            if iteration >= max_iterations:
                raise ColoringError(
                    f"{name} did not converge in {max_iterations} iterations "
                    f"({work.size} vertices still queued)"
                )
            plan = schedule.iteration_plan(iteration)
            vertex_color, net_color = _color_kernels(plan.color.balancing)
            with tracer.span(
                "iteration", iteration=iteration, queue_size=int(work.size)
            ) as iter_span:
                iter_start = time.perf_counter()
                # ---- coloring phase -----------------------------------------
                with tracer.span(
                    "phase",
                    iteration=iteration,
                    phase=PhaseKind.COLOR,
                    kind=plan.color.kind,
                ) as phase_span:
                    if plan.color.kind == "net":
                        color_timing, _ = engine.run_phase(
                            plan.color, adapter.n_nets, net_color
                        )
                        color_tasks = adapter.n_nets
                    else:
                        color_timing, _ = engine.run_phase(
                            plan.color, work.size, vertex_color, task_ids=work
                        )
                        color_tasks = int(work.size)
                    _collect_work(PhaseKind.COLOR, plan.color.kind)
                    _set_phase_span(phase_span, color_timing, color_tasks)
                # ---- conflict-removal phase ---------------------------------
                with tracer.span(
                    "phase",
                    iteration=iteration,
                    phase=PhaseKind.REMOVE,
                    kind=plan.remove.kind,
                ) as phase_span:
                    if plan.remove.kind == "net":
                        remove_timing, _ = engine.run_phase(
                            plan.remove,
                            adapter.n_nets,
                            net_remove,
                            scan_items=adapter.n_targets,
                        )
                        remove_tasks = adapter.n_nets
                        next_work = np.nonzero(engine.values == UNCOLORED)[0].astype(
                            np.int64
                        )
                    else:
                        remove_timing, queued = engine.run_phase(
                            plan.remove, work.size, vertex_remove, task_ids=work
                        )
                        remove_tasks = int(work.size)
                        next_work = np.asarray(queued, dtype=np.int64)
                    _collect_work(PhaseKind.REMOVE, plan.remove.kind)
                    _set_phase_span(
                        phase_span,
                        remove_timing,
                        remove_tasks,
                        conflicts=int(next_work.size),
                    )

                iter_wall = time.perf_counter() - iter_start
                colors_introduced = rec.record(
                    engine.values,
                    queue_size=work.size,
                    conflicts=next_work.size,
                    wall_seconds=iter_wall,
                    color_timing=color_timing,
                    remove_timing=remove_timing,
                )
                if engine.clocked:
                    iter_span.set(
                        conflicts=int(next_work.size),
                        colors_introduced=colors_introduced,
                        cycles=color_timing.cycles + remove_timing.cycles,
                    )
                else:
                    iter_span.set(
                        conflicts=int(next_work.size),
                        colors_introduced=colors_introduced,
                        wall_seconds=iter_wall,
                    )
                if observe is not None:
                    observe(
                        iteration,
                        queue_size=int(work.size),
                        conflicts=int(next_work.size),
                        work=engine.last_work,
                        tracer=tracer,
                    )
            work = next_work
            iteration += 1

        rec.close(engine.snapshot(), cycles=engine.total_cycles)
    return rec.result()


@runtime_checkable
class ExecutionBackend(Protocol):
    """What a backend must provide to the driver.

    ``run`` executes the whole speculative loop of ``schedule`` on
    ``adapter`` and returns a :class:`~repro.types.ColoringResult` (the
    built-in backends assemble it with a :class:`RunRecorder`).

    ``initial_colors``/``initial_work`` resume the loop from a partially
    valid coloring on a restricted work queue (incremental recoloring —
    see :mod:`repro.core.incremental`).

    ``capabilities`` declares what the backend can run beyond a fresh
    first-fit schedule (see :class:`Capabilities`); the driver checks it
    before calling ``run``, so ``run`` never sees a request its record
    rules out.  A backend without the attribute declares nothing.
    """

    name: str
    capabilities: "Capabilities"

    def run(
        self,
        adapter,
        schedule: ScheduleSpec,
        *,
        name: str,
        threads: int,
        cost=None,
        policy=None,
        max_iterations: int = 200,
        fastpath_mode: str = "exact",
        tracer=None,
        initial_colors: np.ndarray | None = None,
        initial_work: np.ndarray | None = None,
        **options,
    ) -> ColoringResult: ...


def _reject_options(backend: str, options: dict) -> None:
    """Fail loudly on backend options this backend does not understand.

    ``run_speculative`` forwards free-form ``**backend_options`` (e.g. the
    sharded backend's ``partitioner``/``batch``/``seed``); a backend that
    does not consume them must reject rather than silently ignore.
    """
    if options:
        names = ", ".join(sorted(options))
        raise ColoringError(
            f"backend={backend!r} does not accept option(s): {names}"
        )


@dataclass(frozen=True)
class Capabilities:
    """What one backend can run beyond a fresh first-fit speculative schedule.

    Each registered backend declares one record as its ``capabilities``
    attribute; :func:`require_capabilities` is the one place that checks
    it.  The three loop capabilities hold exactly for the backends that
    drive :func:`run_plan_loop`.

    Attributes
    ----------
    resume:
        Start from a partial coloring (``initial_colors``/``initial_work``,
        the incremental-recoloring entry point).
    controller:
        Run an adaptive :class:`~repro.core.adaptive.ScheduleController`.
    policies:
        Run the B1/B2 balancing policies (not just first-fit).
    sequential:
        Run ``algorithm="sequential"`` (the one-thread greedy baseline).
    """

    resume: bool = False
    controller: bool = False
    policies: bool = False
    sequential: bool = False


#: Why a backend lacking each capability rejects a request.
_MISSING = {
    "resume": "cannot resume from a partial coloring",
    "controller": "cannot run adaptive schedules (no kernel-level plan loop)",
    "policies": "supports only the first-fit policy (U), not B1/B2",
    "sequential": "needs a speculative schedule (e.g. algorithm='V-V'), "
    "not sequential",
}


def _capabilities(name: str) -> Capabilities:
    return getattr(get_backend(name), "capabilities", Capabilities())


def missing_capability(backend: str, needs: Iterable[str]) -> str | None:
    """The rejection message for the first of ``needs`` ``backend`` lacks.

    ``needs`` holds :class:`Capabilities` field names; returns ``None``
    when the backend has them all.  The message names the backends that
    do have the missing capability.
    """
    caps = _capabilities(backend)
    for need in needs:
        if not getattr(caps, need):
            able = [n for n in backend_names() if getattr(_capabilities(n), need)]
            return f"backend={backend!r} {_MISSING[need]}; use {', '.join(able)}"
    return None


def require_capabilities(backend: str, needs: Iterable[str]) -> None:
    """Raise :class:`ColoringError` unless ``backend`` has every one of ``needs``."""
    message = missing_capability(backend, needs)
    if message is not None:
        raise ColoringError(message)


class SimBackend:
    """Cycle-accurate simulated multicore (the paper's reproduction vehicle)."""

    name = "sim"
    capabilities = Capabilities(
        resume=True, controller=True, policies=True, sequential=True
    )

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
        **options,
    ) -> ColoringResult:
        from repro.obs.tracer import ensure_tracer

        _reject_options(self.name, options)
        tracer = ensure_tracer(tracer)
        engine = SimPhaseEngine(
            _initial_colors(adapter, initial_colors), threads, cost, tracer
        )
        return run_plan_loop(
            engine,
            adapter,
            schedule,
            name=name,
            threads=threads,
            policy=policy,
            max_iterations=max_iterations,
            tracer=tracer,
            backend_name=self.name,
            initial_work=initial_work,
        )


class ProcessBackend:
    """Worker-process pool with shared-memory state: true parallel wall-clock.

    The paper's headline numbers are *multicore speedups* (Tables 3–5);
    Python threads cannot reproduce them because the GIL interleaves
    instead of overlapping.  This backend runs the same speculative loop
    across ``threads`` OS processes sharing one color segment, so kernel
    execution genuinely overlaps: ``wall_seconds`` is a real parallel
    measurement, conflicts are real cross-process races, and results are
    always valid.

    The adapter must expose ``process_spec()`` (both problem adapters do);
    anything else raises :class:`ColoringError`.  Shared-memory lifecycle
    is owned here: segments are created before the pool starts and closed +
    unlinked in a ``finally``, including when a worker crashes mid-phase
    (``REPRO_PROCESS_FAULT=kill[:N]`` injects exactly that for tests/CI).
    """

    name = "process"
    capabilities = Capabilities(resume=True, controller=True, policies=True)

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
        **options,
    ) -> ColoringResult:
        from repro.core import procworker
        from repro.obs.tracer import ensure_tracer

        _reject_options(self.name, options)
        if not hasattr(adapter, "process_spec"):
            raise ColoringError(
                "backend='process' needs an adapter with process_spec() "
                f"(shared-memory layout); {type(adapter).__name__} has none"
            )
        tracer = ensure_tracer(tracer)
        try:
            fault = procworker.parse_fault(os.environ.get("REPRO_PROCESS_FAULT"))
        except ValueError as exc:
            raise ColoringError(str(exc)) from None
        engine = ProcessPhaseEngine(
            adapter, threads, cost=cost, tracer=tracer, policy=policy,
            fault=fault, initial_colors=initial_colors,
            resumed=initial_work is not None,
        )
        try:
            return run_plan_loop(
                engine,
                adapter,
                schedule,
                name=name,
                threads=threads,
                policy=policy,
                max_iterations=max_iterations,
                tracer=tracer,
                backend_name=self.name,
                initial_work=initial_work,
            )
        finally:
            engine.close()


class NumpyBackend:
    """Vectorized whole-array engine (:mod:`repro.core.fastpath`).

    Ignores ``threads``, ``cost``, ``max_iterations`` and the schedule's
    kernel plan (its round structure is the engine's own, bounded by a
    provable ``n + 1``); honours ``fastpath_mode`` (``"exact"`` /
    ``"speculative"``).  Its rounds are whole-array, so it declares no
    capabilities: first-fit only, no resume, no controller.
    """

    name = "numpy"
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
        fastpath_mode="exact",
        tracer=None,
        initial_colors=None,
        initial_work=None,
        **options,
    ) -> ColoringResult:
        from repro.core.fastpath.engine import run_fastpath
        from repro.obs.tracer import ensure_tracer

        _reject_options(self.name, options)
        tracer = ensure_tracer(tracer)
        groups = adapter.fastpath_groups()
        extras: dict[str, int] = {}
        with RunRecorder(tracer, name, self.name, mode=fastpath_mode) as rec:
            colors, records = run_fastpath(
                groups, mode=fastpath_mode, tracer=tracer, work=rec.work,
                extras=extras,
            )
            # The fast path's rounds build their own records.
            rec.records.extend(records)
            rec.close(colors)
        # extras: FASTPATH_METRICS, speculative mode only
        return rec.result(extras)


# -- the registry -------------------------------------------------------------

_BACKENDS: dict[str, ExecutionBackend] = {}


def register_backend(backend: ExecutionBackend, *, name: str | None = None,
                     replace: bool = False) -> ExecutionBackend:
    """Register ``backend`` under ``name`` (default: ``backend.name``).

    One call makes the backend reachable from :func:`run_speculative
    <repro.core.driver.run_speculative>`, ``color_bgpc``/``color_d2gc``,
    the CLI's ``--backend`` and the bench harness — no driver edits.
    Registering an existing name raises unless ``replace=True``.
    """
    key = name if name is not None else backend.name
    if not key:
        raise ColoringError("backend must have a non-empty name")
    if key in _BACKENDS and not replace:
        raise ColoringError(
            f"backend {key!r} already registered; pass replace=True to override"
        )
    _BACKENDS[key] = backend
    return backend


def get_backend(name: str) -> ExecutionBackend:
    """Look up a registered backend; unknown names list the valid ones."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ColoringError(
            f"unknown backend {name!r}; choose from {backend_names()}"
        ) from None


def backend_names() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


register_backend(SimBackend())
register_backend(NumpyBackend())
register_backend(ProcessBackend())


def _register_sharded() -> None:
    # Deferred to the bottom: repro.dist imports back into this module
    # (hybrid_bgpc uses SimPhaseEngine), so it must be defined first.
    from repro.dist.sharded import ShardedBackend

    register_backend(ShardedBackend())


def _register_compiled() -> None:
    # Deferred likewise (repro.core.compiled imports Capabilities from
    # here).  Registration never imports numba: the name is always a valid
    # --backend choice, and the dependency check happens at run time so a
    # missing numba is a one-line ColoringError, not an import crash.
    from repro.core.compiled import CompiledBackend

    register_backend(CompiledBackend())


_register_sharded()
_register_compiled()
