"""The speculative color → remove iteration driver (paper Algs. 1–3).

One driver serves both problems and every backend: a
:class:`ProblemAdapter` supplies the four phase kernels (vertex/net ×
color/remove), a :class:`~repro.core.plan.ScheduleSpec` says *which*
kernel runs at *which* iteration — the paper's ``X-Y`` naming scheme
(Section VI) — and an :class:`~repro.core.backends.ExecutionBackend`
from the registry says *where* the phases execute.  The loop itself
lives in :func:`repro.core.backends.run_plan_loop`; this module is the
user-facing dispatch plus the sequential baseline.

* coloring is net-based for the first ``spec.net_color_iters``
  iterations, vertex-based afterwards;
* conflict removal is net-based for the first ``spec.net_removal_iters``
  iterations, vertex-based afterwards;
* vertex-based removal feeds the next work queue through either the shared
  atomic queue (ColPack default) or lazy thread-private queues (the ``D``
  engineering fix);
* net-based removal resets clashing colors to ``UNCOLORED`` and the next
  work queue is collected by a cheap vectorized sweep.
"""

from __future__ import annotations

from typing import Callable, Protocol

import numpy as np

from repro.core.backends import _reject_options, backend_names, get_backend
from repro.core.plan import INF_ITERS, AlgorithmSpec, ScheduleSpec
from repro.core.policies import FirstFit, get_policy
from repro.errors import ColoringError
from repro.machine.machine import Machine
from repro.machine.scheduler import Schedule
from repro.types import ColoringResult, IterationRecord, PhaseKind, UNCOLORED

__all__ = [
    "AlgorithmSpec",
    "ScheduleSpec",
    "BACKENDS",
    "INF_ITERS",
    "ProblemAdapter",
    "require_sequential_backend",
    "run_speculative",
    "run_sequential",
]

#: Snapshot of the registered backend names at import time, kept for
#: backward compatibility.  Prefer :func:`repro.core.backends.backend_names`
#: (live) or :func:`repro.core.backends.get_backend`; see
#: ``docs/backends.md``.
BACKENDS = backend_names()


class ProblemAdapter(Protocol):
    """What a problem (BGPC / D2GC) must provide to the driver."""

    #: Number of vertices to color (|V_A| for BGPC, |V| for D2GC).
    n_targets: int
    #: Number of tasks in a net-based phase (|V_B| for BGPC, |V| for D2GC).
    n_nets: int

    def make_vertex_color_kernel(self, policy) -> Callable: ...

    def make_net_color_kernel(self, policy) -> Callable: ...

    def make_vertex_removal_kernel(self) -> Callable: ...

    def make_net_removal_kernel(self) -> Callable: ...

    def fastpath_groups(self):
        """Constraint-groups CSR for the NumPy backend.

        Nets × vertices for BGPC, closed neighborhoods × vertices for
        D2GC.  Only required when running with ``backend="numpy"``.
        """
        ...


def run_speculative(
    adapter: ProblemAdapter,
    spec: "str | ScheduleSpec | AlgorithmSpec",
    threads: int,
    cost=None,
    policy=None,
    max_iterations: int = 200,
    backend: str = "sim",
    fastpath_mode: str = "exact",
    tracer=None,
    **backend_options,
) -> ColoringResult:
    """Run the full speculative loop of ``spec`` on the chosen backend.

    ``spec`` may be a schedule name in the paper's grammar (``"N1-N2"``,
    ``"v-n∞"``, ``"N1-Ninf-B2"``, ``"V-V-64D-B1@2"`` — see
    :meth:`ScheduleSpec.parse <repro.core.plan.ScheduleSpec.parse>`), a
    structured :class:`~repro.core.plan.ScheduleSpec`, a legacy
    :class:`~repro.core.plan.AlgorithmSpec` (still supported; its display
    name is preserved), an adaptive name (``"adaptive"``,
    ``"adaptive:0.1"``) or :class:`~repro.core.adaptive.AdaptiveSchedule`
    controller — adaptive schedules require a kernel-level backend
    (``sim``/``threaded``/``process``; see ``docs/adaptive.md``).

    ``policy`` selects the color-choice heuristic for vertex-based coloring
    and, when it is B1/B2, also replaces the reverse-first-fit cursor inside
    net-based coloring (the paper's "net-based variants are also similar").
    ``None`` keeps the paper's default behaviour — unless the schedule
    itself carries a balancing suffix (``"N1-N2-B1"``), which resolves the
    matching policy automatically.  An explicit ``policy`` argument wins.

    ``backend`` names any registered :class:`~repro.core.backends.ExecutionBackend`
    (see ``docs/backends.md``): ``"sim"`` (default) runs the kernels
    task-by-task on the cycle-accurate :class:`Machine`; ``"threaded"``
    runs the same kernels on real Python threads (wall-clock,
    nondeterministic but always valid); ``"numpy"`` runs the speculative
    template as whole-array passes in :mod:`repro.core.fastpath`, ignoring
    ``threads``, ``cost``, ``max_iterations`` and the kernel schedule (it
    is bounded by a provable ``n + 1`` rounds instead) and honouring
    ``fastpath_mode`` — ``"exact"`` for byte-identical sequential-greedy
    colors, ``"speculative"`` for the fastest few-round variant.

    Extra keyword arguments are forwarded to the backend verbatim
    (``backend_options``): the sharded backend takes ``partitioner`` /
    ``batch`` / ``seed`` this way (see ``docs/sharding.md``).  Backends
    reject options they do not understand with :class:`ColoringError`.

    ``tracer`` hooks the run into the observability layer
    (:mod:`repro.obs`): per-iteration and per-phase spans with queue sizes,
    conflicts, palette growth and cycle counts.  ``None`` (default) routes
    through the zero-overhead :class:`repro.obs.NullTracer`.

    Raises :class:`ColoringError` for unknown backends or schedules (the
    message lists the valid names), and if the loop fails to converge
    within ``max_iterations`` rounds (cannot happen for the paper's specs
    on finite graphs, but guards pathological custom kernels).
    """
    engine_backend = get_backend(backend)
    if isinstance(spec, str):
        from repro.core.adaptive import is_adaptive_name, parse_adaptive

        if is_adaptive_name(spec):
            spec = parse_adaptive(spec)
    if hasattr(spec, "observe"):
        # An adaptive ScheduleController: it picks kernels and balancing
        # per iteration from the loop's feedback, so only backends that
        # actually drive run_plan_loop can honor it.
        if not getattr(engine_backend, "supports_controller", False):
            raise ColoringError(
                f"backend={backend!r} cannot run adaptive schedules (it "
                "does not drive the kernel-level plan loop); use sim, "
                "threaded or process"
            )
        schedule = spec
        name = spec.name
    else:
        schedule = ScheduleSpec.parse(spec)
        name = (
            spec.name
            if isinstance(spec, (AlgorithmSpec, ScheduleSpec))
            else schedule.name
        )
        # A static balancing suffix resolves one policy for the whole run;
        # schedules with "@" switch segments leave policy=None so the plan
        # loop can resolve the active label per iteration.
        if policy is None and schedule.balancing != "U" and not schedule.switches:
            policy = get_policy(schedule.balancing)
    return engine_backend.run(
        adapter,
        schedule,
        name=name,
        threads=threads,
        cost=cost,
        policy=policy,
        max_iterations=max_iterations,
        fastpath_mode=fastpath_mode,
        tracer=tracer,
        **backend_options,
    )


def require_sequential_backend(backend: str, options: dict) -> None:
    """Reject ``algorithm="sequential"`` anywhere but the default backend.

    The sequential baseline (:func:`run_sequential`) always runs on the
    simulated machine at one thread, so ``color_bgpc``/``color_d2gc``
    dispatch it only for ``backend="sim"``; every other backend needs a
    speculative schedule.
    """
    if backend != "sim":
        raise ColoringError(
            f"backend={backend!r} needs a speculative schedule (e.g. "
            "algorithm='V-V'), not sequential; sequential greedy runs "
            "only on backend='sim'"
        )
    _reject_options(backend, options)


def run_sequential(
    adapter: ProblemAdapter,
    cost=None,
    policy=None,
    name: str = "sequential",
    tracer=None,
) -> ColoringResult:
    """Sequential greedy baseline: one thread, one pass, no verification.

    The paper's Table II notes that sequential executions skip the conflict
    detection phase entirely; we reproduce that by running the vertex-based
    coloring kernel once, statically scheduled on one thread (no chunk fees,
    no races).  ``tracer`` hooks the single pass into :mod:`repro.obs`.
    """
    from repro.obs.tracer import ensure_tracer
    from repro.obs.work import WorkCounters

    tracer = ensure_tracer(tracer)
    machine = Machine(1, cost, tracer=tracer)
    colors = np.full(adapter.n_targets, UNCOLORED, dtype=np.int64)
    memory = machine.make_memory(colors)
    kernel = adapter.make_vertex_color_kernel(policy if policy is not None else FirstFit())
    run_work = WorkCounters()
    with tracer.span("run", algorithm=name, backend="sim", threads=1) as run_span:
        with tracer.span(
            "phase", iteration=0, phase=PhaseKind.COLOR, kind="vertex"
        ) as phase_span:
            timing, _ = machine.parallel_for(
                adapter.n_targets,
                kernel,
                memory,
                schedule=Schedule.static(),
                phase_kind=PhaseKind.COLOR,
                work=run_work,
            )
            phase_span.set(items=timing.tasks, cycles=timing.cycles)
        if tracer.enabled:
            run_work.emit(tracer, iteration=0, phase=PhaseKind.COLOR, kind="vertex")
        final = memory.snapshot()
        run_span.set(
            iterations=1,
            cycles=machine.trace.total_cycles,
            num_colors=int(final.max()) + 1 if final.size else 0,
        )
    record = IterationRecord(
        index=0,
        queue_size=adapter.n_targets,
        conflicts=0,
        color_timing=timing,
        remove_timing=None,
        colors_introduced=int(final.max()) + 1 if final.size else 0,
    )
    return ColoringResult(
        colors=final,
        num_colors=int(final.max()) + 1 if final.size else 0,
        iterations=[record],
        algorithm=name,
        threads=1,
        cycles=machine.trace.total_cycles,
        work_metrics=run_work.as_dict(),
    )
