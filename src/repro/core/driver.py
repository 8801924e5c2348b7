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

from repro.core.backends import (
    RunRecorder,
    _reject_options,
    get_backend,
    require_capabilities,
)
from repro.core.plan import INF_ITERS, ScheduleSpec, resolve_schedule
from repro.core.policies import FirstFit, get_policy
from repro.errors import ColoringError
from repro.machine.machine import Machine
from repro.machine.scheduler import Schedule
from repro.types import ColoringResult, PhaseKind, UNCOLORED

__all__ = [
    "SEQUENTIAL",
    "ScheduleSpec",
    "INF_ITERS",
    "ProblemAdapter",
    "run_speculative",
    "run_sequential",
]

#: The algorithm name of the one-thread greedy baseline (:func:`run_sequential`).
SEQUENTIAL = "sequential"


class ProblemAdapter(Protocol):
    """What a problem (BGPC / D2GC) must provide to the driver."""

    #: Number of vertices to color (|V_A| for BGPC, |V| for D2GC).
    n_targets: int
    #: Number of tasks in a net-based phase (|V_B| for BGPC, |V| for D2GC).
    n_nets: int

    # ``resumed``: the run starts from a frontier queue (``initial_work``),
    # so the vertex kernels skip building whole-graph host-side caches.
    def make_vertex_color_kernel(self, policy, *, resumed=False) -> Callable: ...

    def make_net_color_kernel(self, policy) -> Callable: ...

    def make_vertex_removal_kernel(self, *, resumed=False) -> Callable: ...

    def make_net_removal_kernel(self) -> Callable: ...

    def fastpath_groups(self):
        """Constraint-groups CSR for the NumPy backend.

        Nets × vertices for BGPC, closed neighborhoods × vertices for
        D2GC.  Only required when running with ``backend="numpy"``.
        """
        ...


def run_speculative(
    adapter: ProblemAdapter,
    spec: "str | ScheduleSpec",
    threads: int,
    cost=None,
    policy=None,
    max_iterations: int = 200,
    backend: str = "sim",
    fastpath_mode: str = "exact",
    tracer=None,
    initial_colors: np.ndarray | None = None,
    initial_work: np.ndarray | None = None,
    **backend_options,
) -> ColoringResult:
    """Run the full speculative loop of ``spec`` on the chosen backend.

    ``spec`` may be a schedule name in the paper's grammar (``"N1-N2"``,
    ``"v-n∞"``, ``"N1-Ninf-B2"``, ``"V-V-64D-B1@2"`` — see
    :meth:`ScheduleSpec.parse <repro.core.plan.ScheduleSpec.parse>`), a
    structured :class:`~repro.core.plan.ScheduleSpec`, an adaptive name
    (``"adaptive"``, ``"adaptive:0.1"``) or
    :class:`~repro.core.adaptive.AdaptiveSchedule` controller, or
    ``"sequential"`` for the one-thread greedy baseline
    (:func:`run_sequential`).  ``result.algorithm`` is the canonical name.

    ``policy`` selects the color-choice heuristic for vertex-based coloring
    and, when it is B1/B2, also replaces the reverse-first-fit cursor inside
    net-based coloring (the paper's "net-based variants are also similar").
    ``None`` keeps the paper's default behaviour — unless the schedule
    itself carries a balancing suffix (``"N1-N2-B1"``), which resolves the
    matching policy automatically.  An explicit ``policy`` argument wins.

    ``initial_colors``/``initial_work`` resume the loop from a partially
    valid coloring on a restricted first work queue — the
    incremental-recoloring entry point
    (:func:`repro.core.incremental.recolor_incremental`).

    ``backend`` names any registered :class:`~repro.core.backends.ExecutionBackend`
    (see ``docs/backends.md``): ``"sim"`` (default) runs the kernels
    task-by-task on the cycle-accurate :class:`Machine`; ``"process"``
    runs the same kernels on a worker-process pool (wall-clock,
    nondeterministic but always valid); ``"numpy"`` runs the speculative
    template as whole-array passes in :mod:`repro.core.fastpath`, ignoring
    ``threads``, ``cost``, ``max_iterations`` and the kernel schedule (it
    is bounded by a provable ``n + 1`` rounds instead) and honouring
    ``fastpath_mode`` — ``"exact"`` for byte-identical sequential-greedy
    colors, ``"speculative"`` for the fastest few-round variant.  What
    the request needs beyond a fresh first-fit schedule — resume, an
    adaptive controller, B1/B2, ``"sequential"`` — is checked against the
    backend's :class:`~repro.core.backends.Capabilities` record first.

    Extra keyword arguments are forwarded to the backend verbatim
    (``backend_options``): the sharded backend takes ``partitioner`` /
    ``batch`` / ``seed`` this way (see ``docs/sharding.md``).  Backends
    reject options they do not understand with :class:`ColoringError`.

    ``tracer`` hooks the run into the observability layer
    (:mod:`repro.obs`): per-iteration and per-phase spans with queue sizes,
    conflicts, palette growth and cycle counts.  ``None`` (default) routes
    through the zero-overhead :class:`repro.obs.NullTracer`.

    Raises :class:`ColoringError` for unknown backends or schedules (the
    message lists the valid names), for a capability the backend lacks,
    and if the loop fails to converge within ``max_iterations`` rounds
    (cannot happen for the paper's specs on finite graphs, but guards
    pathological custom kernels).
    """
    engine_backend = get_backend(backend)
    resume = initial_colors is not None or initial_work is not None
    if spec == SEQUENTIAL:
        if resume:
            raise ColoringError(
                "sequential greedy has no speculative loop to resume; name "
                "a schedule such as 'V-V'"
            )
        require_capabilities(backend, ["sequential"])
        _reject_options(backend, backend_options)
        return run_sequential(adapter, cost=cost, policy=policy, tracer=tracer)
    schedule = resolve_schedule(spec)
    controller = hasattr(schedule, "observe")
    # A static balancing suffix resolves one policy for the whole run;
    # schedules with "@" switch segments (and adaptive controllers) leave
    # policy=None so the plan loop resolves the active label per iteration.
    if (
        policy is None
        and not controller
        and schedule.balancing != "U"
        and not schedule.switches
    ):
        policy = get_policy(schedule.balancing)
    wanted = {
        "resume": resume,
        "controller": controller,
        "policies": policy is not None and not isinstance(policy, FirstFit),
    }
    require_capabilities(backend, [need for need, on in wanted.items() if on])
    return engine_backend.run(
        adapter,
        schedule,
        name=schedule.name,
        threads=threads,
        cost=cost,
        policy=policy,
        max_iterations=max_iterations,
        fastpath_mode=fastpath_mode,
        tracer=tracer,
        initial_colors=initial_colors,
        initial_work=initial_work,
        **backend_options,
    )


def run_sequential(
    adapter: ProblemAdapter,
    cost=None,
    policy=None,
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
    phase_work = WorkCounters()
    with RunRecorder(tracer, SEQUENTIAL, "sim", clocked=True, threads=1) as rec:
        with tracer.span(
            "phase", iteration=0, phase=PhaseKind.COLOR, kind="vertex"
        ) as phase_span:
            timing, _ = machine.parallel_for(
                adapter.n_targets,
                kernel,
                memory,
                schedule=Schedule.static(),
                phase_kind=PhaseKind.COLOR,
                work=phase_work,
            )
            phase_span.set(items=timing.tasks, cycles=timing.cycles)
        rec.add_work(phase_work, iteration=0, phase=PhaseKind.COLOR, kind="vertex")
        final = memory.snapshot()
        rec.record(final, queue_size=adapter.n_targets, conflicts=0, color_timing=timing)
        rec.close(final, cycles=machine.trace.total_cycles)
    return rec.result()
