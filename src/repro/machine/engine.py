"""Discrete-event execution engine for one parallel-for phase.

The engine is the heart of the multicore substitution (DESIGN.md): it plays
an OpenMP ``parallel for`` over ``n_tasks`` tasks on ``threads`` virtual
hardware threads, with

* **dynamic chunk scheduling** — chunks are dispensed from a central cursor
  in the exact time order threads become idle, each grab paying a
  contention-scaled fee;
* **happens-before memory** — a task's kernel sees the committed state as of
  the task's *start* cycle; its own writes commit at its *end* cycle, so
  concurrently executing tasks race exactly like unsynchronized OpenMP
  threads;
* **cost accounting** — kernels charge compute and memory cycles; memory
  cycles are inflated by the saturating-bandwidth model.

Determinism: every heap entry carries a monotone sequence number, so ties in
virtual time resolve identically on every run.  With ``threads == 1`` the
simulation degenerates to plain sequential execution with zero races.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.errors import MachineError, SchedulerError
from repro.machine.cost import CostModel
from repro.machine.memory import TimestampedMemory
from repro.machine.scheduler import ChunkCursor, Schedule
from repro.types import PhaseTiming

__all__ = ["TaskContext", "run_parallel_for", "QUEUE_NONE", "QUEUE_ATOMIC", "QUEUE_PRIVATE"]

#: Queue modes for the next-iteration work queue.
QUEUE_NONE = "none"
QUEUE_ATOMIC = "atomic"  # immediate shared-queue appends (ColPack default)
QUEUE_PRIVATE = "private"  # lazy thread-private queues merged at the barrier

_GRAB = 0
_EXEC = 1


class TaskContext:
    """Mutable per-task view handed to kernels.

    A kernel reads shared state through :attr:`colors` (the committed color
    array as of its start cycle), records color writes with :meth:`write`
    or :meth:`write_many`,
    queue appends with :meth:`append`, and charges its own cycle costs with
    :meth:`charge_cpu` / :meth:`charge_mem`.

    Attributes
    ----------
    colors:
        Committed shared color array (treat as read-only inside kernels).
    thread_id:
        Executing virtual thread.
    thread_state:
        Dict that persists across all tasks run by this thread within the
        current coloring run — used by the B1/B2 heuristics for their
        thread-private ``colmax`` / ``colnext``.
    probes / scans / conflict_checks:
        Deterministic work-metric counts for this task (see
        :mod:`repro.obs.work`): forbidden-set probe steps, adjacency
        entries touched while coloring, and entries examined during
        conflict detection.  Kernels record them with :meth:`count_probes`
        / :meth:`count_scans` / :meth:`count_checks`; engines fold them
        into per-phase :class:`~repro.obs.work.WorkCounters`.
    """

    __slots__ = (
        "colors",
        "thread_id",
        "thread_state",
        "writes",
        "appends",
        "cpu",
        "mem",
        "probes",
        "scans",
        "conflict_checks",
    )

    def __init__(self) -> None:
        self.colors = None
        self.thread_id = -1
        self.thread_state: dict = {}
        self.writes: list[tuple[int, int]] = []
        self.appends: list[int] = []
        self.cpu = 0
        self.mem = 0
        self.probes = 0
        self.scans = 0
        self.conflict_checks = 0

    def reset(self, colors, thread_id: int, thread_state: dict) -> None:
        self.colors = colors
        self.thread_id = thread_id
        self.thread_state = thread_state
        self.writes = []  # a fresh list: the memory keeps the last one
        self.appends.clear()
        self.cpu = 0
        self.mem = 0
        self.probes = 0
        self.scans = 0
        self.conflict_checks = 0

    def write(self, index: int, value: int) -> None:
        """Buffer a color write; commits at this task's end cycle."""
        self.writes.append((index, value))

    def write_many(self, indices: list[int], values: list[int]) -> None:
        """Buffer one write per ``(indices[i], values[i])``, in order."""
        self.writes.extend(zip(indices, values))

    def append(self, item: int) -> None:
        """Append to the next-iteration work queue."""
        self.appends.append(item)

    def charge_cpu(self, cycles: int) -> None:
        self.cpu += cycles

    def charge_mem(self, cycles: int) -> None:
        self.mem += cycles

    def count_probes(self, n: int) -> None:
        """Record ``n`` forbidden-set probe steps (work metric)."""
        self.probes += n

    def count_scans(self, n: int) -> None:
        """Record ``n`` adjacency entries touched while coloring."""
        self.scans += n

    def count_checks(self, n: int) -> None:
        """Record ``n`` entries examined during conflict detection."""
        self.conflict_checks += n


def run_parallel_for(
    n_tasks: int,
    kernel: Callable[[int, TaskContext], None],
    memory: TimestampedMemory,
    threads: int,
    cost: CostModel,
    schedule: Schedule,
    queue_mode: str = QUEUE_NONE,
    thread_states: list[dict] | None = None,
    phase_kind: str = "color",
    task_ids=None,
    tracer=None,
    work=None,
) -> tuple[PhaseTiming, list[int]]:
    """Simulate one parallel-for phase and return its timing and queue.

    Parameters
    ----------
    n_tasks:
        Loop trip count.  Task ``i`` maps to ``task_ids[i]`` when given,
        else to ``i`` itself.
    kernel:
        ``kernel(task_id, ctx)`` — performs reads via ``ctx.colors``,
        buffers writes/appends and charges cycles.
    memory:
        The shared color array (flushed and time-reset by this call's
        closing barrier).
    queue_mode:
        ``QUEUE_NONE`` | ``QUEUE_ATOMIC`` | ``QUEUE_PRIVATE``; controls the
        cost and ordering semantics of ``ctx.append``.
    thread_states:
        Optional per-thread persistent dicts (length ``threads``).
    tracer:
        Optional :class:`repro.obs.Tracer`; when given (and enabled), the
        phase's simulated cycle count is emitted as a
        ``machine.phase_cycles`` counter with kind/tasks/threads attributes.
    work:
        Optional :class:`repro.obs.work.WorkCounters`; every finished
        task's deterministic operation counts (probes, scans, queue pushes,
        color writes — see :mod:`repro.obs.work`) are folded into it.

    Returns
    -------
    (timing, queue_items):
        The phase timing (including the closing barrier) and the merged
        next-iteration queue in deterministic order: commit-time order for
        the atomic queue, thread-id order for private queues.
    """
    if threads < 1:
        raise MachineError(f"threads must be >= 1, got {threads}")
    if queue_mode not in (QUEUE_NONE, QUEUE_ATOMIC, QUEUE_PRIVATE):
        raise MachineError(f"unknown queue mode {queue_mode!r}")
    if thread_states is not None and len(thread_states) != threads:
        raise MachineError("thread_states must have one dict per thread")

    memory.reset_clock()
    cursor = ChunkCursor(n_tasks, threads, schedule)
    dynamic = schedule.kind == "dynamic"
    chunk_fee = cost.chunk_fee(threads) if dynamic else 0
    atomic_fee = cost.atomic_fee(threads)

    thread_clock = [0] * threads
    thread_busy = [0] * threads
    # Per-thread current chunk: [next_index, hi) or None.
    current: list[list[int] | None] = [None] * threads
    states = thread_states if thread_states is not None else [{} for _ in range(threads)]

    events: list[tuple[int, int, int, int]] = []  # (time, seq, kind, tid)
    seq = 0
    for tid in range(threads):
        heapq.heappush(events, (0, seq, _GRAB, tid))
        seq += 1

    ctx = TaskContext()
    atomic_queue: list[tuple[int, int, int]] = []  # (commit_time, seq, item)
    private_queues: list[list[int]] = [[] for _ in range(threads)]
    executed = 0

    while events:
        time, _, kind, tid = heapq.heappop(events)
        if kind == _GRAB:
            chunk = cursor.next_chunk(tid)
            if chunk is None:
                thread_clock[tid] = max(thread_clock[tid], time)
                continue
            lo, hi = chunk
            current[tid] = [lo, hi]
            start = time + chunk_fee
            thread_busy[tid] += chunk_fee
            heapq.heappush(events, (start, seq, _EXEC, tid))
            seq += 1
            continue

        # _EXEC: run the next task of this thread's current chunk.
        chunk = current[tid]
        if chunk is None:  # pragma: no cover - defensive
            raise SchedulerError("exec event for thread without a chunk")
        index = chunk[0]
        chunk[0] += 1
        task_id = int(task_ids[index]) if task_ids is not None else index

        memory.commit_until(time)
        ctx.reset(memory.values, tid, states[tid])
        kernel(task_id, ctx)
        executed += 1
        if work is not None:
            work.add_task(ctx)

        cycles = cost.task_overhead + ctx.cpu + cost.inflate_memory(ctx.mem, threads)
        if ctx.appends:
            if queue_mode == QUEUE_NONE:
                raise MachineError("kernel appended to queue but queue_mode is 'none'")
            if queue_mode == QUEUE_ATOMIC:
                cycles += atomic_fee * len(ctx.appends)
            else:
                cycles += len(ctx.appends)  # lazy private push: ~1 cycle each
        end = time + cycles
        # Stores become globally visible a race-window fraction into the
        # task, not at its very end — see CostModel.race_window_pct.
        commit_at = time + cost.write_visibility_delay(cycles)
        if ctx.writes:
            memory.write_many(ctx.writes, commit_at)
        if ctx.appends:
            if queue_mode == QUEUE_ATOMIC:
                for item in ctx.appends:
                    atomic_queue.append((end, seq, item))
                    seq += 1
            else:
                private_queues[tid].extend(ctx.appends)
        thread_busy[tid] += cycles
        thread_clock[tid] = end

        if chunk[0] < chunk[1]:
            heapq.heappush(events, (end, seq, _EXEC, tid))
        else:
            current[tid] = None
            heapq.heappush(events, (end, seq, _GRAB, tid))
        seq += 1

    if executed != n_tasks:
        raise SchedulerError(f"executed {executed} of {n_tasks} tasks")

    memory.flush()
    wall = max(thread_clock) if thread_clock else 0
    wall += cost.barrier_cost(threads)

    if queue_mode == QUEUE_ATOMIC:
        atomic_queue.sort()
        queue_items = [item for _, _, item in atomic_queue]
    elif queue_mode == QUEUE_PRIVATE:
        queue_items = [item for q in private_queues for item in q]
    else:
        queue_items = []

    timing = PhaseTiming(
        kind=phase_kind,
        cycles=float(wall),
        thread_cycles=tuple(float(b) for b in thread_busy),
        tasks=n_tasks,
    )
    if tracer is not None and tracer.enabled:
        tracer.counter(
            "machine.phase_cycles",
            timing.cycles,
            kind=phase_kind,
            tasks=n_tasks,
            threads=threads,
        )
    return timing, queue_items
