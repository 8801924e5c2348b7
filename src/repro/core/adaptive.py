"""Adaptive schedules: a conflict-rate controller picking kernels live.

The paper hand-picks its net-removal horizons — ``V-N1`` and ``V-N2``
sweep every net for exactly one or two leading iterations, because a
net-based removal costs O(|E|) regardless of the queue while a
vertex-based removal scans the queued vertices' two-hop neighborhoods.
Which horizon wins depends on how fast the conflict rate collapses, and
that is instance- and thread-count-dependent.  This module stops guessing:
an :class:`AdaptiveSchedule` watches the per-iteration conflict counts the
observability layer already records (``IterationRecord.conflicts``, the
``work.conflict_checks`` counters on the engine's ``last_work`` — see
:class:`repro.core.backends.PhaseEngine`) and keeps the expensive net-based
removal only while the conflict rate stays at or above a configurable
threshold — effectively choosing the paper's ``k`` in ``V-Nk`` live.

The hook is the :class:`ScheduleController` protocol: anything with
``iteration_plan(i)`` (like a plain :class:`~repro.core.plan.ScheduleSpec`)
plus ``observe(...)``/``reset()`` feedback methods can drive
:func:`~repro.core.backends.run_plan_loop`.  Only kernel-level backends
(``sim``, ``process``) run the plan loop; the whole-array
and sharded backends reject controllers with a one-line error.

**Determinism contract:** controller decisions are pure functions of the
observed queue sizes and conflict counts — no wall clock, no randomness.
On the clocked simulator those counters are themselves deterministic, so
an adaptive run is byte-reproducible and safe to pin in
``BENCH_baseline.json`` exactly like a static schedule.  See
``docs/adaptive.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.core.plan import IterationPlan, ScheduleSpec
from repro.errors import ColoringError

__all__ = [
    "DEFAULT_THRESHOLD",
    "AdaptiveDecision",
    "AdaptiveSchedule",
    "ScheduleController",
    "is_adaptive_name",
    "parse_adaptive",
]

#: Conflict rate (conflicts / queue size) below which the controller
#: abandons net-based removal for the cheap vertex-based tail.
DEFAULT_THRESHOLD = 0.05


@runtime_checkable
class ScheduleController(Protocol):
    """A schedule that adapts itself from per-iteration feedback.

    ``run_plan_loop`` duck-types this: any schedule object exposing
    ``observe`` receives the loop's feedback after every iteration, and
    ``reset`` (called once before iteration 0) must return the controller
    to its initial state so one instance can drive several runs.  A plain
    :class:`~repro.core.plan.ScheduleSpec` has neither method and is
    simply consulted statically.
    """

    name: str

    def iteration_plan(self, iteration: int) -> IterationPlan:
        """The phase plans iteration ``iteration`` should run."""
        ...

    def reset(self) -> None:
        """Forget all observations (start of a new run)."""
        ...

    def observe(
        self,
        iteration: int,
        *,
        queue_size: int,
        conflicts: int,
        work=None,
        tracer=None,
    ) -> None:
        """Feedback after iteration ``iteration``.

        ``queue_size`` is the number of vertices the iteration attempted,
        ``conflicts`` how many of them lost a race and re-enter the queue,
        ``work`` the engine's :class:`~repro.obs.work.WorkCounters` for the
        iteration's removal phase (``None`` on engines without counters),
        and ``tracer`` the run's tracer for emitting decision events.
        """
        ...


@dataclass(frozen=True)
class AdaptiveDecision:
    """One iteration's observation and the regime chosen for the next.

    ``conflict_checks`` mirrors the removal phase's
    ``work.conflict_checks`` counter (0 when the engine reports none) —
    the same number the tracer emits — so a decision trace documents both
    *what* was decided and *from which pinned counters*.
    """

    iteration: int
    queue_size: int
    conflicts: int
    rate: float
    conflict_checks: int
    next_regime: str  # "heavy" or "tail"


class AdaptiveSchedule:
    """Conflict-rate feedback controller (:class:`ScheduleController`).

    Starts in the *heavy* regime (default ``"N1-Ninf"``: net-based
    coloring for iteration 0, O(|E|) net-based removal every iteration)
    and drops to the *tail* regime (default ``"V-V-64D"``: all-vertex
    phases on the shrunk queue) from the first iteration whose conflict
    rate ``conflicts / queue_size`` falls below ``threshold``.  In other
    words: where the paper hand-picks the removal horizon ``k`` in
    ``N1-Nk``/``V-Nk``, the controller measures it — the net-based sweep
    keeps its flat O(|E|) price exactly as long as the conflict rate says
    the queue is still heavy.  The switch is one-way: once the frontier
    has collapsed it never regrows, because every queued vertex either
    keeps its color or re-enters the queue.

    Both regimes are ordinary :class:`~repro.core.plan.ScheduleSpec` specs,
    so the tail can also switch *balancing policy* (e.g.
    ``tail="V-V-64D-B1"`` colors the tail with the paper's B1 heuristic,
    or use ``@`` segments for finer control).  The tail must be all-vertex
    — it exists to stop paying the O(|E|) sweeps, and an all-vertex tail
    keeps the net-color/net-removal horizon invariant intact no matter
    which iteration the controller cuts over at (a valid heavy prefix
    truncated at any point stays valid).

    ``decisions`` holds one :class:`AdaptiveDecision` per observed
    iteration for inspection after a run (reset per run).
    """

    def __init__(
        self,
        threshold: float = DEFAULT_THRESHOLD,
        *,
        heavy: "str | ScheduleSpec" = "N1-Ninf",
        tail: "str | ScheduleSpec" = "V-V-64D",
    ):
        try:
            self.threshold = float(threshold)
        except (TypeError, ValueError):
            raise ColoringError(
                f"adaptive threshold must be a number in [0, 1), got "
                f"{threshold!r}"
            ) from None
        if not 0.0 <= self.threshold < 1.0:
            raise ColoringError(
                f"adaptive threshold must be in [0, 1), got {self.threshold:g}"
            )
        self.heavy = ScheduleSpec.parse(heavy)
        self.tail = ScheduleSpec.parse(tail)
        if self.tail.net_color_iters != 0 or self.tail.net_removal_iters != 0:
            raise ColoringError(
                f"adaptive tail spec {self.tail.name!r} must be all-vertex "
                "(the tail regime exists to stop paying O(|E|) net sweeps)"
            )
        self._switch_at: int | None = None
        self.decisions: list[AdaptiveDecision] = []

    # -- naming ---------------------------------------------------------------

    @property
    def name(self) -> str:
        """Canonical controller name (round-trips via :func:`parse_adaptive`)."""
        if self.threshold == DEFAULT_THRESHOLD:
            return "adaptive"
        return f"adaptive:{self.threshold:g}"

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AdaptiveSchedule(threshold={self.threshold:g}, "
            f"heavy={self.heavy.name!r}, tail={self.tail.name!r})"
        )

    # -- the controller -------------------------------------------------------

    @property
    def switched_at(self) -> int | None:
        """First iteration run in the tail regime (``None`` = still heavy)."""
        return self._switch_at

    def reset(self) -> None:
        self._switch_at = None
        self.decisions = []

    def iteration_plan(self, iteration: int) -> IterationPlan:
        if self._switch_at is not None and iteration >= self._switch_at:
            return self.tail.iteration_plan(iteration)
        return self.heavy.iteration_plan(iteration)

    def observe(
        self,
        iteration: int,
        *,
        queue_size: int,
        conflicts: int,
        work=None,
        tracer=None,
    ) -> None:
        rate = conflicts / queue_size if queue_size else 0.0
        if self._switch_at is None and rate < self.threshold:
            self._switch_at = iteration + 1
        regime = "tail" if self._switch_at is not None else "heavy"
        self.decisions.append(
            AdaptiveDecision(
                iteration=iteration,
                queue_size=int(queue_size),
                conflicts=int(conflicts),
                rate=rate,
                conflict_checks=int(getattr(work, "conflict_checks", 0) or 0),
                next_regime=regime,
            )
        )
        if tracer is not None and getattr(tracer, "enabled", False):
            tracer.counter(
                "adaptive.conflict_rate",
                rate,
                iteration=iteration,
                regime=regime,
                threshold=self.threshold,
            )


# -- names ---------------------------------------------------------------------


def is_adaptive_name(name: str) -> bool:
    """Whether ``name`` is in the adaptive grammar ``adaptive[:threshold]``."""
    if not isinstance(name, str):
        return False
    low = name.strip().lower()
    return low == "adaptive" or low.startswith("adaptive:")


def parse_adaptive(name: str) -> AdaptiveSchedule:
    """Parse ``"adaptive"`` / ``"adaptive:<threshold>"`` into a controller.

    Returns a *fresh* controller each call — controllers are stateful
    within a run, so sharing one parsed instance across concurrent runs
    would entangle their decisions.  Raises
    :class:`~repro.errors.ColoringError` (one line) for a malformed or
    out-of-range threshold.
    """
    low = name.strip().lower()
    if low == "adaptive":
        return AdaptiveSchedule()
    body = low.partition(":")[2]
    try:
        threshold = float(body)
    except ValueError:
        raise ColoringError(
            f"cannot parse adaptive schedule {name!r}; expected 'adaptive' "
            "or 'adaptive:<threshold>' with a threshold in [0, 1) "
            "(e.g. 'adaptive:0.1')"
        ) from None
    return AdaptiveSchedule(threshold)
