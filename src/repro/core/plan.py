"""Schedule specs: the paper's ``X-Y`` naming scheme as a structured plan.

The paper's contribution is a *matrix* of schedules — which kernel kind
(vertex- or net-based) runs the coloring and the conflict-removal phase of
each speculative iteration, under which chunk size, queue construction and
balancing policy.  This module makes that matrix first-class:

* :class:`ScheduleSpec` parses any name in the paper's grammar
  (``"V-V-64D"``, ``"V-N∞"``, ``"N1-N2-B1"``, …) into a structured,
  validated spec and canonicalizes it back with ``str(spec)``;
* :meth:`ScheduleSpec.iteration_plan` resolves iteration ``i`` into a pair
  of :class:`PhasePlan` records — everything an execution backend needs to
  run that iteration's two phases, with no schedule knowledge of its own;
* the named algorithm tables (``BGPC_ALGORITHMS`` /
  ``D2GC_ALGORITHMS``) are just :data:`PAPER_SCHEDULES` parsed, so a new
  hybrid schedule is a parse away instead of a three-file edit.

Grammar (case-insensitive; ``∞`` and ``inf`` are interchangeable)::

    spec     := color "-" removal ("-" chunk)? ("-" balancing)? ("-" switch)*
    color    := "V" | "N" horizon          # net-based coloring horizon
    removal  := "V" | "N" horizon          # net-based removal horizon
    horizon  := integer >= 1 | "inf" | "∞"
    chunk    := integer "D"? | "D"         # dynamic chunk; D = lazy private
                                           # queues (the paper's D fix)
    balancing:= "B1" | "B2" | "U"          # §V policies; U = plain first-fit
    switch   := balancing "@" integer >= 1 # per-iteration policy switch

Defaults reproduce the paper's tables: a bare ``V-V`` is ColPack's default
(chunk 1, immediate atomic shared queue); any spec with a net-based horizon
gets the engineered defaults (chunk 64, lazy private queues).  A bare ``D``
implies chunk 64.

Switch segments change the *balancing policy* mid-run: ``"V-V-64D-B1@2"``
runs plain first-fit for iterations 0–1 and B1 from iteration 2 on.
Multiple segments are allowed (``"V-V-B1@1-B2@3"``) with strictly
increasing iteration breakpoints; iteration 0's policy is the base
balancing token (``U`` when absent), so a breakpoint must be >= 1.
:meth:`ScheduleSpec.active_balancing` resolves the label an iteration
runs under, and :meth:`ScheduleSpec.iteration_plan` stamps it into both
phase plans so every kernel-level backend honors the switch through
``run_plan_loop`` (whole-array and sharded backends keep their own round
structure, exactly as they already do for chunk sizes and horizons).

Validation lives here too: net-based coloring finds its work by
``c[u] == UNCOLORED``, so every net-coloring iteration after the first must
follow a net-based removal (which resets losers), giving the invariant
``net_color_iters <= net_removal_iters + 1`` enforced by
:func:`validate_horizons`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import ColoringError
from repro.machine.engine import QUEUE_ATOMIC, QUEUE_NONE, QUEUE_PRIVATE
from repro.types import PhaseKind

__all__ = [
    "INF_ITERS",
    "GRAMMAR_HINT",
    "PAPER_SCHEDULES",
    "BALANCING_POLICIES",
    "PhasePlan",
    "IterationPlan",
    "ScheduleSpec",
    "normalize_schedule_name",
    "resolve_schedule",
    "validate_horizons",
]

#: Effectively-infinite iteration horizon (the paper's ``∞`` suffix).
INF_ITERS = 10**9

#: The eight named schedules of the paper's Section VI, in table order.
PAPER_SCHEDULES = (
    "V-V",
    "V-V-64",
    "V-V-64D",
    "V-Ninf",
    "V-N1",
    "V-N2",
    "N1-N2",
    "N2-N2",
)

#: Balancing suffixes accepted by the grammar (``"U"`` = plain first-fit).
BALANCING_POLICIES = ("U", "B1", "B2")

#: Kernel kinds a phase can resolve to.
KIND_VERTEX = "vertex"
KIND_NET = "net"


def validate_horizons(name: str, net_color_iters: int, net_removal_iters: int) -> None:
    """Enforce the net-color/net-removal horizon invariant.

    Net-based coloring finds its work by ``c[u] == UNCOLORED``, so every
    net-coloring iteration after the first must follow a net-based removal
    (which resets losers to ``UNCOLORED``).  Vertex-based removal only
    queues losers without resetting them, which would starve a subsequent
    net-coloring pass.
    """
    if net_color_iters < 0 or net_removal_iters < 0:
        raise ColoringError("iteration horizons must be non-negative")
    if net_color_iters > net_removal_iters + 1:
        raise ColoringError(
            f"{name}: net_color_iters ({net_color_iters}) may "
            f"exceed net_removal_iters ({net_removal_iters}) by at "
            "most 1 — net coloring must follow a net-based removal"
        )


@dataclass(frozen=True)
class PhasePlan:
    """Everything a backend needs to execute one phase of one iteration.

    Attributes
    ----------
    phase:
        ``PhaseKind.COLOR`` or ``PhaseKind.REMOVE``.
    kind:
        ``"vertex"`` or ``"net"`` — which kernel family runs the phase.
    chunk:
        Dynamic-scheduling chunk size for the phase's parallel for.
    queue_mode:
        Engine queue mode for the phase: ``"atomic"`` / ``"private"`` for a
        vertex-based removal (which feeds the next work queue), ``"none"``
        for every other phase.
    balancing:
        ``"U"``, ``"B1"`` or ``"B2"`` — the §V color-selection policy the
        schedule requests (resolved to a policy object by the driver).
    """

    phase: str
    kind: str
    chunk: int
    queue_mode: str = QUEUE_NONE
    balancing: str = "U"


@dataclass(frozen=True)
class IterationPlan:
    """The resolved pair of phases for one speculative iteration."""

    index: int
    color: PhasePlan
    remove: PhasePlan


_CHUNK_TOKEN = re.compile(r"(\d+)?(D)?", re.IGNORECASE)


def _phase_token_str(horizon: int) -> str:
    if horizon == 0:
        return "V"
    if horizon >= INF_ITERS:
        return "Ninf"
    return f"N{horizon}"


def _parse_phase_token(token: str, raw: str) -> int:
    t = token.upper()
    if t == "V":
        return 0
    if t.startswith("N") and len(t) > 1:
        body = t[1:]
        if body == "INF":
            return INF_ITERS
        if body.isdigit() and int(body) >= 1:
            return int(body)
    raise _parse_error(raw, f"bad phase token {token!r}")


#: The grammar summary quoted by every parse-error message.
GRAMMAR_HINT = "'<V|Nk|Ninf>-<V|Nk|Ninf>[-<chunk>[D]][-B1|-B2][-<B1|B2|U>@<iter>...]'"


def _parse_error(raw: str, detail: str = "") -> ColoringError:
    hint = f" ({detail})" if detail else ""
    error = ColoringError(
        f"cannot parse schedule {raw!r}{hint}; expected one of the named "
        f"schedules {list(PAPER_SCHEDULES)} or a spec matching "
        f"{GRAMMAR_HINT} "
        "(case-insensitive, '∞' == 'inf')"
    )
    # Carried so resolve_schedule can surface the specific reason ("bad
    # switch segment ...") inside its unknown-algorithm message.
    error.detail = detail
    return error


@dataclass(frozen=True)
class ScheduleSpec:
    """A parsed, validated schedule in the paper's ``X-Y`` naming scheme.

    The structured counterpart of an algorithm name: ``ScheduleSpec.parse``
    turns ``"N1-N2-B1"`` into horizons + chunk + queue mode + balancing,
    ``str(spec)`` canonicalizes back (round-tripping every paper name), and
    :meth:`iteration_plan` resolves what iteration ``i`` actually runs.

    Attributes
    ----------
    net_color_iters:
        Leading iterations whose *coloring* phase is net-based (Alg. 8).
    net_removal_iters:
        Leading iterations whose *removal* phase is net-based (Alg. 7);
        ``INF_ITERS`` means "always" (the ``N∞`` suffix).
    chunk:
        Dynamic-scheduling chunk size for every phase.
    queue_mode:
        Next-work queue construction for vertex-based removals:
        ``"atomic"`` or ``"private"`` (the ``D`` fix).
    balancing:
        ``"U"`` (plain first-fit), ``"B1"`` or ``"B2"`` (§V heuristics) —
        the policy iteration 0 starts under.
    switches:
        Per-iteration policy switches as ``(iteration, policy)`` pairs with
        strictly increasing iterations >= 1 (the grammar's ``POLICY@ITER``
        segments): from ``iteration`` on, coloring uses ``policy`` instead
        of the previous label.  Empty for a single-policy run.
    """

    net_color_iters: int = 0
    net_removal_iters: int = 0
    chunk: int = 64
    queue_mode: str = QUEUE_PRIVATE
    balancing: str = "U"
    switches: tuple[tuple[int, str], ...] = ()

    def __post_init__(self) -> None:
        if self.chunk < 1:
            raise ColoringError(f"chunk must be >= 1, got {self.chunk}")
        if self.queue_mode not in (QUEUE_ATOMIC, QUEUE_PRIVATE):
            raise ColoringError(f"bad queue mode {self.queue_mode!r}")
        if self.balancing not in BALANCING_POLICIES:
            raise ColoringError(
                f"bad balancing {self.balancing!r}; choose from {BALANCING_POLICIES}"
            )
        switches = tuple(
            (int(iteration), str(policy)) for iteration, policy in self.switches
        )
        object.__setattr__(self, "switches", switches)
        previous = 0
        for iteration, policy in switches:
            if policy not in BALANCING_POLICIES:
                raise ColoringError(
                    f"bad switch policy {policy!r}; choose from {BALANCING_POLICIES}"
                )
            if iteration < 1:
                raise ColoringError(
                    f"switch iteration must be >= 1, got {iteration} "
                    "(iteration 0 runs the base balancing policy)"
                )
            if iteration <= previous and previous:
                raise ColoringError(
                    f"switch iterations must be strictly increasing, got "
                    f"{iteration} after {previous}"
                )
            previous = iteration
        validate_horizons(str(self), self.net_color_iters, self.net_removal_iters)

    # -- naming ---------------------------------------------------------------

    @property
    def name(self) -> str:
        """Canonical schedule name (same as ``str(spec)``)."""
        return str(self)

    def __str__(self) -> str:
        parts = [
            _phase_token_str(self.net_color_iters),
            _phase_token_str(self.net_removal_iters),
        ]
        default_chunk, default_queue = self._shape_defaults(
            self.net_color_iters, self.net_removal_iters
        )
        if (self.chunk, self.queue_mode) != (default_chunk, default_queue):
            suffix = "D" if self.queue_mode == QUEUE_PRIVATE else ""
            parts.append(f"{self.chunk}{suffix}")
        if self.balancing != "U":
            parts.append(self.balancing)
        for iteration, policy in self.switches:
            parts.append(f"{policy}@{iteration}")
        return "-".join(parts)

    @staticmethod
    def _shape_defaults(net_color_iters: int, net_removal_iters: int) -> tuple[int, str]:
        """Default (chunk, queue_mode) of a schedule shape.

        Plain ``V-V`` is ColPack's default (chunk 1, immediate atomic
        queue); any net-based horizon implies the paper's engineered
        defaults (chunk 64, lazy private queues).
        """
        if net_color_iters == 0 and net_removal_iters == 0:
            return 1, QUEUE_ATOMIC
        return 64, QUEUE_PRIVATE

    # -- parsing --------------------------------------------------------------

    @classmethod
    def parse(cls, name: "str | ScheduleSpec") -> "ScheduleSpec":
        """Parse a schedule name (any alias) into a :class:`ScheduleSpec`.

        Accepts the paper's spellings and every alias the grammar admits:
        case-insensitive tokens, ``∞`` for ``inf``, explicit chunk/queue
        and balancing suffixes.  An already-structured spec passes through.
        """
        if isinstance(name, ScheduleSpec):
            return name
        if not isinstance(name, str):
            raise ColoringError(
                f"schedule must be a name or spec, got {type(name).__name__}"
            )
        raw = name
        tokens = name.strip().replace("∞", "inf").split("-")
        if len(tokens) < 2 or any(not t for t in tokens):
            raise _parse_error(raw)
        net_color_iters = _parse_phase_token(tokens[0], raw)
        net_removal_iters = _parse_phase_token(tokens[1], raw)
        chunk: int | None = None
        private: bool | None = None
        balancing: str | None = None
        switches: list[tuple[int, str]] = []
        for token in tokens[2:]:
            t = token.upper()
            if "@" in t:
                policy, _, at = t.partition("@")
                if policy not in BALANCING_POLICIES:
                    raise _parse_error(
                        raw,
                        f"bad switch segment {token!r}: policy must be one "
                        f"of {BALANCING_POLICIES}",
                    )
                if not at.isdigit():
                    raise _parse_error(
                        raw,
                        f"bad switch segment {token!r}: expected "
                        "<B1|B2|U>@<iteration> with an integer iteration >= 1",
                    )
                start = int(at)
                if start < 1:
                    raise _parse_error(
                        raw,
                        f"bad switch segment {token!r}: iteration must be "
                        ">= 1 (iteration 0 runs the base balancing policy)",
                    )
                switches.append((start, policy))
            elif t in BALANCING_POLICIES:
                if balancing is not None:
                    raise _parse_error(raw, "duplicate balancing token")
                balancing = t
            else:
                m = _CHUNK_TOKEN.fullmatch(t)
                if m is None or (m.group(1) is None and m.group(2) is None):
                    raise _parse_error(raw, f"bad modifier {token!r}")
                if chunk is not None or private is not None:
                    raise _parse_error(raw, "duplicate chunk token")
                chunk = int(m.group(1)) if m.group(1) else None
                private = m.group(2) is not None
        for (a, _), (b, _) in zip(switches, switches[1:]):
            if b == a:
                raise _parse_error(raw, f"duplicate switch iteration {b}")
            if b < a:
                raise _parse_error(
                    raw,
                    f"switch iterations must be strictly increasing, got "
                    f"{b} after {a}",
                )
        default_chunk, default_queue = cls._shape_defaults(
            net_color_iters, net_removal_iters
        )
        if chunk is None and private is None:
            chunk_val, queue_mode = default_chunk, default_queue
        else:
            # An explicit chunk token overrides the shape defaults: a bare
            # number means the immediate atomic queue (the paper's "-64"),
            # a trailing D the lazy private queues; a bare D implies the
            # engineered chunk 64.
            chunk_val = chunk if chunk is not None else 64
            queue_mode = QUEUE_PRIVATE if private else QUEUE_ATOMIC
        return cls(
            net_color_iters=net_color_iters,
            net_removal_iters=net_removal_iters,
            chunk=chunk_val,
            queue_mode=queue_mode,
            balancing=balancing if balancing is not None else "U",
            switches=tuple(switches),
        )

    # -- the plan -------------------------------------------------------------

    def active_balancing(self, iteration: int) -> str:
        """The balancing policy label iteration ``iteration`` runs under.

        The base :attr:`balancing` until the first switch segment whose
        iteration has been reached, then that segment's policy, and so on —
        the last crossed breakpoint wins.
        """
        label = self.balancing
        for start, policy in self.switches:
            if iteration < start:
                break
            label = policy
        return label

    def iteration_plan(self, iteration: int) -> IterationPlan:
        """Resolve iteration ``iteration`` into its two phase plans."""
        color_kind = KIND_NET if iteration < self.net_color_iters else KIND_VERTEX
        remove_kind = KIND_NET if iteration < self.net_removal_iters else KIND_VERTEX
        balancing = self.active_balancing(iteration)
        color = PhasePlan(
            phase=PhaseKind.COLOR,
            kind=color_kind,
            chunk=self.chunk,
            queue_mode=QUEUE_NONE,
            balancing=balancing,
        )
        remove = PhasePlan(
            phase=PhaseKind.REMOVE,
            kind=remove_kind,
            chunk=self.chunk,
            queue_mode=self.queue_mode if remove_kind == KIND_VERTEX else QUEUE_NONE,
            balancing=balancing,
        )
        return IterationPlan(index=iteration, color=color, remove=remove)


def normalize_schedule_name(name: str) -> str:
    """Canonical spelling of any schedule alias.

    ``"v-n∞"`` → ``"V-Ninf"``, ``"n1-n2-b1"`` → ``"N1-N2-B1"``.  Raises
    :class:`~repro.errors.ColoringError` (listing the named schedules and
    the grammar) when the name does not parse.
    """
    return str(ScheduleSpec.parse(name))


def resolve_schedule(
    algorithm: "str | ScheduleSpec | object", problem: str = ""
) -> "ScheduleSpec | object":
    """Resolve a user-facing algorithm argument to a runnable schedule.

    Structured specs pass through; strings parse to their
    :class:`ScheduleSpec` (any alias or novel combination the grammar
    admits, e.g. ``"N1-Ninf-B2"``).  The adaptive controller names
    (``"adaptive"``, ``"adaptive:<threshold>"`` — see
    :mod:`repro.core.adaptive`) resolve to a fresh
    :class:`~repro.core.adaptive.AdaptiveSchedule`.  Unknown names raise a
    :class:`~repro.errors.ColoringError` listing the valid names.
    """
    if isinstance(algorithm, ScheduleSpec):
        return algorithm
    if hasattr(algorithm, "observe") and hasattr(algorithm, "iteration_plan"):
        # A ScheduleController instance (e.g. AdaptiveSchedule) passes
        # through like a structured spec; the driver gates backends.
        return algorithm
    if isinstance(algorithm, str):
        # Deferred import: repro.core.adaptive builds on this module.
        from repro.core.adaptive import is_adaptive_name, parse_adaptive

        if is_adaptive_name(algorithm):
            return parse_adaptive(algorithm)
    try:
        return ScheduleSpec.parse(algorithm)
    except ColoringError as exc:
        label = f"{problem} " if problem else ""
        detail = getattr(exc, "detail", "")
        reason = f" ({detail})" if detail else ""
        raise ColoringError(
            f"unknown {label}algorithm {algorithm!r}{reason}; choose from "
            f"{sorted(PAPER_SCHEDULES)}, 'adaptive[:threshold]', or any spec "
            f"matching {GRAMMAR_HINT}"
        ) from exc
