"""Optional numba-compiled execution backend (``backend="compiled"``).

The vectorized NumPy fast path (:mod:`repro.core.fastpath`) already runs
the speculative template as whole-array passes; this backend JIT-compiles
the *same* exact/speculative round loops to native code with numba, so the
per-round work is a single fused scan with no temporaries.  The kernel
contract is the one the parity matrix and the work-metric regress gate
pin: colorings are byte-identical to ``backend="numpy"`` (both modes),
per-round records and work counters match exactly, and the
:data:`repro.obs.work.FASTPATH_METRICS` extras carry the same values.

numba is an *optional* dependency: the backend registers unconditionally
(so ``--backend compiled`` is always a valid choice), but selecting it
without numba raises a :class:`~repro.errors.ColoringError`, which the CLI
turns into a one-line ``error:`` + exit 2 and the service router treats as
"unavailable" (falling back to :attr:`CompiledBackend.fallback` for
size-routed requests — see :mod:`repro.service.router`).

The kernels are written as plain-Python loop nests that numba can compile
unchanged (``_load_kernels`` wraps them in ``numba.njit``).  Setting the
``REPRO_COMPILED_PURE`` environment variable makes ``_load_kernels``
return the uncompiled functions instead — a debug/test hook that lets the
kernel *semantics* be exercised (slowly) where numba is not installed;
the tier-1 suite uses it to keep the parity tests running everywhere.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.backends import Capabilities, _reject_options
from repro.core.fastpath.bitset import mask_words
from repro.core.fastpath.engine import GroupLayout, _emit_round_work
from repro.errors import ColoringError
from repro.obs.tracer import ensure_tracer
from repro.obs.work import WorkCounters
from repro.types import ColoringResult, IterationRecord, UNCOLORED

__all__ = ["CompiledBackend", "numba_available"]

#: Environment variable: run the kernels as plain Python (no numba).
PURE_ENV = "REPRO_COMPILED_PURE"


def numba_available() -> bool:
    """True when ``import numba`` succeeds."""
    try:
        import numba  # noqa: F401
    except Exception:
        return False
    return True


# -- kernels ------------------------------------------------------------------
#
# Written against the GroupLayout arrays (sorted-member groups CSR plus its
# transpose) so the compiled rounds see exactly the data the numpy rounds
# see.  ``stamp``/``seen`` are timestamped scratch arrays: a monotonically
# increasing ``token`` marks entries written for the current vertex/group,
# so the arrays never need clearing between rounds.


def _exact_frontier(gptr, gidx, tptr, tgroups, colors, front):
    """Collect the frontier: uncolored vertices whose every smaller
    co-member is colored.  Returns the frontier size (vertices in
    ``front[:nf]``, ascending)."""
    n = tptr.shape[0] - 1
    nf = 0
    for v in range(n):
        if colors[v] >= 0:
            continue
        ok = True
        for j in range(tptr[v], tptr[v + 1]):
            g = tgroups[j]
            for e in range(gptr[g], gptr[g + 1]):
                m = gidx[e]
                if m >= v:
                    break
                if colors[m] < 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            front[nf] = v
            nf += 1
    return nf


def _exact_color(gptr, gidx, tptr, tgroups, colors, front, nf, stamp, token,
                 cmax):
    """First-fit color the frontier (its vertices share no group, so
    immediate writes cannot interfere).  Smaller co-members are exactly
    the colored ones — the same sorted prefixes the numpy engine slices.
    Returns ``(scans, token, cmax)``."""
    scans = 0
    for i in range(nf):
        v = front[i]
        token += 1
        for j in range(tptr[v], tptr[v + 1]):
            g = tgroups[j]
            for e in range(gptr[g], gptr[g + 1]):
                m = gidx[e]
                if m >= v:
                    break
                stamp[colors[m]] = token
                scans += 1
        c = 0
        while stamp[c] == token:
            c += 1
        colors[v] = c
        if c > cmax:
            cmax = c
    return scans, token, cmax


def _spec_round(gptr, gidx, tptr, tgroups, colors, was_unc, rank, stamp,
                seen, loser, token, cmax):
    """One speculative round: snapshot → rank → rank-offset first fit →
    Alg. 7 detection (first claimant of each ``(group, color)`` keeps) →
    demote losers.  Reads only round-start colors while picking, exactly
    like the numpy whole-array pass.  Returns ``(queue_size, scans,
    checks, conflicts, rmax, token, cmax)``."""
    n = tptr.shape[0] - 1
    n_groups = gptr.shape[0] - 1
    queue_size = 0
    for v in range(n):
        u = colors[v] < 0
        was_unc[v] = u
        rank[v] = 0
        loser[v] = False
        if u:
            queue_size += 1
    # rank = max over the vertex's groups of smaller uncolored co-members
    # (exclusive running count over the sorted member lists).
    scans = 0
    for g in range(n_groups):
        cnt = 0
        for e in range(gptr[g], gptr[g + 1]):
            m = gidx[e]
            if was_unc[m]:
                if cnt > rank[m]:
                    rank[m] = cnt
                cnt += 1
                scans += 1
    # Tentative picks: the (rank+1)-th color free of round-start colors.
    rmax = 0
    for v in range(n):
        if not was_unc[v]:
            continue
        if rank[v] > rmax:
            rmax = rank[v]
        token += 1
        for j in range(tptr[v], tptr[v + 1]):
            g = tgroups[j]
            for e in range(gptr[g], gptr[g + 1]):
                m = gidx[e]
                if not was_unc[m]:
                    stamp[colors[m]] = token
        need = rank[v]
        c = 0
        while True:
            if stamp[c] != token:
                if need == 0:
                    break
                need -= 1
            c += 1
        colors[v] = c
        if c > cmax:
            cmax = c
    # Detection: within each group the smallest-id claimant of each color
    # keeps; a vertex that loses in *any* group is demoted.
    checks = 0
    conflicts = 0
    for g in range(n_groups):
        token += 1
        for e in range(gptr[g], gptr[g + 1]):
            m = gidx[e]
            if was_unc[m]:
                checks += 1
                c = colors[m]
                if seen[c] == token:
                    if not loser[m]:
                        loser[m] = True
                        conflicts += 1
                else:
                    seen[c] = token
    for v in range(n):
        if loser[v]:
            colors[v] = -1
    return queue_size, scans, checks, conflicts, rmax, token, cmax


_KERNELS: tuple | None = None


def _load_kernels():
    """The (possibly JIT-compiled) kernel triple, compiled once per process.

    With ``REPRO_COMPILED_PURE`` set the plain-Python functions are
    returned; otherwise numba is required and its absence is a
    :class:`~repro.errors.ColoringError` (one line through the CLI).
    """
    global _KERNELS
    if os.environ.get(PURE_ENV):
        return _exact_frontier, _exact_color, _spec_round
    if _KERNELS is None:
        try:
            from numba import njit
        except ImportError:
            raise ColoringError(
                "backend='compiled' requires numba, which is not installed; "
                "pip install numba or choose --backend numpy"
            ) from None
        jit = njit(cache=True, nogil=True)
        _KERNELS = (jit(_exact_frontier), jit(_exact_color), jit(_spec_round))
    return _KERNELS


# -- backend ------------------------------------------------------------------


class CompiledBackend:
    """numba-JIT round loops behind the execution-backend registry.

    Mirrors :class:`repro.core.backends.NumpyBackend`'s contract exactly
    (first-fit only, no resume, ``fastpath_mode`` selects exact or
    speculative) and produces byte-identical colorings, records and work
    counters — the regress gate can run the numpy suite cases on this
    backend against the numpy baseline (``--map-backend numpy=compiled``)
    and must see zero drift.
    """

    name = "compiled"
    capabilities = Capabilities()
    #: Router fallback when numba is missing and the backend was not
    #: explicitly pinned (see :class:`repro.service.router.SizeRouter`).
    fallback = "numpy"

    def available(self) -> bool:
        """True when :meth:`run` can execute (numba, or the pure hook)."""
        return numba_available() or bool(os.environ.get(PURE_ENV))

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
        from repro.core.fastpath.engine import FASTPATH_MODES

        _reject_options(self.name, options)
        if fastpath_mode not in FASTPATH_MODES:
            raise ColoringError(
                f"unknown fastpath mode {fastpath_mode!r}; "
                f"choose from {FASTPATH_MODES}"
            )
        kernels = _load_kernels()
        tracer = ensure_tracer(tracer)
        groups = adapter.fastpath_groups()
        run_work = WorkCounters()
        t0 = time.perf_counter()
        with tracer.span(
            "run", algorithm=name, backend=self.name, mode=fastpath_mode
        ) as run_span:
            with tracer.span("setup", mode=fastpath_mode) as setup_span:
                lay = GroupLayout(groups)
                setup_span.set(
                    vertices=lay.n, groups=lay.n_groups,
                    entries=int(lay.gidx.size),
                )
            if fastpath_mode == "exact":
                colors, records, extras = _run_exact(
                    lay, kernels, tracer, run_work
                )
            else:
                colors, records, extras = _run_speculative(
                    lay, kernels, tracer, run_work
                )
            run_span.set(
                num_colors=int(colors.max()) + 1 if colors.size else 0,
                iterations=len(records),
            )
        wall = time.perf_counter() - t0
        metrics = run_work.as_dict()
        metrics.update(extras)
        return ColoringResult(
            colors=colors,
            num_colors=int(colors.max()) + 1 if colors.size else 0,
            iterations=records,
            algorithm=name,
            threads=1,
            cycles=0.0,
            backend=self.name,
            wall_seconds=wall,
            work_metrics=metrics,
        )


def _run_exact(lay, kernels, tracer, work):
    """Level-synchronous rounds over the compiled kernels (byte-identical
    to sequential greedy and to ``numpy``'s exact mode)."""
    exact_frontier, exact_color, _ = kernels
    n = lay.n
    colors = np.full(n, UNCOLORED, dtype=np.int32)
    front = np.empty(n, dtype=np.int64)
    stamp = np.full(2 * n + 2, -1, dtype=np.int64)
    token = 0
    cmax = -1
    colored = 0
    rounds = 0
    records: list[IterationRecord] = []
    bound = n + 1
    while colored < n:
        if rounds >= bound:
            raise ColoringError(
                f"fastpath exact mode did not converge in {bound} rounds"
            )
        t_round = time.perf_counter()
        nf = int(exact_frontier(
            lay.gptr, lay.gidx, lay.tptr, lay.tgroups, colors, front
        ))
        cmax_before = cmax
        scans, token, cmax = exact_color(
            lay.gptr, lay.gidx, lay.tptr, lay.tgroups, colors, front, nf,
            stamp, token, cmax,
        )
        cmax = int(cmax)
        colored += nf
        introduced = cmax - cmax_before
        _emit_round_work(
            tracer, work, rounds, "exact",
            tasks=nf, scans=int(scans), checks=0, pushes=0, writes=nf,
        )
        round_wall = time.perf_counter() - t_round
        records.append(
            IterationRecord(
                index=rounds,
                queue_size=nf,
                conflicts=0,
                color_timing=None,
                remove_timing=None,
                colors_introduced=introduced,
                wall_seconds=round_wall,
            )
        )
        if tracer.enabled:
            tracer.event(
                "span", "round", round_wall, mode="exact", iteration=rounds,
                queue_size=nf, items=nf, conflicts=0,
                colors_introduced=introduced,
            )
        rounds += 1
    return colors.astype(np.int64), records, {}


def _run_speculative(lay, kernels, tracer, work):
    """Speculative rounds over the compiled kernel, with per-round records,
    work counters and :data:`~repro.obs.work.FASTPATH_METRICS` extras all
    matching the numpy engine number-for-number."""
    _, _, spec_round = kernels
    n = lay.n
    colors = np.full(n, UNCOLORED, dtype=np.int32)
    was_unc = np.zeros(n, dtype=np.bool_)
    loser = np.zeros(n, dtype=np.bool_)
    rank = np.zeros(n, dtype=np.int64)
    stamp = np.full(2 * n + 2, -1, dtype=np.int64)
    seen = np.full(2 * n + 2, -1, dtype=np.int64)
    token = 0
    cmax = -1
    rounds = 0
    uncolored = n
    palette = 0
    palette_words = 0
    mask_or_words = 0
    records: list[IterationRecord] = []
    bound = n + 1
    while uncolored:
        if rounds >= bound:
            raise ColoringError(
                f"fastpath speculative mode did not converge in {bound} rounds"
            )
        t_round = time.perf_counter()
        cmax_start = cmax
        # The numpy engine's bitset rounds OR one mask row per (queue
        # vertex, group) pair; mirror its structure metrics exactly.
        queue_tdeg = int(lay.tdeg[colors < 0].sum()) if cmax_start >= 0 else 0
        queue_size, scans, checks, conflicts, rmax, token, cmax = spec_round(
            lay.gptr, lay.gidx, lay.tptr, lay.tgroups, colors, was_unc,
            rank, stamp, seen, loser, token, cmax,
        )
        cmax = int(cmax)
        if cmax_start >= 0:
            words = mask_words(cmax_start + 2 + int(rmax) + 1)
            palette_words = max(palette_words, words)
            mask_or_words += queue_tdeg * words
            if tracer.enabled:
                tracer.counter(
                    "fastpath.palette_words", words,
                    iteration=rounds, mode="speculative",
                )
        committed_max = int(colors.max(initial=-1)) if n else -1
        introduced = max(0, committed_max + 1 - palette)
        palette = max(palette, committed_max + 1)
        _emit_round_work(
            tracer, work, rounds, "speculative",
            tasks=int(queue_size), scans=int(scans), checks=int(checks),
            pushes=int(conflicts), writes=int(queue_size) + int(conflicts),
        )
        round_wall = time.perf_counter() - t_round
        records.append(
            IterationRecord(
                index=rounds,
                queue_size=int(queue_size),
                conflicts=int(conflicts),
                color_timing=None,
                remove_timing=None,
                colors_introduced=introduced,
                wall_seconds=round_wall,
            )
        )
        if tracer.enabled:
            tracer.event(
                "span", "round", round_wall, mode="speculative",
                iteration=rounds, queue_size=int(queue_size),
                items=int(queue_size), conflicts=int(conflicts),
                colors_introduced=introduced,
            )
        uncolored = int(conflicts)
        rounds += 1
    extras = {
        "fastpath.palette_words": palette_words,
        "fastpath.mask_or_words": mask_or_words,
    }
    return colors.astype(np.int64), records, extras
