"""Vectorized speculative-coloring engine: whole-array NumPy passes.

The simulated machine executes the paper's kernels one task at a time to
count cycles; this module executes the *same* speculative
color → detect-conflicts → repeat template (paper Algs. 1–3) as a handful
of whole-array NumPy passes per round, so a coloring finishes at real
hardware speed.  One engine serves both problems because both reduce to
the same structure: a "groups" CSR mapping each constraint group to its
member vertices — the nets of a bipartite instance for BGPC, the closed
neighborhoods for D2GC (see :func:`repro.core.fastpath.d2gc.d2gc_groups_csr`).
Two members of a group must not share a color.

Two modes are provided:

``exact``
    Level-synchronous greedy.  Per round the frontier is every uncolored
    vertex with no smaller-id uncolored co-member; frontier vertices take
    the smallest color unused among their (necessarily already colored)
    smaller co-members.  Because the co-membership relation is symmetric,
    this is byte-identical to the sequential natural-order greedy — same
    colors, same count — at the price of one round per level of the
    dependency DAG.
``speculative``
    The paper's optimistic template.  Every uncolored vertex tentatively
    picks a color in one pass (rank-offset first fit: the ``(r+1)``-th
    free color, where ``r`` counts smaller uncolored co-members, so the
    members of a clique spread over distinct colors immediately), then a
    net-based detection sweep (Alg. 7: first member of a net keeps each
    color) demotes all but the smallest-id claimant of every
    ``(group, color)`` pair.  Converges in a handful of rounds and is
    deterministic, but — exactly like the paper's parallel runs — the
    palette may differ from the sequential one.

Everything here is pure NumPy on int32/int64 arrays; no simulated machine,
no cycle counts.  The per-round records report queue sizes, conflicts,
palette growth (``colors_introduced``) and measured per-round
``wall_seconds``, with ``None`` phase timings; pass a
:class:`repro.obs.Tracer` to stream the same numbers as structured
``setup``/``round`` events (see ``docs/observability.md``).

This engine is wrapped by :class:`repro.core.backends.NumpyBackend` and
registered as ``"numpy"`` in the execution-backend registry, which is how
``run_speculative``/``color_bgpc``/``color_d2gc`` and the CLI reach it
(see ``docs/backends.md``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.fastpath.bitset import (
    mask_words,
    nth_free_color,
    or_reduce_segments,
    pack_color_masks,
)
from repro.errors import ColoringError
from repro.graph.csr import CSR, ragged_take
from repro.obs.tracer import NULL_TRACER, ensure_tracer
from repro.obs.work import WorkCounters
from repro.types import IterationRecord, UNCOLORED

__all__ = ["FASTPATH_MODES", "GroupLayout", "rank_dtype", "run_fastpath"]

#: Engine modes: ``exact`` (byte-identical to sequential) and
#: ``speculative`` (paper-style optimistic rounds).
FASTPATH_MODES = ("exact", "speculative")


def rank_dtype(n_entries: int):
    """Accumulator dtype for cumulative counts over ``n_entries`` entries.

    The speculative rank pass runs ``np.cumsum`` over every CSR entry; its
    values are bounded by the entry count, so int32 is safe — and cheaper —
    exactly while ``n_entries`` stays under the int32 guard that
    :class:`GroupLayout` already applies to its index arrays.  At ≥2³¹
    entries the cumsum would silently wrap, so the accumulator widens to
    int64 in lockstep.
    """
    return np.int32 if n_entries < np.iinfo(np.int32).max else np.int64


class GroupLayout:
    """Sorted-member CSR layout shared by both engine modes.

    Built once per instance from the groups CSR (groups × vertices):

    * ``gptr``/``gidx`` — the groups CSR with each member list sorted
      ascending (sorting never changes greedy results: min/mex/first-
      occurrence are order-free, but sortedness is what makes ranks and
      colored prefixes expressible as array slices);
    * ``tptr``/``tgroups`` — the transposed view: the groups containing
      each vertex, in group order;
    * ``prefix_len`` — aligned with ``tgroups``: how many members of that
      group have a smaller id than this vertex, i.e. the length of the
      vertex's sorted-prefix in the group's member list.
    """

    def __init__(self, groups: CSR):
        gptr = np.asarray(groups.ptr, dtype=np.int64)
        n_groups = groups.nrows
        n = groups.ncols
        small = n < np.iinfo(np.int32).max and groups.idx.size < np.iinfo(np.int32).max
        itype = np.int32 if small else np.int64
        gidx = np.asarray(groups.idx, dtype=itype)
        gdeg = np.diff(gptr)
        group_of_entry = np.repeat(np.arange(n_groups, dtype=itype), gdeg)
        if gidx.size > 1:
            seg_start = np.zeros(gidx.size, dtype=bool)
            seg_start[gptr[:-1][gdeg > 0]] = True
            if np.any((np.diff(gidx) < 0) & ~seg_start[1:]):
                gidx = gidx[np.lexsort((gidx, group_of_entry))]
        self.n = n
        self.n_groups = n_groups
        self.itype = itype
        self.rank_dtype = rank_dtype(gidx.size)
        self.gptr = gptr
        self.gidx = gidx
        self.gdeg = gdeg
        self.group_of_entry = group_of_entry
        # Transpose: stable sort by member id keeps, per vertex, ascending
        # group order (gidx is laid out group-major).
        order = np.argsort(gidx, kind="stable")
        self.tdeg = np.bincount(gidx, minlength=n).astype(np.int64)
        self.tptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.tdeg, out=self.tptr[1:])
        self.tgroups = group_of_entry[order]
        self.gpos = order
        self.prefix_len = order - gptr[self.tgroups]


def _emit_round_work(tracer, work: WorkCounters | None, rounds: int, mode: str,
                     tasks: int, scans: int, checks: int, pushes: int,
                     writes: int) -> None:
    """Record one vectorized round's work deltas (counter parity with the
    per-task backends: a "task" here is one vertex processed by the round's
    whole-array pass)."""
    if work is None and not tracer.enabled:
        return
    delta = WorkCounters()
    delta.tasks = tasks
    delta.scans = scans
    delta.conflict_checks = checks
    delta.queue_pushes = pushes
    delta.color_writes = writes
    if work is not None:
        work.merge(delta)
    if tracer.enabled:
        delta.emit(tracer, iteration=rounds, mode=mode)


def _color_exact(lay: GroupLayout, max_rounds: int, tracer=NULL_TRACER, work=None):
    """Level-synchronous rounds; byte-identical to sequential greedy.

    Invariant: a vertex is frontier exactly when every uncolored member of
    each of its groups has a larger id — so the already-colored members of
    a group are precisely the sorted-prefix before the frontier vertex,
    and their colors can be gathered as a slice (``prefix_len``).  Per
    group a cursor walks the sorted member list; the frontier is detected
    by counting, per vertex, how many of its groups have their cursor
    parked on it.
    """
    n, gptr, gidx = lay.n, lay.gptr, lay.gidx
    colors = np.full(n, UNCOLORED, dtype=np.int32)
    cur = gptr[:-1].copy()
    alive = lay.gdeg > 0
    count = np.zeros(n, dtype=np.int64)
    if np.any(alive):
        count = np.bincount(gidx[cur[alive]], minlength=n).astype(np.int64)
    frontier = np.nonzero(count == lay.tdeg)[0]
    cmax = -1
    records: list[IterationRecord] = []
    colored = 0
    rounds = 0
    while colored < n:
        if rounds >= max_rounds:
            raise ColoringError(
                f"fastpath exact mode did not converge in {max_rounds} rounds"
            )
        t_round = time.perf_counter()
        cmax_before = cmax
        F = frontier
        flat_idx, own1 = ragged_take(
            np.arange(lay.tgroups.size, dtype=np.int64), lay.tptr[F], lay.tdeg[F]
        )
        gl = lay.tgroups[flat_idx]
        pl = lay.prefix_len[flat_idx]
        mem, own2 = ragged_take(gidx, gptr[gl], pl)
        pair_owner = own1[own2]
        used = np.zeros((F.size, cmax + 2), dtype=bool)
        used[pair_owner, colors[mem]] = True
        t = used.argmin(axis=1)
        colors[F] = t
        if t.size:
            cmax = max(cmax, int(t.max()))
        colored += F.size
        # Advance the cursor of every affected group past colored members.
        # Each group holds at most one frontier vertex per round, so ``gl``
        # is duplicate-free and total advances are bounded by the entries.
        active = np.asarray(gl, dtype=np.int64)
        new_front_src = []
        while active.size:
            cur[active] += 1
            active = active[cur[active] < gptr[active + 1]]
            if not active.size:
                break
            m = gidx[cur[active]]
            is_colored = colors[m] >= 0
            settled = m[~is_colored]
            if settled.size:
                new_front_src.append(settled)
            active = active[is_colored]
        # First-fit colors are introduced in order (the used set is always a
        # prefix of 0..cmax), so palette growth is exactly the cmax delta.
        introduced = cmax - cmax_before
        _emit_round_work(
            tracer, work, rounds, "exact",
            tasks=int(F.size), scans=int(mem.size), checks=0,
            pushes=0, writes=int(F.size),
        )
        round_wall = time.perf_counter() - t_round
        records.append(
            IterationRecord(
                index=rounds,
                queue_size=int(F.size),
                conflicts=0,
                color_timing=None,
                remove_timing=None,
                colors_introduced=introduced,
                wall_seconds=round_wall,
            )
        )
        if tracer.enabled:
            tracer.event(
                "span",
                "round",
                round_wall,
                mode="exact",
                iteration=rounds,
                queue_size=int(F.size),
                items=int(F.size),
                conflicts=0,
                colors_introduced=introduced,
            )
        if new_front_src:
            mvals = np.concatenate(new_front_src).astype(np.int64)
            np.add.at(count, mvals, 1)
            cand = np.unique(mvals)
            frontier = cand[count[cand] == lay.tdeg[cand]]
        else:
            frontier = np.empty(0, dtype=np.int64)
        rounds += 1
    return colors.astype(np.int64), records


def _color_speculative(lay: GroupLayout, max_rounds: int, tracer=NULL_TRACER,
                       work=None, extras=None):
    """Optimistic rounds: rank-offset first fit + net-based detection.

    The per-round forbidden sets are packed uint64 bitsets (64 colors per
    word, see :mod:`repro.core.fastpath.bitset`): per-group masks built by
    a sort + segmented OR, OR-combined per queue vertex with
    ``np.bitwise_or.reduceat`` over the transposed layout, and the
    rank-offset first fit answered by a vectorized find-``(r+1)``-th-zero-
    bit — no scipy, and ~32x less per-round memory than the dense float
    indicator matrix this replaces (colors are byte-identical: both
    compute the same ``(r+1)``-th free color).
    """
    n, gptr, gidx = lay.n, lay.gptr, lay.gidx
    gdeg, n_groups = lay.gdeg, lay.n_groups
    goe = lay.group_of_entry
    t_nonempty = lay.tdeg > 0
    t_ne_starts = lay.tptr[:-1][t_nonempty]
    colors = np.full(n, UNCOLORED, dtype=np.int32)
    records: list[IterationRecord] = []
    cmax = -1
    rounds = 0
    uncolored = n
    palette = 0
    palette_words = 0
    mask_or_words = 0
    while uncolored:
        if rounds >= max_rounds:
            raise ColoringError(
                f"fastpath speculative mode did not converge in {max_rounds} rounds"
            )
        t_round = time.perf_counter()
        entry_col = colors[gidx]
        unc_entry = entry_col < 0
        # rank = max over the vertex's groups of the number of *smaller*
        # uncolored co-members (an exclusive running count over the sorted
        # member lists, then a per-vertex segmented max).  The accumulator
        # widens to int64 past 2**31 entries (see :func:`rank_dtype`).
        pre = np.cumsum(unc_entry, dtype=lay.rank_dtype) - unc_entry
        rep = np.repeat(pre[gptr[:-1]], gdeg) if gidx.size else pre[:0]
        rank_entry = pre - rep
        rank_v = np.zeros(n, dtype=lay.rank_dtype)
        if t_ne_starts.size:
            rank_v[t_nonempty] = np.maximum.reduceat(rank_entry[lay.gpos], t_ne_starts)
        queue = np.nonzero(colors == UNCOLORED)[0]
        r = rank_v[queue]
        if cmax < 0:
            # First round: nothing is colored, the (r+1)-th free color is r.
            t = r
        else:
            # cap bounds the colors any pick can reach this round: at most
            # cmax+1 distinct forbidden colors plus the rank offset.
            rmax = int(r.max(initial=0))
            cap = cmax + 2 + rmax + 1
            words = mask_words(cap)
            ce = ~unc_entry
            gmask = pack_color_masks(goe[ce], entry_col[ce], n_groups, words)
            qg, _ = ragged_take(lay.tgroups, lay.tptr[queue], lay.tdeg[queue])
            forbidden = or_reduce_segments(
                gmask[qg.astype(np.int64)], lay.tdeg[queue]
            )
            t = nth_free_color(forbidden, r)
            palette_words = max(palette_words, words)
            mask_or_words += int(qg.size) * words
            if tracer.enabled:
                tracer.counter(
                    "fastpath.palette_words", words,
                    iteration=rounds, mode="speculative",
                )
        colors[queue] = t
        cmax = max(cmax, int(t.max(initial=-1)))
        # Detection (Alg. 7 semantics): within each group the smallest-id
        # claimant of each color wins; everyone else is reset.  Entries are
        # group-major with ascending member ids, so a stable sort on the
        # (group, color) key alone leaves winners first in each run.
        tv = gidx[unc_entry]
        tg = goe[unc_entry]
        tc = colors[gidx][unc_entry]
        key = tg.astype(np.int64) * (cmax + 2) + tc
        if key.size and (int(tg[-1]) + 1) * (cmax + 2) < np.iinfo(np.int32).max:
            key = key.astype(np.int32)
        order = np.argsort(key, kind="stable")
        sk = key[order]
        sv = tv[order]
        dup = np.concatenate(([False], sk[1:] == sk[:-1]))
        losers = np.unique(sv[dup]).astype(np.int64)
        colors[losers] = UNCOLORED
        # Palette growth measured on the *committed* state (post-demotion):
        # a tentative color whose every claimant lost does not count yet.
        committed_max = int(colors.max(initial=-1)) if n else -1
        introduced = max(0, committed_max + 1 - palette)
        palette = max(palette, committed_max + 1)
        _emit_round_work(
            tracer, work, rounds, "speculative",
            tasks=int(queue.size), scans=int(unc_entry.sum()),
            checks=int(tv.size), pushes=int(losers.size),
            writes=int(queue.size) + int(losers.size),
        )
        round_wall = time.perf_counter() - t_round
        records.append(
            IterationRecord(
                index=rounds,
                queue_size=int(queue.size),
                conflicts=int(losers.size),
                color_timing=None,
                remove_timing=None,
                colors_introduced=introduced,
                wall_seconds=round_wall,
            )
        )
        if tracer.enabled:
            tracer.event(
                "span",
                "round",
                round_wall,
                mode="speculative",
                iteration=rounds,
                queue_size=int(queue.size),
                items=int(queue.size),
                conflicts=int(losers.size),
                colors_introduced=introduced,
            )
        uncolored = int(losers.size)
        rounds += 1
    if extras is not None:
        extras["fastpath.palette_words"] = palette_words
        extras["fastpath.mask_or_words"] = mask_or_words
    return colors.astype(np.int64), records


def run_fastpath(
    groups: CSR,
    mode: str = "exact",
    max_rounds: int | None = None,
    tracer=None,
    work=None,
    extras=None,
):
    """Color the vertices of a groups CSR with whole-array NumPy passes.

    Parameters
    ----------
    groups:
        Constraint groups × vertices CSR: two vertices sharing a group
        must receive different colors.  Nets for BGPC, closed
        neighborhoods for D2GC.
    mode:
        ``"exact"`` (default) for the byte-identical level-synchronous
        greedy, ``"speculative"`` for the few-round optimistic template.
    max_rounds:
        Safety bound on rounds; defaults to ``n + 1``, which both modes
        provably never exceed (the globally smallest uncolored vertex
        always makes progress).
    tracer:
        Optional :class:`repro.obs.Tracer`: a ``setup`` span for the
        :class:`GroupLayout` build and one ``round`` span per vectorized
        round (queue size, conflicts, palette growth, wall seconds).
        ``None`` (default) is the zero-overhead null tracer.
    work:
        Optional :class:`repro.obs.work.WorkCounters` accumulating the
        run's deterministic work totals (one "task" per vertex processed
        by a round's whole-array pass; probes stay 0 — the vectorized
        first fit has no per-color cursor).  ``None`` skips the
        bookkeeping.
    extras:
        Optional dict the speculative mode fills with its packed-bitset
        structure metrics (see :data:`repro.obs.work.FASTPATH_METRICS`):
        ``fastpath.palette_words`` (widest per-round mask, in uint64
        words) and ``fastpath.mask_or_words`` (total words OR-combined
        across rounds).  Deterministic; left untouched in exact mode.

    Returns
    -------
    (colors, records):
        ``colors`` is a dense int64 array with no ``UNCOLORED`` entries;
        ``records`` are per-round :class:`~repro.types.IterationRecord`
        entries with ``None`` timings (there is no simulated clock here)
        but measured per-round ``wall_seconds`` and ``colors_introduced``.
    """
    if mode not in FASTPATH_MODES:
        raise ColoringError(
            f"unknown fastpath mode {mode!r}; choose from {FASTPATH_MODES}"
        )
    tracer = ensure_tracer(tracer)
    with tracer.span("setup", mode=mode) as setup_span:
        lay = GroupLayout(groups)
        setup_span.set(vertices=lay.n, groups=lay.n_groups, entries=int(lay.gidx.size))
    bound = max_rounds if max_rounds is not None else lay.n + 1
    if mode == "exact":
        return _color_exact(lay, bound, tracer, work)
    return _color_speculative(lay, bound, tracer, work, extras)
