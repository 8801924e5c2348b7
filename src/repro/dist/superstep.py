"""Distributed-memory BGPC: partitioned speculative coloring in supersteps.

The framework the paper's shared-memory algorithms descend from (Bozdağ et
al.): vertices are partitioned across ranks; *interior* vertices (all of
whose nets stay within one rank) are colored locally with no communication,
while *boundary* vertices are colored speculatively in batched
bulk-synchronous supersteps — each rank picks colors against the last
committed snapshot, announces them, and cross-rank conflicts (two boundary
vertices of one net picking the same color in the same batch) are detected
after the exchange and re-queued, smaller vertex id winning.

Communication is charged through :class:`repro.dist.mpi.ClusterModel`; the
cost model is observational and never steers the coloring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dist.mpi import ClusterModel
from repro.dist.partition import partition_contiguous
from repro.errors import ColoringError
from repro.graph.bipartite import BipartiteGraph
from repro.types import UNCOLORED

__all__ = [
    "DistributedResult",
    "boundary_mask",
    "detect_losers",
    "distributed_bgpc",
    "run_supersteps",
]


@dataclass
class DistributedResult:
    """Outcome of a distributed (or hybrid) BGPC run.

    ``interior`` / ``boundary`` count the partition-induced vertex classes
    (partition statistics only for :func:`~repro.dist.hybrid_bgpc`, which
    sends interior vertices through the supersteps too);
    ``supersteps`` and ``conflicts`` describe the superstep resolution;
    ``comm_words`` / ``comm_messages`` the exchanged traffic; ``cycles``
    the modeled end-to-end cost (local compute plus the cluster charge).
    """

    colors: np.ndarray
    num_colors: int
    ranks: int
    interior: int
    boundary: int
    supersteps: int
    conflicts: int
    comm_words: int
    comm_messages: int
    cycles: float


def boundary_mask(bg: BipartiteGraph, part: np.ndarray) -> np.ndarray:
    """True for vertices sharing a net with another rank's vertex.

    One pass over the nets: a net is *mixed* when the minimum and maximum
    owner over its members differ, and every member of a mixed net is a
    boundary vertex.
    """
    mask = np.zeros(bg.num_vertices, dtype=bool)
    ptr, members = bg.net_to_vtxs.ptr, bg.net_to_vtxs.idx
    sizes = np.diff(ptr)
    nonempty = sizes > 0
    if not nonempty.any():
        return mask
    # Empty nets add nothing between consecutive non-empty starts, so each
    # reduceat segment is exactly one non-empty net's member list.
    starts = ptr[:-1][nonempty]
    owners = part[members]
    mixed = np.minimum.reduceat(owners, starts) != np.maximum.reduceat(
        owners, starts
    )
    mask[members[np.repeat(mixed, sizes[nonempty])]] = True
    return mask


def _first_fit(bg: BipartiteGraph, u: int, committed: np.ndarray,
               overlay: dict) -> tuple[int, int]:
    """Smallest color free around ``u``; returns ``(color, scans)``.

    ``committed`` is the globally committed palette; ``overlay`` holds the
    owning rank's same-batch picks (a rank sees its own speculation, not
    the other ranks').
    """
    forbidden = set()
    scans = 0
    for net in bg.nets(u):
        for w in bg.vtxs(net):
            scans += 1
            if w == u:
                continue
            c = overlay.get(int(w), committed[w])
            if c >= 0:
                forbidden.add(int(c))
    color = 0
    while color in forbidden:
        color += 1
    return color, scans


#: Two-hop entries :func:`detect_losers` gathers per chunk (plus at most
#: one net's members), whatever the batch size.
LOSER_CHUNK = 1 << 16


def detect_losers(
    bg: BipartiteGraph, batch: np.ndarray, colors: np.ndarray
) -> tuple[np.ndarray, int]:
    """Batch vertices losing a same-color tie to a smaller-id neighbor.

    ``u`` loses when some member ``w < u`` of one of its nets holds
    ``colors[u]``.  Returns the losers in batch order and the number of
    adjacency entries a per-vertex walk (``nets(u)`` in order, each net's
    members in order, stopping at the first losing entry) examines: up to
    and including the first losing entry, or the whole walk when ``u``
    keeps its color.

    The batch's walks, laid end to end, are gathered in chunks of at most
    :data:`LOSER_CHUNK` entries (or one larger net), so scratch memory stays
    ``O(|E| + chunk + largest net)`` however large the batch is.  A chunk skips the nets of vertices
    that already lost in an earlier one.
    """
    nets, slot = bg.vtx_to_nets.take_rows(batch)
    ptr = bg.net_to_vtxs.ptr
    sizes = ptr[nets + 1] - ptr[nets]
    # ``ends[i]``: walk position just past the members of (vertex, net)
    # entry ``i``; the walks of consecutive batch slots follow each other.
    ends = np.cumsum(sizes)
    lost = np.zeros(batch.size, dtype=bool)
    skipped = 0
    begin = 0
    while begin < nets.size:
        base = ends[begin] - sizes[begin]
        stop = int(np.searchsorted(ends, base + LOSER_CHUNK, side="right"))
        stop = max(stop, begin + 1)
        rows = np.flatnonzero(~lost[slot[begin:stop]]) + begin
        begin = stop
        members, which = bg.net_to_vtxs.take_rows(nets[rows])
        u = batch[slot[rows[which]]]
        hit = np.flatnonzero((members < u) & (colors[members] == colors[u]))
        if not hit.size:
            continue
        # Entries are in walk order, so the first hit of each losing slot
        # is where its walk stops; the rest of that slot's walk is skipped.
        losing, first = np.unique(slot[rows[which[hit]]], return_index=True)
        h = hit[first]
        # Walk position of each stopping entry: its net's start plus its
        # offset among that net's gathered members.
        row_start = np.cumsum(sizes[rows]) - sizes[rows]
        r = rows[which[h]]
        at = ends[r] - sizes[r] + h - row_start[which[h]]
        walk_end = ends[np.searchsorted(slot, losing, side="right") - 1]
        skipped += int((walk_end - at - 1).sum())
        lost[losing] = True
    checks = int(ends[-1]) - skipped if ends.size else 0
    return batch[lost], checks


def _neighbor_ranks(bg: BipartiteGraph, u: int, part: np.ndarray) -> set:
    mine = int(part[u])
    others = set()
    for net in bg.nets(u):
        for w in bg.vtxs(net):
            r = int(part[w])
            if r != mine:
                others.add(r)
    return others


def run_supersteps(bg, part, cluster, colors, pending, batch, color_slices):
    """The one superstep loop: resolve ``pending`` in batches, yielding each.

    Each superstep splits the next ``batch`` pending vertices by owner, in
    batch order, into one slice per rank of ``cluster`` and calls
    ``color_slices(slices) -> (picks, compute, words, messages)``: ``picks``
    lists ``(ids, colors)`` arrays chosen against the committed ``colors``,
    the rest are per-rank lists charged to ``cluster``.  The picks are
    committed into ``colors`` in place, the losers (:func:`detect_losers`)
    reset, and ``(batch_vs, losers, checks)`` yielded; the losers re-queue
    ahead of the rest.  A batch's smallest id always keeps its pick, so
    more than ``len(pending)`` supersteps raise :class:`ColoringError`.
    """
    bound = pending.size
    step = 0
    while pending.size:
        if step > bound:
            raise ColoringError(
                f"supersteps did not converge in {step} rounds "
                f"({pending.size} vertices still pending)"
            )
        batch_vs, rest = pending[:batch], pending[batch:]
        owners = part[batch_vs]
        picks, compute, words, messages = color_slices(
            [batch_vs[owners == r] for r in range(cluster.ranks)]
        )
        for ids, cols in picks:
            colors[ids] = cols
        losers, checks = detect_losers(bg, batch_vs, colors)
        colors[losers] = UNCOLORED
        cluster.superstep(compute, words, messages)
        yield batch_vs, losers, checks
        pending = np.concatenate([losers, rest])
        step += 1


def _setup(bg, ranks, batch, partition, cluster):
    """Checked ``(cluster, part, is_boundary, colors)`` of a modeled run."""
    if batch < 1:
        raise ColoringError(f"batch must be >= 1, got {batch}")
    if cluster is None:
        if ranks < 1:
            raise ColoringError(f"ranks must be >= 1, got {ranks}")
        cluster = ClusterModel(ranks)
    n, ranks = bg.num_vertices, cluster.ranks
    if partition is None:
        part = partition_contiguous(n, ranks)
    else:
        part = np.asarray(partition, dtype=np.int64)
        if part.shape != (n,):
            raise ColoringError(
                f"partition must have one owner per vertex ({n}), got shape "
                f"{part.shape}"
            )
        if part.size and (part.min() < 0 or part.max() >= ranks):
            raise ColoringError(
                f"partition owners must lie in [0, {ranks}); got range "
                f"[{int(part.min())}, {int(part.max())}]"
            )
    colors = np.full(n, UNCOLORED, dtype=np.int64)
    return cluster, part, boundary_mask(bg, part), colors


def _totals(cluster) -> tuple:
    """The cluster's running ``(supersteps, words, messages, cycles)``."""
    return (cluster.num_supersteps, cluster.total_words,
            cluster.total_messages, cluster.total_cycles)


def _result(colors, cluster, start, is_boundary, conflicts,
            cycles) -> DistributedResult:
    """The run's :class:`DistributedResult`: what ``cluster`` charged since
    the ``start`` snapshot of :func:`_totals` (a cluster may serve several
    runs), with ``cycles`` added."""
    supersteps, words, messages, charged = (
        now - before for now, before in zip(_totals(cluster), start)
    )
    return DistributedResult(
        colors=colors,
        num_colors=int(colors.max()) + 1 if colors.size else 0,
        ranks=cluster.ranks,
        interior=int((~is_boundary).sum()),
        boundary=int(is_boundary.sum()),
        supersteps=supersteps,
        conflicts=conflicts,
        comm_words=words,
        comm_messages=messages,
        cycles=cycles + charged,
    )


def distributed_bgpc(
    bg: BipartiteGraph,
    ranks: int = 4,
    batch: int = 100,
    partition: np.ndarray | None = None,
    cluster: ClusterModel | None = None,
) -> DistributedResult:
    """Color ``bg`` on a modeled ``ranks``-node cluster.

    Parameters
    ----------
    bg:
        The bipartite instance.
    ranks:
        Number of ranks (>= 1); ignored when ``cluster`` is given (its rank
        count wins).
    batch:
        Boundary vertices colored per superstep (>= 1): bigger batches mean
        fewer supersteps but more speculative conflicts.
    partition:
        Optional owner array (see :mod:`repro.dist.partition`); defaults to
        contiguous blocks.
    cluster:
        Optional :class:`~repro.dist.mpi.ClusterModel` cost model
        (fresh default otherwise).  Observational only — colors and
        supersteps never depend on it.  It may serve several runs: it keeps
        the running totals, and each result reports its own run's share.
    """
    cluster, part, is_boundary, colors = _setup(bg, ranks, batch, partition, cluster)

    # Interior vertices never share a net across ranks: every rank colors
    # its own greedily, no exchange needed.  Charged as one parallel phase
    # (slowest rank's scan count).
    interior_scans = [0] * cluster.ranks
    for u in np.nonzero(~is_boundary)[0].tolist():
        c, scans = _first_fit(bg, u, colors, {})
        colors[u] = c
        interior_scans[part[u]] += scans

    # Boundary vertices go through batched speculative supersteps: a rank
    # first-fits its slice against the committed palette plus its own picks
    # and announces one word per pick to every rank it borders.
    def color_slices(slices):
        picks, compute, messages = [], [], []
        for mine in slices:
            overlay, scanned, borders = {}, 0.0, set()
            for u in mine.tolist():
                c, scans = _first_fit(bg, u, colors, overlay)
                overlay[u] = c
                scanned += scans
                borders |= _neighbor_ranks(bg, u, part)
            picks.append((mine, np.array(list(overlay.values()), dtype=np.int64)))
            compute.append(scanned)
            messages.append(len(borders))
        return picks, compute, [int(mine.size) for mine in slices], messages

    pending = np.nonzero(is_boundary)[0].astype(np.int64)
    start = _totals(cluster)
    steps = run_supersteps(bg, part, cluster, colors, pending, batch, color_slices)
    conflicts = sum(len(losers) for _, losers, _ in steps)
    return _result(colors, cluster, start, is_boundary, conflicts,
                   float(max(interior_scans)))
