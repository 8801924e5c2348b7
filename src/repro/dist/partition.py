"""Vertex partitioners for the distributed/sharded BGPC framework.

A partition assigns every ``V_A`` vertex an owning rank; its quality decides
how many vertices are *boundary* (share a net with another rank's vertex)
and therefore how much speculative cross-rank work and communication
:func:`repro.dist.distributed_bgpc` and ``backend="sharded"`` pay.  Four
strategies:

* :func:`partition_contiguous` — equal contiguous blocks of vertex ids
  (the naive default; locality only if the labeling has it);
* :func:`partition_random` — seeded uniform assignment (the anti-pattern:
  maximizes the boundary, useful as a worst case);
* :func:`partition_bfs` — BFS-grown parts over the vertex adjacency
  (topological locality regardless of labeling; small boundaries on
  meshes);
* :func:`partition_greedy` — BFS seed plus edge-cut-aware greedy
  refinement (moves a vertex to the rank owning most of its neighbors
  when balance allows).

Backends and the CLI select partitioners by name through the registry:
:data:`PARTITIONERS` maps a name to a uniform ``fn(bg, ranks, seed=0)``
callable; :func:`get_partitioner` resolves with a helpful error and
:func:`register_partitioner` admits new strategies.  All partitioners are
deterministic for a fixed ``(graph, ranks, seed)``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.graph.bipartite import BipartiteGraph

__all__ = [
    "PARTITIONERS",
    "get_partitioner",
    "partition_bfs",
    "partition_contiguous",
    "partition_greedy",
    "partition_random",
    "partitioner_names",
    "register_partitioner",
]


def partition_contiguous(n: int, ranks: int) -> np.ndarray:
    """Owner array splitting ``n`` vertices into ``ranks`` contiguous blocks.

    Block sizes differ by at most one; the owner array is non-decreasing.
    """
    sizes = np.full(ranks, n // ranks, dtype=np.int64)
    sizes[: n % ranks] += 1
    return np.repeat(np.arange(ranks, dtype=np.int64), sizes)


def partition_random(n: int, ranks: int, seed: int = 0) -> np.ndarray:
    """Seeded uniform-random owner array (deterministic per seed)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, ranks, size=n, dtype=np.int64)


def _next_seed(part: np.ndarray, start: int) -> int:
    """The smallest unassigned vertex id ``>= start``, or ``-1`` if none.

    Scans windows of doubling size from ``start``, so a call costs
    ``O(64 + d)`` for a seed ``d`` ids past ``start``.
    """
    n = part.size
    step = 64
    while start < n:
        free = np.flatnonzero(part[start : start + step] < 0)
        if free.size:
            return start + int(free[0])
        start += step
        step *= 2
    return -1


def _first_occurrences(values: np.ndarray) -> np.ndarray:
    """Positions of each value's first occurrence, in array order."""
    if values.size < 2:
        return np.arange(values.size)
    _, first = np.unique(values, return_index=True)
    first.sort()
    return first


def partition_bfs(
    bg: BipartiteGraph, ranks: int, stats: dict | None = None
) -> np.ndarray:
    """Grow ``ranks`` balanced parts by BFS over the vertex adjacency.

    Each part is grown breadth-first (through shared nets) from the
    lowest-numbered unassigned vertex until it holds ``ceil(n / ranks)``
    vertices, so parts are connected chunks of the *topology* rather than
    of the label space.  Sizes never exceed ``ceil(n / ranks) + 1``.

    The BFS is level-synchronous but keeps the exact FIFO order of a
    vertex-at-a-time queue walk: each level pops its whole frontier (or
    only the first ``target - size`` vertices when the part fills
    mid-level), gathers the popped vertices' nets in pop order, and
    expands every net at most once per part.  Skipping a net seen before
    is exact — its first visit already enqueued every unassigned member,
    and owners are never revoked — so one part walks ``O(|E|)`` entries
    and no level materializes the two-hop neighborhood.  The next level is
    the expanded nets' unassigned, not-yet-enqueued members in
    first-occurrence order.  Pass a ``stats`` dict to record the peak
    queue length of that walk as ``stats["max_queue"]`` (at most ``n``).
    """
    n = bg.num_vertices
    target = -(-n // ranks)
    part = np.full(n, -1, dtype=np.int64)
    # Stamps of the last part that enqueued each vertex / expanded each
    # net: once per part, without blocking a later part from re-visiting.
    enqueued = np.full(n, -1, dtype=np.int64)
    expanded = np.full(bg.num_nets, -1, dtype=np.int64)
    max_queue = 0
    next_seed = 0
    for r in range(ranks - 1):
        size = 0
        frontier = np.empty(0, dtype=np.int64)
        while size < target:
            if not frontier.size:
                next_seed = _next_seed(part, next_seed)
                if next_seed < 0:
                    break
                frontier = np.array([next_seed], dtype=np.int64)
                enqueued[next_seed] = r
            level = frontier.size
            popped = frontier[: target - size]
            part[popped] = r
            size += popped.size
            # Nets of the popped vertices in pop order, each expanded once;
            # ``by`` is the pop position that expands it.
            nets, by = bg.vtx_to_nets.take_rows(popped)
            fresh = expanded[nets] != r
            nets, by = nets[fresh], by[fresh]
            first = _first_occurrences(nets)
            nets, by = nets[first], by[first]
            expanded[nets] = r
            members, which = bg.net_to_vtxs.take_rows(nets)
            by = by[which]
            new = (part[members] < 0) & (enqueued[members] != r)
            members, by = members[new], by[new]
            first = _first_occurrences(members)
            frontier, by = members[first], by[first]
            enqueued[frontier] = r
            # Queue length right after the i-th pop (1-based): the level's
            # unpopped tail plus everything pops 1..i enqueued.
            found = np.cumsum(np.bincount(by, minlength=popped.size))
            lengths = found + level - np.arange(1, popped.size + 1)
            max_queue = max(max_queue, int(lengths.max()))
    part[part < 0] = ranks - 1
    if stats is not None:
        stats["max_queue"] = max_queue
    return part


def partition_greedy(
    bg: BipartiteGraph, ranks: int, seed: int = 0, passes: int = 2
) -> np.ndarray:
    """BFS seed plus edge-cut-aware greedy refinement.

    Starts from :func:`partition_bfs`, then sweeps the vertices in
    ascending id order (``passes`` times): a vertex moves to the rank that
    owns the most of its net-neighbors when that strictly reduces its cut
    edges and the destination stays within the BFS balance cap
    ``ceil(n / ranks) + 1``.  Ties break toward the smaller rank id; the
    result is deterministic (``seed`` is accepted for registry uniformity
    and ignored).
    """
    del seed  # deterministic sweep; kept for the uniform registry signature
    n = bg.num_vertices
    part = partition_bfs(bg, ranks)
    cap = -(-n // ranks) + 1
    sizes = np.bincount(part, minlength=ranks).astype(np.int64)
    for _ in range(passes):
        moved = 0
        for u in range(n):
            counts: dict[int, int] = {}
            for net in bg.nets(u):
                for w in bg.vtxs(net):
                    if w != u:
                        owner = int(part[w])
                        counts[owner] = counts.get(owner, 0) + 1
            if not counts:
                continue
            cur = int(part[u])
            best, best_count = cur, counts.get(cur, 0)
            for owner in sorted(counts):
                if counts[owner] > best_count and sizes[owner] + 1 <= cap:
                    best, best_count = owner, counts[owner]
            if best != cur:
                part[u] = best
                sizes[cur] -= 1
                sizes[best] += 1
                moved += 1
        if moved == 0:
            break
    return part


# --------------------------------------------------------------------------
# Registry: name -> uniform ``fn(bg, ranks, seed=0) -> owner array``.


def _by_contiguous(bg: BipartiteGraph, ranks: int, seed: int = 0) -> np.ndarray:
    del seed
    return partition_contiguous(bg.num_vertices, ranks)


def _by_random(bg: BipartiteGraph, ranks: int, seed: int = 0) -> np.ndarray:
    return partition_random(bg.num_vertices, ranks, seed=seed)


def _by_bfs(bg: BipartiteGraph, ranks: int, seed: int = 0) -> np.ndarray:
    del seed
    return partition_bfs(bg, ranks)


Partitioner = Callable[..., np.ndarray]

#: Registered partitioners, keyed by the name the CLI / backend accept.
PARTITIONERS: dict[str, Partitioner] = {
    "contiguous": _by_contiguous,
    "random": _by_random,
    "bfs": _by_bfs,
    "greedy": partition_greedy,
}


def register_partitioner(name: str, fn: Partitioner) -> None:
    """Admit a new named partitioner with the uniform call signature."""
    PARTITIONERS[name] = fn


def get_partitioner(name: str) -> Partitioner:
    """Resolve a partitioner by name, or raise listing the known names."""
    try:
        return PARTITIONERS[name]
    except KeyError:
        known = ", ".join(sorted(PARTITIONERS))
        raise ValueError(f"unknown partitioner {name!r} (known: {known})") from None


def partitioner_names() -> tuple[str, ...]:
    """The registered partitioner names, sorted."""
    return tuple(sorted(PARTITIONERS))
