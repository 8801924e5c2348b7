"""Validity checking for BGPC and D2GC colorings.

These are the reference oracles the test suite and the iteration drivers'
postconditions rely on.  The BGPC checks are one ``lexsort`` over every
(net, color) membership entry; the D2GC checks are vectorized per middle
vertex.  All are independent of the kernels they check (the kernels never
call them).

Validity definitions (paper §I–II):

* **BGPC** — every pair of ``V_A`` vertices adjacent to a common ``V_B``
  net has distinct colors, i.e. within every ``vtxs(v)`` all colors differ.
* **D2GC** — every pair of vertices at shortest-path distance ≤ 2 has
  distinct colors; equivalently, for every *middle* vertex ``m`` the colors
  of ``{m} ∪ nbor(m)`` are pairwise distinct.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidColoringError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.unipartite import Graph
from repro.types import UNCOLORED

__all__ = [
    "validate_bgpc",
    "validate_d2gc",
    "is_valid_bgpc",
    "is_valid_d2gc",
    "find_bgpc_conflict",
    "find_d2gc_conflict",
    "count_bgpc_conflict_vertices",
    "count_d2gc_conflict_vertices",
]


def _check_complete(colors: np.ndarray, n: int) -> None:
    if colors.shape != (n,):
        raise InvalidColoringError(
            f"color array has shape {colors.shape}, expected ({n},)"
        )
    uncolored = np.nonzero(colors == UNCOLORED)[0]
    if uncolored.size:
        raise InvalidColoringError(
            f"{uncolored.size} vertices uncolored (first: {uncolored[0]})"
        )
    if colors.size and colors.min() < 0:
        bad = int(np.argmin(colors))
        raise InvalidColoringError(f"negative color {colors[bad]} at vertex {bad}")


def _net_color_runs(bg: BipartiteGraph, colors: np.ndarray):
    """Colored membership entries sorted by (net, color), ties in row order.

    Returns ``(nets, members, same)``: the sorted entries' nets and
    members, and ``same[k]`` — entry ``k + 1`` shares entry ``k``'s net
    and color.  Entries of ``UNCOLORED`` vertices are dropped.
    """
    n2v = bg.net_to_vtxs
    members = n2v.idx
    nets = np.repeat(np.arange(n2v.nrows, dtype=np.int64), n2v.degrees())
    cvals = colors[members]
    keep = cvals != UNCOLORED
    nets, members, cvals = nets[keep], members[keep], cvals[keep]
    order = np.lexsort((cvals, nets))
    nets, members, cvals = nets[order], members[order], cvals[order]
    same = (nets[1:] == nets[:-1]) & (cvals[1:] == cvals[:-1])
    return nets, members, same


def find_bgpc_conflict(
    bg: BipartiteGraph, colors: np.ndarray
) -> tuple[int, int, int] | None:
    """First BGPC conflict ``(u, w, net)`` with ``u < w``, or ``None``.

    "First" is the smallest net holding a clash, then the smallest clashing
    color in it, then that color's first two members in row order.
    Vertices still carrying ``UNCOLORED`` are skipped, so this can be used
    on partial colorings (as after a conflict-removal phase).
    """
    nets, members, same = _net_color_runs(bg, colors)
    dup = np.flatnonzero(same)
    if not dup.size:
        return None
    k = int(dup[0])
    a, b = int(members[k]), int(members[k + 1])
    return (min(a, b), max(a, b), int(nets[k]))


def validate_bgpc(bg: BipartiteGraph, colors: np.ndarray) -> None:
    """Raise :class:`InvalidColoringError` unless ``colors`` solves BGPC."""
    _check_complete(colors, bg.num_vertices)
    conflict = find_bgpc_conflict(bg, colors)
    if conflict is not None:
        u, w, v = conflict
        raise InvalidColoringError(
            f"vertices {u} and {w} share net {v} but both have color {colors[u]}",
            conflict=conflict,
        )


def is_valid_bgpc(bg: BipartiteGraph, colors: np.ndarray) -> bool:
    """Boolean form of :func:`validate_bgpc`."""
    try:
        validate_bgpc(bg, colors)
    except InvalidColoringError:
        return False
    return True


def count_bgpc_conflict_vertices(bg: BipartiteGraph, colors: np.ndarray) -> int:
    """Number of vertices involved in at least one same-net color clash.

    Uncolored vertices are ignored.  Used to measure optimism damage after
    a speculative coloring phase (paper Table I counts the vertices left
    uncolored *after* removal, which equals the clash losers; this counts
    all clash participants).
    """
    _, members, same = _net_color_runs(bg, colors)
    clash = np.zeros(members.size, dtype=bool)
    clash[:-1] |= same
    clash[1:] |= same
    involved = np.zeros(bg.num_vertices, dtype=bool)
    involved[members[clash]] = True
    return int(involved.sum())


# -- D2GC --------------------------------------------------------------------


def find_d2gc_conflict(g: Graph, colors: np.ndarray) -> tuple[int, int, int] | None:
    """First D2GC conflict ``(u, w, middle)`` with ``u < w``, or ``None``."""
    adj = g.adj
    for m in range(g.num_vertices):
        group = np.concatenate(([m], adj.row(m)))
        cvals = colors[group]
        mask = cvals != UNCOLORED
        vals = cvals[mask]
        if vals.size < 2:
            continue
        order = np.argsort(vals, kind="stable")
        sorted_vals = vals[order]
        dup = np.nonzero(sorted_vals[1:] == sorted_vals[:-1])[0]
        if dup.size:
            who = group[mask][order]
            a, b = int(who[dup[0]]), int(who[dup[0] + 1])
            return (min(a, b), max(a, b), int(m))
    return None


def validate_d2gc(g: Graph, colors: np.ndarray) -> None:
    """Raise :class:`InvalidColoringError` unless ``colors`` solves D2GC."""
    _check_complete(colors, g.num_vertices)
    conflict = find_d2gc_conflict(g, colors)
    if conflict is not None:
        u, w, m = conflict
        raise InvalidColoringError(
            f"vertices {u} and {w} are within distance 2 (middle {m}) "
            f"but both have color {colors[u]}",
            conflict=conflict,
        )


def is_valid_d2gc(g: Graph, colors: np.ndarray) -> bool:
    """Boolean form of :func:`validate_d2gc`."""
    try:
        validate_d2gc(g, colors)
    except InvalidColoringError:
        return False
    return True


def count_d2gc_conflict_vertices(g: Graph, colors: np.ndarray) -> int:
    """Number of vertices in at least one distance-≤2 color clash."""
    involved = np.zeros(g.num_vertices, dtype=bool)
    adj = g.adj
    for m in range(g.num_vertices):
        group = np.concatenate(([m], adj.row(m)))
        cvals = colors[group]
        mask = cvals != UNCOLORED
        vals = cvals[mask]
        if vals.size < 2:
            continue
        uniq, counts = np.unique(vals, return_counts=True)
        dup_colors = uniq[counts > 1]
        if dup_colors.size:
            clash = np.isin(cvals, dup_colors) & mask
            involved[group[clash]] = True
    return int(involved.sum())
