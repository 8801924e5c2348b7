"""Materialized two-hop traversal structures.

The vertex-based kernels (paper Algs. 4–5) traverse, for a vertex ``w``,
every member of every net of ``w``.  The traversal *structure* is static, so
we flatten it once per graph into a CSR-like layout:

* ``idx[ptr[w]:ptr[w+1]]`` — the concatenation of ``vtxs(v)`` for
  ``v ∈ nets(w)``, in net order (``w`` itself included wherever it occurs,
  the kernels mask it out);
* ``seg`` — for each ``w``, the cumulative end offsets of the per-net
  segments inside its slice, so conflict removal can charge exactly the
  entries scanned up to its early-termination point.

This is purely a *host-side* acceleration: the simulated machine still
charges one ``edge_cost`` per entry touched, exactly as if the kernel had
walked ``nets(w)``/``vtxs(v)`` pointer by pointer.  The caches are memoized
on the graph objects and skipped above :data:`MAX_CACHE_ENTRIES` (falling
back to the loop kernels) to bound memory.  Only a run from the full vertex
queue builds one: a run resumed on a frontier (incremental recoloring)
touches a few rows and walks them through the loop kernels instead.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.graph.unipartite import Graph

__all__ = [
    "TwoHop",
    "bgpc_twohop",
    "d2gc_twohop",
    "seed_bgpc_twohop",
    "seed_d2gc_twohop",
    "MAX_CACHE_ENTRIES",
]

#: Entry cap above which the flattened structure is not built (~400 MB at
#: int64 x2 arrays); the kernels then use the per-net loop path instead.
MAX_CACHE_ENTRIES = 25_000_000


class TwoHop:
    """Flattened two-hop adjacency of all colored vertices.

    Attributes
    ----------
    ptr, idx:
        CSR of the concatenated two-hop entries per vertex.
    seg_ptr, seg_end:
        CSR of per-vertex segment end offsets (one entry per net of the
        vertex, each the *local* offset one past the segment's last entry).
    """

    __slots__ = ("ptr", "idx", "seg_ptr", "seg_end")

    def __init__(self, ptr, idx, seg_ptr, seg_end):
        self.ptr = ptr
        self.idx = idx
        self.seg_ptr = seg_ptr
        self.seg_end = seg_end

    @property
    def entries(self) -> int:
        return int(self.idx.size)

    def slice(self, w: int) -> np.ndarray:
        """The full two-hop entry list of vertex ``w`` (view)."""
        return self.idx[self.ptr[w] : self.ptr[w + 1]]

    def segments(self, w: int) -> np.ndarray:
        """Local segment end offsets of vertex ``w`` (view)."""
        return self.seg_end[self.seg_ptr[w] : self.seg_ptr[w + 1]]

    def scanned_until(self, w: int, local_pos: int) -> int:
        """Entries scanned if the kernel stops inside the segment containing
        ``local_pos`` — i.e. up to that segment's end (net granularity)."""
        segs = self.segments(w)
        k = int(np.searchsorted(segs, local_pos, side="right"))
        return int(segs[min(k, segs.size - 1)])


_bgpc_cache: "weakref.WeakKeyDictionary[BipartiteGraph, TwoHop | None]" = (
    weakref.WeakKeyDictionary()
)
_d2gc_cache: "weakref.WeakKeyDictionary[Graph, TwoHop | None]" = (
    weakref.WeakKeyDictionary()
)


def _flatten(row_lists_ptr, row_lists_idx, inner_ptr, inner_idx, n_rows) -> TwoHop | None:
    """Flatten ``inner[row_lists[w]]`` for every ``w`` into one CSR."""
    outer_deg = np.diff(row_lists_ptr)
    # Total entries: for each w, sum of inner degrees over its list.
    inner_deg = np.diff(inner_ptr)
    per_w = np.zeros(n_rows, dtype=np.int64)
    np.add.at(
        per_w,
        np.repeat(np.arange(n_rows, dtype=np.int64), outer_deg),
        inner_deg[row_lists_idx],
    )
    total = int(per_w.sum())
    if total > MAX_CACHE_ENTRIES:
        return None
    ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(per_w, out=ptr[1:])
    idx = np.empty(total, dtype=np.int64)
    seg_ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(outer_deg, out=seg_ptr[1:])
    seg_end = np.empty(int(seg_ptr[-1]), dtype=np.int64)
    pos = 0
    seg_i = 0
    for w in range(n_rows):
        local = 0
        for v in row_lists_idx[row_lists_ptr[w] : row_lists_ptr[w + 1]]:
            members = inner_idx[inner_ptr[v] : inner_ptr[v + 1]]
            idx[pos : pos + members.size] = members
            pos += members.size
            local += members.size
            seg_end[seg_i] = local
            seg_i += 1
    return TwoHop(ptr, idx, seg_ptr, seg_end)


def bgpc_twohop(bg: BipartiteGraph, *, build: bool = True) -> TwoHop | None:
    """Two-hop structure of a BGPC instance (memoized; ``None`` if too big).

    ``build=False`` only looks the memo up: a run resumed on a frontier
    queue takes a structure that already exists but never pays the
    whole-graph flatten for a few dozen vertices (``None`` sends the
    kernels down their per-net loop path).
    """
    if bg in _bgpc_cache or not build:
        return _bgpc_cache.get(bg)
    two = _flatten(
        bg.vtx_to_nets.ptr,
        bg.vtx_to_nets.idx,
        bg.net_to_vtxs.ptr,
        bg.net_to_vtxs.idx,
        bg.num_vertices,
    )
    _bgpc_cache[bg] = two
    return two


def seed_bgpc_twohop(bg: BipartiteGraph, two: TwoHop | None) -> None:
    """Pre-populate the BGPC memo cache for ``bg``.

    The ``process`` backend's workers rebuild the graph as views over
    shared memory; seeding the cache with a :class:`TwoHop` reconstructed
    from shared segments (or with ``None`` when the parent skipped the
    build) spares every worker the O(entries) flatten at kernel-build time.
    """
    _bgpc_cache[bg] = two


def seed_d2gc_twohop(g: Graph, two: TwoHop | None) -> None:
    """Pre-populate the D2GC memo cache for ``g`` (see :func:`seed_bgpc_twohop`)."""
    _d2gc_cache[g] = two


def d2gc_twohop(g: Graph, *, build: bool = True) -> TwoHop | None:
    """Closed two-hop structure of a D2GC instance.

    The concatenation for vertex ``w`` is ``nbor(w)`` (the distance-1 ring,
    as its own leading segment) followed by ``nbor(u)`` for each
    ``u ∈ nbor(w)`` — matching the scan order of the loop kernels.
    ``build=False`` only looks the memo up (see :func:`bgpc_twohop`).
    """
    if g in _d2gc_cache or not build:
        return _d2gc_cache.get(g)
    n = g.num_vertices
    ptr_a, idx_a = g.adj.ptr, g.adj.idx
    deg = np.diff(ptr_a)
    # ring-1 plus sum of ring-2 degrees
    ring2 = np.zeros(n, dtype=np.int64)
    np.add.at(
        ring2,
        np.repeat(np.arange(n, dtype=np.int64), deg),
        deg[idx_a],
    )
    per_w = deg + ring2
    total = int(per_w.sum())
    if total > MAX_CACHE_ENTRIES:
        _d2gc_cache[g] = None
        return None
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(per_w, out=ptr[1:])
    idx = np.empty(total, dtype=np.int64)
    seg_counts = deg + 1  # ring-1 segment + one per neighbour
    seg_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(seg_counts, out=seg_ptr[1:])
    seg_end = np.empty(int(seg_ptr[-1]), dtype=np.int64)
    pos = 0
    seg_i = 0
    for w in range(n):
        ring1 = idx_a[ptr_a[w] : ptr_a[w + 1]]
        idx[pos : pos + ring1.size] = ring1
        pos += ring1.size
        local = int(ring1.size)
        seg_end[seg_i] = local
        seg_i += 1
        for u in ring1:
            ring2_u = idx_a[ptr_a[u] : ptr_a[u + 1]]
            idx[pos : pos + ring2_u.size] = ring2_u
            pos += ring2_u.size
            local += ring2_u.size
            seg_end[seg_i] = local
            seg_i += 1
    two = TwoHop(ptr, idx, seg_ptr, seg_end)
    _d2gc_cache[g] = two
    return two
