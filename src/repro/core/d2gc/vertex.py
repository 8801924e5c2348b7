"""Vertex-based D2GC kernels.

The paper only lists the net-based D2GC pseudo-codes (Algs. 9–10) and notes
that the vertex-based versions "can be implemented along the lines of the
BGPC algorithms ... with a single difference: distance-1 neighbors must also
be considered".  These kernels are exactly that: the Alg. 4/5 traversals
with the distance-1 ring added to the forbidden/conflict scan.
"""

from __future__ import annotations

import numpy as np

from repro.core.bgpc.vertex import thread_forbidden
from repro.graph.unipartite import Graph
from repro.machine.cost import CostModel

__all__ = [
    "d2gc_color_upper_bound",
    "make_vertex_color_kernel",
    "make_vertex_removal_kernel",
]


def d2gc_color_upper_bound(g: Graph) -> int:
    """Safe forbidden-set capacity: max distance-≤2 walk count + 2."""
    degs = g.degrees()
    walk2 = np.zeros(g.num_vertices, dtype=np.int64)
    contributions = degs[g.adj.idx]
    np.add.at(
        walk2,
        np.repeat(np.arange(g.num_vertices), degs),
        contributions,
    )
    total = walk2 + degs
    return int(total.max(initial=0)) + 2


def make_vertex_color_kernel(g: Graph, policy, cost: CostModel,
                             *, resumed: bool = False):
    """Vertex-based D2GC coloring: forbid the colors of ``nbor(w)`` and of
    every ``nbor(u) \\ {w}`` for ``u ∈ nbor(w)``, then apply the policy.
    A ``resumed`` run builds no two-hop cache (see the BGPC kernel)."""
    from repro.graph.twohop import d2gc_twohop

    ptr, idx = g.adj.ptr, g.adj.idx
    capacity = d2gc_color_upper_bound(g)
    edge, forbid, write = cost.edge_cost, cost.forbid_cost, cost.write_cost
    two = d2gc_twohop(g, build=not resumed)

    if two is not None:
        tptr, tidx = two.ptr, two.idx

        def kernel(w: int, ctx) -> None:
            forb = thread_forbidden(ctx.thread_state, capacity)
            forb.begin()
            entries = tidx[tptr[w] : tptr[w + 1]]
            cvals = ctx.colors[entries]
            mask = (cvals >= 0) & (entries != w)
            forb.add_many(cvals[mask])
            touched = entries.size + 1
            col, steps = policy.choose(forb, w, ctx.thread_state)
            ctx.write(w, col)
            ctx.count_scans(int(touched))
            ctx.count_probes(steps)
            ctx.charge_mem(int(touched) * edge + write)
            ctx.charge_cpu((int(touched) + steps) * forbid)

        return kernel

    def kernel(w: int, ctx) -> None:
        forb = thread_forbidden(ctx.thread_state, capacity)
        forb.begin()
        colors = ctx.colors
        ring1 = idx[ptr[w] : ptr[w + 1]]
        c1 = colors[ring1]
        forb.add_many(c1[c1 >= 0])
        touched = ring1.size + 1
        for u in ring1:
            ring2 = idx[ptr[u] : ptr[u + 1]]
            c2 = colors[ring2]
            mask = (c2 >= 0) & (ring2 != w)
            forb.add_many(c2[mask])
            touched += ring2.size
        col, steps = policy.choose(forb, w, ctx.thread_state)
        ctx.write(w, col)
        ctx.count_scans(touched)
        ctx.count_probes(steps)
        ctx.charge_mem(touched * edge + write)
        ctx.charge_cpu((touched + steps) * forbid)

    return kernel


def make_vertex_removal_kernel(g: Graph, cost: CostModel,
                               *, resumed: bool = False):
    """Vertex-based D2GC conflict removal with the ``w > u`` requeue rule.

    ``w`` requeues itself iff a smaller-id vertex within distance ≤ 2 holds
    the same color; the scan terminates at the first conflict.
    """
    from repro.graph.twohop import d2gc_twohop

    ptr, idx = g.adj.ptr, g.adj.idx
    edge, forbid = cost.edge_cost, cost.forbid_cost
    two = d2gc_twohop(g, build=not resumed)

    if two is not None:
        tptr, tidx = two.ptr, two.idx

        def kernel(w: int, ctx) -> None:
            cw = ctx.colors[w]
            if cw < 0:
                ctx.append(w)
                ctx.charge_cpu(1)
                return
            entries = tidx[tptr[w] : tptr[w + 1]]
            cvals = ctx.colors[entries]
            hits = np.nonzero((cvals == cw) & (entries != w) & (entries < w))[0]
            if hits.size:
                ctx.append(w)
                scanned = two.scanned_until(w, int(hits[0])) + 1
            else:
                scanned = entries.size + 1
            ctx.count_checks(int(scanned))
            ctx.charge_mem(int(scanned) * edge)
            ctx.charge_cpu(int(scanned) * forbid)

        return kernel

    def kernel(w: int, ctx) -> None:
        colors = ctx.colors
        cw = colors[w]
        touched = 0
        conflict = cw < 0
        if not conflict:
            ring1 = idx[ptr[w] : ptr[w + 1]]
            c1 = colors[ring1]
            touched += ring1.size + 1
            same1 = ring1[c1 == cw]
            if same1.size and int(same1.min()) < w:
                conflict = True
            else:
                for u in ring1:
                    ring2 = idx[ptr[u] : ptr[u + 1]]
                    c2 = colors[ring2]
                    touched += ring2.size
                    same2 = ring2[(c2 == cw) & (ring2 != w)]
                    if same2.size and int(same2.min()) < w:
                        conflict = True
                        break
        if conflict:
            ctx.append(w)
        ctx.count_checks(touched)
        ctx.charge_mem(touched * edge)
        ctx.charge_cpu(touched * forbid)

    return kernel
