"""Vertex-based BGPC kernels (paper Algs. 4–5, ColPack's approach).

Both kernels traverse the two-hop neighbourhood *starting from the vertex*:
for each net of ``w``, scan the net's full membership.  The first iteration
therefore costs Θ(Σ_v |vtxs(v)|²) — the bottleneck the net-based kernels of
:mod:`repro.core.bgpc.net` remove.

Cycle accounting: every adjacency entry touched charges ``edge_cost`` memory
cycles plus ``forbid_cost`` compute cycles (the marker probe); the color
write charges ``write_cost``; the first-fit scan charges ``forbid_cost`` per
probe.
"""

from __future__ import annotations

import numpy as np

from repro.core.forbidden import ForbiddenSet
from repro.graph.bipartite import BipartiteGraph
from repro.machine.cost import CostModel

__all__ = [
    "thread_forbidden",
    "make_vertex_color_kernel",
    "make_vertex_removal_kernel",
]


def thread_forbidden(state: dict, capacity: int) -> ForbiddenSet:
    """Fetch (or lazily create) the executing thread's forbidden set.

    One set per thread for the whole run, reused via stamping — the paper's
    "never actually emptied or reset" implementation detail.
    """
    forb = state.get("forbidden")
    if forb is None:
        forb = ForbiddenSet(capacity)
        state["forbidden"] = forb
    return forb


def color_upper_bound(bg: BipartiteGraph) -> int:
    """Safe forbidden-set capacity: max two-hop degree + 2.

    First-fit never picks a color above the vertex's conflict degree, which
    the two-hop walk count bounds from above.
    """
    from repro.order.orderings import bgpc_two_hop_degrees

    degs = bgpc_two_hop_degrees(bg)
    return int(degs.max(initial=0)) + 2


def make_vertex_color_kernel(bg: BipartiteGraph, policy, cost: CostModel,
                             *, resumed: bool = False):
    """BGPC-COLORWORKQUEUE-VERTEX (Alg. 4) with a pluggable color policy.

    Uses the flattened two-hop cache (one slice per task) when the graph is
    small enough; falls back to the per-net traversal otherwise, and for a
    ``resumed`` (frontier-queue) run unless the cache already exists.  Both
    paths charge identical cycle costs — the cache is host-side
    acceleration only.
    """
    from repro.graph.twohop import bgpc_twohop

    vptr, vidx = bg.vtx_to_nets.ptr, bg.vtx_to_nets.idx
    nptr, nidx = bg.net_to_vtxs.ptr, bg.net_to_vtxs.idx
    capacity = color_upper_bound(bg)
    edge, forbid, write = cost.edge_cost, cost.forbid_cost, cost.write_cost
    two = bgpc_twohop(bg, build=not resumed)

    if two is not None:
        tptr, tidx = two.ptr, two.idx

        def kernel(w: int, ctx) -> None:
            forb = thread_forbidden(ctx.thread_state, capacity)
            forb.begin()
            entries = tidx[tptr[w] : tptr[w + 1]]
            cvals = ctx.colors[entries]
            mask = (cvals >= 0) & (entries != w)
            forb.add_many(cvals[mask])
            touched = entries.size + (vptr[w + 1] - vptr[w])
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
        touched = 0
        for v in vidx[vptr[w] : vptr[w + 1]]:
            members = nidx[nptr[v] : nptr[v + 1]]
            cvals = colors[members]
            mask = (cvals >= 0) & (members != w)
            forb.add_many(cvals[mask])
            touched += members.size + 1
        col, steps = policy.choose(forb, w, ctx.thread_state)
        ctx.write(w, col)
        ctx.count_scans(touched)
        ctx.count_probes(steps)
        ctx.charge_mem(touched * edge + write)
        ctx.charge_cpu((touched + steps) * forbid)

    return kernel


def make_vertex_removal_kernel(bg: BipartiteGraph, cost: CostModel,
                               *, resumed: bool = False):
    """BGPC-REMOVECONFLICTS-VERTEX (Alg. 5 with Alg. 3's requeue rule).

    A vertex ``w`` requeues itself iff some *smaller-id* vertex in its
    two-hop neighbourhood holds the same color (``w > u`` tie-break), and
    the scan stops at the first such conflict (Alg. 3 line 6) — with the
    flattened cache, the cost is charged up to the end of the net segment
    containing that first conflict, matching the loop path's net-granular
    early exit.  ``resumed`` as in :func:`make_vertex_color_kernel`.
    """
    from repro.graph.twohop import bgpc_twohop

    vptr, vidx = bg.vtx_to_nets.ptr, bg.vtx_to_nets.idx
    nptr, nidx = bg.net_to_vtxs.ptr, bg.net_to_vtxs.idx
    edge, forbid = cost.edge_cost, cost.forbid_cost
    two = bgpc_twohop(bg, build=not resumed)

    if two is not None:
        tptr, tidx = two.ptr, two.idx

        def kernel(w: int, ctx) -> None:
            cw = ctx.colors[w]
            if cw < 0:  # defensively requeue if somehow uncolored
                ctx.append(w)
                ctx.charge_cpu(1)
                return
            entries = tidx[tptr[w] : tptr[w + 1]]
            cvals = ctx.colors[entries]
            hits = np.nonzero((cvals == cw) & (entries != w) & (entries < w))[0]
            nets_count = int(vptr[w + 1] - vptr[w])
            if hits.size:
                ctx.append(w)
                scanned = two.scanned_until(w, int(hits[0])) + nets_count
            else:
                scanned = entries.size + nets_count
            ctx.count_checks(int(scanned))
            ctx.charge_mem(int(scanned) * edge)
            ctx.charge_cpu(int(scanned) * forbid)

        return kernel

    def kernel(w: int, ctx) -> None:
        colors = ctx.colors
        cw = colors[w]
        if cw < 0:  # defensively requeue if somehow uncolored
            ctx.append(w)
            ctx.charge_cpu(1)
            return
        nets_count = int(vptr[w + 1] - vptr[w])
        touched = nets_count  # reading nets(w) itself
        conflict = False
        for v in vidx[vptr[w] : vptr[w + 1]]:
            members = nidx[nptr[v] : nptr[v + 1]]
            cvals = colors[members]
            touched += members.size
            same = members[(cvals == cw) & (members != w)]
            if same.size and int(same.min()) < w:
                conflict = True
                break  # early termination, as in the paper
        if conflict:
            ctx.append(w)
        ctx.count_checks(touched)
        ctx.charge_mem(touched * edge)
        ctx.charge_cpu(touched * forbid)

    return kernel
