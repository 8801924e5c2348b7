"""Net-based BGPC kernels (paper Algs. 6, 7 and 8).

The net-based view is the paper's key idea: a BGPC conflict exists *within a
net's member list*, so traversing from the nets costs only Θ(|V|+|E|) per
iteration instead of the vertex-based Θ(Σ|vtxs|²).

Three coloring kernels are provided:

* :func:`make_net_color_kernel_v1` — Alg. 6, the *most* optimistic net-level
  first-fit (too many conflicts; kept for the Table I comparison);
* the ``reverse=True`` flavour of the same — "Alg. 6 + reverse" in Table I;
* :func:`make_net_color_kernel` — Alg. 8, the production kernel: one marking
  pass over the member list, then a **reverse first-fit** assignment pass
  over the local work queue, never exceeding ``|vtxs(v)| − 1`` (Lemma 1).

Plus :func:`make_net_removal_kernel` — Alg. 7, which keeps the first
occurrence of each color in the member list and resets the rest.

Algs. 7/8 are written once, over any constraint group
(:func:`make_group_color_kernel`, :func:`make_group_removal_kernel`); the
D2GC kernels of :mod:`repro.core.d2gc.net` reuse them on closed
neighbourhoods.  Each task costs a few numpy calls over its group, not one
Python step per member.
"""

from __future__ import annotations

import numpy as np

from repro.core.bgpc.vertex import color_upper_bound, thread_forbidden
from repro.errors import ColoringError
from repro.graph.bipartite import BipartiteGraph
from repro.machine.cost import CostModel
from repro.types import UNCOLORED

__all__ = [
    "make_group_color_kernel",
    "make_group_removal_kernel",
    "make_net_color_kernel",
    "make_net_color_kernel_v1",
    "make_net_removal_kernel",
]


def repeats(vals: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``vals`` equal to an earlier entry.

    One stable argsort: within each run of equal values the first position
    is ``False`` and every later one ``True``.
    """
    order = vals.argsort(kind="stable")
    ordered = vals[order]
    mask = np.zeros(vals.size, dtype=bool)
    mask[order[1:]] = ordered[1:] == ordered[:-1]
    return mask


def make_group_color_kernel(group_of, capacity: int, cost: CostModel,
                            policy, label: str):
    """Alg. 8 / Alg. 9 over the constraint group ``group_of(task)``.

    Pass 1 marks the colors already present (first occurrence wins; colored
    duplicates join the local work queue ``W_local`` alongside the uncolored
    members).  Pass 2 assigns colors to ``W_local`` in member order, as one
    batch: the ``|W_local|`` largest free colors at most ``|group| − 1``
    (reverse first-fit, :meth:`ForbiddenSet.reverse_take`), or the policy's
    :meth:`~repro.core.policies.Policy.choose_many`.
    """
    edge, forbid, write = cost.edge_cost, cost.forbid_cost, cost.write_cost

    def kernel(v: int, ctx) -> None:
        group = group_of(v)
        if group.size == 0:
            ctx.charge_cpu(1)
            return
        cvals = ctx.colors[group]
        colored = cvals >= 0
        forb = thread_forbidden(ctx.thread_state, capacity)
        forb.begin()
        forb.add_many(cvals[colored])
        targets = group[~colored | repeats(cvals)].tolist()
        steps = 0
        if targets:
            if policy is None:
                cols, steps = forb.reverse_take(group.size - 1, len(targets))
                if len(cols) < len(targets):
                    raise ColoringError(
                        f"reverse first-fit exhausted the color budget at "
                        f"{label} {v}"
                    )
            else:
                cols, steps = policy.choose_many(forb, targets, ctx.thread_state)
            ctx.write_many(targets, cols)

        ctx.count_scans(int(group.size))
        ctx.count_probes(steps)
        ctx.charge_mem(group.size * edge + len(targets) * write)
        ctx.charge_cpu((group.size + steps) * forbid)

    return kernel


def make_group_removal_kernel(group_of, cost: CostModel):
    """Alg. 7 / Alg. 10 over the constraint group ``group_of(task)``.

    The first member holding a given color keeps it; every later member
    with a seen color is reset to ``UNCOLORED``.
    """
    edge, forbid, write = cost.edge_cost, cost.forbid_cost, cost.write_cost

    def kernel(v: int, ctx) -> None:
        group = group_of(v)
        if group.size == 0:
            ctx.charge_cpu(1)
            return
        cvals = ctx.colors[group]
        targets = group[(cvals >= 0) & repeats(cvals)].tolist()
        ctx.write_many(targets, [UNCOLORED] * len(targets))
        ctx.count_checks(int(group.size))
        ctx.charge_mem(group.size * edge + len(targets) * write)
        ctx.charge_cpu(group.size * forbid)

    return kernel


def _net_members(bg: BipartiteGraph):
    nptr, nidx = bg.net_to_vtxs.ptr, bg.net_to_vtxs.idx
    return lambda v: nidx[nptr[v] : nptr[v + 1]]


def make_net_color_kernel(bg: BipartiteGraph, cost: CostModel, policy=None):
    """BGPC-COLORWORKQUEUE-NET (Alg. 8).

    With ``policy=None`` pass 2 is the paper's reverse first-fit cursor
    descending from ``|vtxs(v)| − 1`` — Lemma 1 guarantees it never goes
    negative, which we assert.  With a B1/B2 ``policy`` each assignment asks
    the policy instead (the paper's "net-based variants are also similar"),
    and the chosen color is added to the forbidden set to keep the net
    internally conflict-free.
    """
    return make_group_color_kernel(
        _net_members(bg), color_upper_bound(bg), cost, policy, "net"
    )


def make_net_color_kernel_v1(bg: BipartiteGraph, cost: CostModel, reverse: bool = False):
    """BGPC-COLORWORKQUEUE-NET-V1 (Alg. 6), optionally with reverse first-fit.

    The single-pass, maximally optimistic kernel: each member is recolored
    on the spot when uncolored or clashing with an earlier member, using a
    monotone first-fit cursor (ascending; descending from ``|vtxs(v)| − 1``
    when ``reverse``).  Produces many conflicts — Table I quantifies how
    much the Alg. 8 refinements help.
    """
    nptr, nidx = bg.net_to_vtxs.ptr, bg.net_to_vtxs.idx
    capacity = color_upper_bound(bg)
    edge, forbid, write = cost.edge_cost, cost.forbid_cost, cost.write_cost

    def kernel(v: int, ctx) -> None:
        members = nidx[nptr[v] : nptr[v + 1]]
        if members.size == 0:
            ctx.charge_cpu(1)
            return
        colors = ctx.colors
        forb = thread_forbidden(ctx.thread_state, capacity)
        forb.begin()
        col = members.size - 1 if reverse else 0
        step = -1 if reverse else 1
        steps = 0
        writes = 0
        for u in members:
            u = int(u)
            cu = int(colors[u])
            if cu == UNCOLORED or forb.contains(cu):
                while forb.contains(col):
                    col += step
                    steps += 1
                if col < 0:
                    raise ColoringError(
                        f"reverse cursor went negative at net {v} "
                        "(forbidden-set budget exceeded)"
                    )
                cu = col
                ctx.write(u, col)
                writes += 1
            forb.add(cu)
        ctx.count_scans(int(members.size))
        ctx.count_probes(steps)
        ctx.charge_mem(members.size * edge + writes * write)
        ctx.charge_cpu((members.size + steps) * forbid)

    return kernel


def make_net_removal_kernel(bg: BipartiteGraph, cost: CostModel):
    """BGPC-REMOVECONFLICTS-NET (Alg. 7).

    For each net, the first member holding a given color keeps it; every
    later member with a seen color is reset to ``UNCOLORED``.  A net-based
    sweep detects *all* conflicts in Θ(|V|+|E|) but may reset more vertices
    than strictly necessary (the paper accepts this extra optimism).
    """
    return make_group_removal_kernel(_net_members(bg), cost)
