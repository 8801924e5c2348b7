"""Net-based D2GC kernels (paper Algs. 9–10).

For D2GC the "net" of vertex ``v`` is the closed neighbourhood
``{v} ∪ nbor(v)``: all its members are mutually within distance 2, so — as
in BGPC — a conflict is a repeated color inside one such group, and a sweep
over all groups both colors and verifies in Θ(|V|+|E|).  The kernels are
the BGPC group kernels of :mod:`repro.core.bgpc.net` over these groups.

Difference from the BGPC kernels (per Section IV): the group includes the
middle vertex ``v`` itself, processed first, and the reverse first-fit
cursor starts at ``|nbor(v)|`` (not ``|nbor(v)| − 1``) because the thread
may have to color ``deg(v) + 1`` vertices.
"""

from __future__ import annotations

import numpy as np

from repro.core.bgpc.net import make_group_color_kernel, make_group_removal_kernel
from repro.core.d2gc.vertex import d2gc_color_upper_bound
from repro.graph.unipartite import Graph
from repro.machine.cost import CostModel

__all__ = ["make_net_color_kernel", "make_net_removal_kernel"]


def _closed_neighbourhood(g: Graph):
    ptr, idx = g.adj.ptr, g.adj.idx
    return lambda v: np.concatenate(([v], idx[ptr[v] : ptr[v + 1]]))


def make_net_color_kernel(g: Graph, cost: CostModel, policy=None):
    """D2GC-COLORWORKQUEUE-NET (Alg. 9) with optional B1/B2 policy.

    Pass 1 scans ``v`` then ``nbor(v)``, marking first-seen colors and
    queueing uncolored/duplicate members into ``W_local``; pass 2 assigns
    reverse first-fit from ``|nbor(v)|`` (or asks the policy).
    """
    return make_group_color_kernel(
        _closed_neighbourhood(g), d2gc_color_upper_bound(g), cost, policy,
        "vertex",
    )


def make_net_removal_kernel(g: Graph, cost: CostModel):
    """D2GC-REMOVECONFLICTS-NET (Alg. 10).

    The middle vertex is scanned first, so it always keeps its color; later
    group members clashing with an already-seen color are reset.
    """
    return make_group_removal_kernel(_closed_neighbourhood(g), cost)
