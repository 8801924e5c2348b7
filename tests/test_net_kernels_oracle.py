"""Differential test: the batched net kernels against per-member oracles.

The production net kernels (BGPC Algs. 7/8, D2GC Algs. 9/10) color a whole
constraint group per task with a few numpy calls and one batched write.
The oracles below are the one-member-at-a-time loops they replaced: a
``contains`` probe per color, a ``policy.choose`` and a ``ctx.write`` per
member.  Swapping them into the drivers must leave every simulated color,
cycle, work counter and iteration record unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bgpc import color_bgpc
from repro.core.bgpc.vertex import color_upper_bound, thread_forbidden
from repro.core.d2gc import color_d2gc
from repro.core.d2gc.vertex import d2gc_color_upper_bound
from repro.datasets import random_bipartite, random_graph
from repro.errors import ColoringError
from repro.types import UNCOLORED

SCHEDULES = ["N1-N2", "N2-N2-B1", "N1-N2-B1", "N2-N2-B2"]
THREADS = [1, 4, 16]


def _oracle_color(group_of, capacity, cost, policy):
    edge, forbid, write = cost.edge_cost, cost.forbid_cost, cost.write_cost

    def kernel(v, ctx):
        group = group_of(v)
        if group.size == 0:
            ctx.charge_cpu(1)
            return
        cvals = ctx.colors[group]
        forb = thread_forbidden(ctx.thread_state, capacity)
        forb.begin()
        local = []
        for pos, c in enumerate(cvals.tolist()):
            if c < 0 or forb.contains(c):
                local.append(pos)
            else:
                forb.add(c)
        steps = 0
        if policy is None:
            col = group.size - 1
            for pos in local:
                while forb.contains(col):
                    col -= 1
                    steps += 1
                if col < 0:
                    raise ColoringError(f"reverse first-fit exhausted at {v}")
                ctx.write(int(group[pos]), col)
                col -= 1
                steps += 1
        else:
            for pos in local:
                u = int(group[pos])
                col, more = policy.choose(forb, u, ctx.thread_state)
                forb.add(col)
                ctx.write(u, col)
                steps += more
        ctx.count_scans(int(group.size))
        ctx.count_probes(steps)
        ctx.charge_mem(group.size * edge + len(local) * write)
        ctx.charge_cpu((group.size + steps) * forbid)

    return kernel


def _oracle_remove(group_of, cost):
    edge, forbid, write = cost.edge_cost, cost.forbid_cost, cost.write_cost

    def kernel(v, ctx):
        group = group_of(v)
        if group.size == 0:
            ctx.charge_cpu(1)
            return
        seen = set()
        resets = 0
        for u, c in zip(group.tolist(), ctx.colors[group].tolist()):
            if c < 0:
                continue
            if c in seen:
                ctx.write(u, UNCOLORED)
                resets += 1
            seen.add(c)
        ctx.count_checks(int(group.size))
        ctx.charge_mem(group.size * edge + resets * write)
        ctx.charge_cpu(group.size * forbid)

    return kernel


def _nets(bg):
    nptr, nidx = bg.net_to_vtxs.ptr, bg.net_to_vtxs.idx
    return lambda v: nidx[nptr[v] : nptr[v + 1]]


def _closed(g):
    ptr, idx = g.adj.ptr, g.adj.idx
    return lambda v: np.concatenate(([v], idx[ptr[v] : ptr[v + 1]]))


def _use_oracles(monkeypatch):
    import repro.core.bgpc.runner as bgpc_runner
    import repro.core.d2gc.runner as d2gc_runner

    monkeypatch.setattr(
        bgpc_runner, "make_net_color_kernel",
        lambda bg, cost, policy=None: _oracle_color(
            _nets(bg), color_upper_bound(bg), cost, policy),
    )
    monkeypatch.setattr(
        bgpc_runner, "make_net_removal_kernel",
        lambda bg, cost: _oracle_remove(_nets(bg), cost),
    )
    monkeypatch.setattr(
        d2gc_runner, "make_net_color_kernel",
        lambda g, cost, policy=None: _oracle_color(
            _closed(g), d2gc_color_upper_bound(g), cost, policy),
    )
    monkeypatch.setattr(
        d2gc_runner, "make_net_removal_kernel",
        lambda g, cost: _oracle_remove(_closed(g), cost),
    )


def _fingerprint(result):
    return (
        result.colors.tolist(),
        result.cycles,
        result.work_metrics,
        result.iterations,
    )


INSTANCES = {
    "bip-sparse": lambda: random_bipartite(50, 70, density=0.06, seed=3),
    "bip-dense": lambda: random_bipartite(30, 80, density=0.25, seed=11),
    "uni-sparse": lambda: random_graph(80, 160, seed=5),
    "uni-dense": lambda: random_graph(60, 500, seed=9),
}


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("instance", sorted(INSTANCES))
def test_batched_kernels_match_per_member_oracles(
    instance, schedule, threads, monkeypatch
):
    graph = INSTANCES[instance]()
    color = color_bgpc if instance.startswith("bip") else color_d2gc
    batched = color(graph, algorithm=schedule, threads=threads)
    with monkeypatch.context() as patch:
        _use_oracles(patch)
        oracle = color(graph, algorithm=schedule, threads=threads)
    assert _fingerprint(batched) == _fingerprint(oracle)
    assert batched.work_metrics["probes"] > 0
