"""Distance-k graph coloring — the paper's §VIII future-work extension.

The paper closes with "the optimistic techniques for BGPC and D2GC can be
extended to the distance-k graph coloring problem".  This module does that
extension:

* **vertex-based kernels** traverse each vertex's radius-k ball (BFS-
  limited), exactly generalizing Algs. 4–5 / the D2GC vertex kernels;
* for **even k = 2m**, the net-based idea generalizes: the radius-m ball of
  any center vertex is a clique in G^k (two vertices within distance m of a
  common center are within distance 2m of each other, and conversely every
  distance-≤ k pair has such a center on its shortest path).  One sweep over
  all radius-m balls therefore colors and verifies in the same way Algs. 9
  and 10 do for k = 2.

Odd k has no exact vertex-centred ball cover, so net-based horizons are
rejected for odd k and the vertex-based variants remain available.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.bgpc.vertex import thread_forbidden
from repro.core.driver import run_sequential, run_speculative
from repro.core.plan import resolve_schedule
from repro.errors import ColoringError, InvalidColoringError
from repro.graph.unipartite import Graph
from repro.machine.cost import CostModel
from repro.types import ColoringResult, UNCOLORED

__all__ = [
    "ball",
    "ball_csr",
    "color_distk",
    "sequential_distk",
    "validate_distk",
    "is_valid_distk",
    "DistKAdapter",
]


def ball(g: Graph, center: int, radius: int) -> np.ndarray:
    """Vertices within ``radius`` hops of ``center`` (excluding it), sorted.

    Plain BFS; O(ball volume).  Radius 1 equals ``nbor``; radius 0 is empty.
    """
    if radius <= 0:
        return np.empty(0, dtype=np.int64)
    seen = {center}
    frontier = deque([(center, 0)])
    members = []
    while frontier:
        v, depth = frontier.popleft()
        if depth == radius:
            continue
        for u in g.nbor(v):
            u = int(u)
            if u not in seen:
                seen.add(u)
                members.append(u)
                frontier.append((u, depth + 1))
    return np.asarray(sorted(members), dtype=np.int64)


class BallCSR:
    """Precomputed radius-r balls of every vertex, CSR-packed."""

    __slots__ = ("ptr", "idx", "radius")

    def __init__(self, ptr: np.ndarray, idx: np.ndarray, radius: int):
        self.ptr = ptr
        self.idx = idx
        self.radius = radius

    def members(self, v: int) -> np.ndarray:
        return self.idx[self.ptr[v] : self.ptr[v + 1]]


def ball_csr(g: Graph, radius: int) -> BallCSR:
    """Materialize all radius-``radius`` balls (host-side precomputation).

    The simulated kernels still charge one ``edge_cost`` per ball entry
    touched, as a BFS-traversing implementation would.
    """
    chunks = []
    ptr = np.zeros(g.num_vertices + 1, dtype=np.int64)
    for v in range(g.num_vertices):
        b = ball(g, v, radius)
        chunks.append(b)
        ptr[v + 1] = ptr[v] + b.size
    idx = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return BallCSR(ptr, idx, radius)


class DistKAdapter:
    """Adapts (graph, k) to the speculative driver.

    Vertex-based kernels scan radius-k balls; the net-based kernels (only
    for even k) sweep radius-(k/2) balls with the reverse first-fit /
    first-occurrence logic of Algs. 9–10.
    """

    def __init__(self, g: Graph, k: int, cost: CostModel):
        if k < 1:
            raise ColoringError(f"distance-k needs k >= 1, got {k}")
        self.g = g
        self.k = k
        self.cost = cost
        self.n_targets = g.num_vertices
        self.n_nets = g.num_vertices
        self._full = ball_csr(g, k)
        self._half = ball_csr(g, k // 2) if k % 2 == 0 else None
        max_ball = int(np.diff(self._full.ptr).max(initial=0))
        self._capacity = max_ball + 2

    # -- vertex-based ------------------------------------------------------
    # The balls are built in __init__, so a resumed run has nothing to skip.

    def make_vertex_color_kernel(self, policy, *, resumed=False):
        full = self._full
        cost = self.cost
        capacity = self._capacity
        edge, forbid, write = cost.edge_cost, cost.forbid_cost, cost.write_cost

        def kernel(w: int, ctx) -> None:
            forb = thread_forbidden(ctx.thread_state, capacity)
            forb.begin()
            members = full.members(w)
            cvals = ctx.colors[members]
            forb.add_many(cvals[cvals >= 0])
            col, steps = policy.choose(forb, w, ctx.thread_state)
            ctx.write(w, col)
            ctx.charge_mem(int(members.size + 1) * edge + write)
            ctx.charge_cpu((int(members.size) + steps) * forbid)

        return kernel

    def make_vertex_removal_kernel(self, *, resumed=False):
        full = self._full
        cost = self.cost
        edge, forbid = cost.edge_cost, cost.forbid_cost

        def kernel(w: int, ctx) -> None:
            cw = ctx.colors[w]
            if cw < 0:
                ctx.append(w)
                ctx.charge_cpu(1)
                return
            members = full.members(w)
            cvals = ctx.colors[members]
            hits = members[(cvals == cw) & (members < w)]
            if hits.size:
                ctx.append(w)
            ctx.charge_mem(int(members.size + 1) * edge)
            ctx.charge_cpu(int(members.size) * forbid)

        return kernel

    # -- net-based (even k only) ---------------------------------------------

    def _require_half(self) -> BallCSR:
        if self._half is None:
            raise ColoringError(
                f"net-based distance-{self.k} kernels need even k "
                "(radius-k/2 ball covers); use a V-V* variant for odd k"
            )
        return self._half

    def _odd_k_stub(self):
        def kernel(v: int, ctx) -> None:  # pragma: no cover - guarded earlier
            self._require_half()

        return kernel

    def make_net_color_kernel(self, policy):
        if self._half is None:
            # The driver builds all kernels eagerly; vertex-only specs never
            # invoke this stub, and net-horizon specs are rejected up front.
            return self._odd_k_stub()
        half = self._half
        cost = self.cost
        capacity = self._capacity
        edge, forbid, write = cost.edge_cost, cost.forbid_cost, cost.write_cost

        def kernel(v: int, ctx) -> None:
            group = np.concatenate(([v], half.members(v)))
            cvals = ctx.colors[group]
            forb = thread_forbidden(ctx.thread_state, capacity)
            forb.begin()
            colored_pos = np.nonzero(cvals >= 0)[0]
            vals = cvals[colored_pos]
            uniq, first = np.unique(vals, return_index=True)
            forb.add_many(uniq)
            keep = np.zeros(colored_pos.size, dtype=bool)
            keep[first] = True
            dup_pos = colored_pos[~keep]
            unc_pos = np.nonzero(cvals < 0)[0]
            local = (
                np.sort(np.concatenate((unc_pos, dup_pos)))
                if dup_pos.size
                else unc_pos
            )
            steps = 0
            if policy is None:
                col = group.size - 1
                for pos in local:
                    while forb.contains(col):
                        col -= 1
                        steps += 1
                    if col < 0:
                        raise ColoringError(
                            f"reverse first-fit exhausted colors at ball {v}"
                        )
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
            ctx.charge_mem(int(group.size) * edge + int(local.size) * write)
            ctx.charge_cpu((int(group.size) + steps) * forbid)

        return kernel

    def make_net_removal_kernel(self):
        if self._half is None:
            return self._odd_k_stub()
        half = self._half
        cost = self.cost
        edge, forbid, write = cost.edge_cost, cost.forbid_cost, cost.write_cost

        def kernel(v: int, ctx) -> None:
            group = np.concatenate(([v], half.members(v)))
            cvals = ctx.colors[group]
            colored_pos = np.nonzero(cvals >= 0)[0]
            resets = 0
            if colored_pos.size > 1:
                vals = cvals[colored_pos]
                _, first = np.unique(vals, return_index=True)
                if first.size != colored_pos.size:
                    keep = np.zeros(colored_pos.size, dtype=bool)
                    keep[first] = True
                    for pos in colored_pos[~keep]:
                        ctx.write(int(group[pos]), UNCOLORED)
                        resets += 1
            ctx.charge_mem(int(group.size) * edge + resets * write)
            ctx.charge_cpu(int(group.size) * forbid)

        return kernel


def color_distk(
    g: Graph,
    k: int,
    algorithm: str = "V-V-64D",
    threads: int = 16,
    cost: CostModel | None = None,
    policy=None,
    max_iterations: int = 200,
) -> ColoringResult:
    """Distance-k color ``g`` with the speculative parallel template.

    Accepts the same algorithm names as BGPC/D2GC; net-based horizons
    (``V-N*``, ``N*-N*``) require even ``k``.
    """
    spec = resolve_schedule(algorithm, problem="distance-k")
    cost = cost if cost is not None else CostModel()
    adapter = DistKAdapter(g, k, cost)
    if k % 2 == 1 and (spec.net_color_iters or spec.net_removal_iters):
        # Surface the constraint early rather than failing inside a kernel.
        adapter._require_half()
    return run_speculative(
        adapter, spec, threads=threads, cost=cost, policy=policy,
        max_iterations=max_iterations,
    )


def sequential_distk(
    g: Graph, k: int, cost: CostModel | None = None, policy=None
) -> ColoringResult:
    """Sequential greedy distance-k baseline."""
    cost = cost if cost is not None else CostModel()
    adapter = DistKAdapter(g, k, cost)
    return run_sequential(adapter, cost=cost, policy=policy)


def validate_distk(g: Graph, k: int, colors: np.ndarray) -> None:
    """Raise :class:`InvalidColoringError` unless ``colors`` solves D_kGC."""
    colors = np.asarray(colors)
    if colors.shape != (g.num_vertices,):
        raise InvalidColoringError(
            f"color array has shape {colors.shape}, expected ({g.num_vertices},)"
        )
    if colors.size and colors.min() < 0:
        raise InvalidColoringError("coloring is incomplete")
    for v in range(g.num_vertices):
        others = ball(g, v, k)
        clash = others[colors[others] == colors[v]]
        if clash.size:
            u = int(clash[0])
            raise InvalidColoringError(
                f"vertices {v} and {u} are within distance {k} but share "
                f"color {colors[v]}",
                conflict=(min(v, u), max(v, u), k),
            )


def is_valid_distk(g: Graph, k: int, colors: np.ndarray) -> bool:
    """Boolean form of :func:`validate_distk`."""
    try:
        validate_distk(g, k, colors)
    except InvalidColoringError:
        return False
    return True
