"""D2GC driver and the four algorithm variants of paper Table V.

The D2GC experiments evaluate ``V-V-64D``, ``V-N1``, ``V-N2`` and ``N1-N2``
(the variants that did well for BGPC); the full BGPC matrix is nevertheless
accepted here since the specs are problem-agnostic.
"""

from __future__ import annotations

import numpy as np

from repro.core.bgpc.runner import BGPC_ALGORITHMS
from repro.core.d2gc.net import make_net_color_kernel, make_net_removal_kernel
from repro.core.d2gc.vertex import (
    make_vertex_color_kernel,
    make_vertex_removal_kernel,
)
from repro.core.driver import SEQUENTIAL, run_sequential, run_speculative
from repro.core.plan import resolve_schedule
from repro.graph.unipartite import Graph
from repro.machine.cost import CostModel
from repro.types import ColoringResult

__all__ = ["D2GC_ALGORITHMS", "D2GCAdapter", "color_d2gc", "sequential_d2gc"]

#: Same specs as BGPC (the same mapping) — Table V evaluates this subset.
D2GC_ALGORITHMS = BGPC_ALGORITHMS

#: The variants the paper actually reports for D2GC (Table V rows).
TABLE5_VARIANTS = ("V-V-64D", "V-N1", "V-N2", "N1-N2")


class D2GCAdapter:
    """Adapts a unipartite :class:`Graph` to the speculative driver.

    For D2GC the "nets" of the net-based kernels are the closed
    neighbourhoods, so a net-based phase runs one task per vertex.
    """

    def __init__(self, g: Graph, cost: CostModel):
        self.g = g
        self.cost = cost
        self.n_targets = g.num_vertices
        self.n_nets = g.num_vertices

    def make_vertex_color_kernel(self, policy, *, resumed=False):
        return make_vertex_color_kernel(self.g, policy, self.cost, resumed=resumed)

    def make_net_color_kernel(self, policy):
        return make_net_color_kernel(self.g, self.cost, policy=policy)

    def make_vertex_removal_kernel(self, *, resumed=False):
        return make_vertex_removal_kernel(self.g, self.cost, resumed=resumed)

    def make_net_removal_kernel(self):
        return make_net_removal_kernel(self.g, self.cost)

    def fastpath_groups(self):
        """Constraint groups for the NumPy backend: closed neighborhoods."""
        from repro.core.fastpath.d2gc import d2gc_groups_csr

        return d2gc_groups_csr(self.g)

    def process_spec(self, *, resumed=False):
        """Shared-memory layout for the process backend.

        The adjacency CSR — plus the flattened two-hop cache when it
        exists — is copied into shared segments once per run; workers
        rebuild a zero-copy :class:`Graph` over them (symmetry is known
        good by construction, so the re-check is skipped) and seed their
        two-hop memo from the shared arrays (see
        :mod:`repro.core.procworker`).  A ``resumed`` run ships the cache
        only if it already exists.
        """
        from repro.graph.twohop import d2gc_twohop

        arrays = {
            "aptr": self.g.adj.ptr,
            "aidx": self.g.adj.idx,
        }
        two = d2gc_twohop(self.g, build=not resumed)
        if two is not None:
            arrays["two_ptr"] = two.ptr
            arrays["two_idx"] = two.idx
            arrays["two_sptr"] = two.seg_ptr
            arrays["two_send"] = two.seg_end
        return {"problem": "d2gc", "arrays": arrays, "cost": self.cost}


def _apply_order(g: Graph, order: np.ndarray | None):
    if order is None:
        return g, None
    order = np.asarray(order, dtype=np.int64)
    return g.permute(order), order


def _restore_order(result: ColoringResult, order: np.ndarray | None) -> ColoringResult:
    if order is None:
        return result
    restored = np.empty_like(result.colors)
    restored[order] = result.colors
    result.colors = restored
    return result


def color_d2gc(
    g: Graph,
    algorithm: str = "N1-N2",
    threads: int = 16,
    cost: CostModel | None = None,
    policy=None,
    order: np.ndarray | None = None,
    max_iterations: int = 200,
    backend: str = "sim",
    fastpath_mode: str = "exact",
    tracer=None,
    **backend_options,
) -> ColoringResult:
    """Distance-2 color ``g`` with one of the paper's parallel algorithms.

    Same parameters and guarantees as :func:`repro.core.bgpc.color_bgpc`,
    over a unipartite graph — including the ``backend`` switch between the
    simulated machine and the vectorized NumPy fast path, and the
    ``tracer`` hook into :mod:`repro.obs`.  ``algorithm="sequential"``
    runs the :func:`sequential_d2gc` baseline (``backend="sim"`` only).
    """
    if algorithm != SEQUENTIAL:
        algorithm = resolve_schedule(algorithm, problem="D2GC")
    cost = cost if cost is not None else CostModel()
    work_graph, perm = _apply_order(g, order)
    adapter = D2GCAdapter(work_graph, cost)
    result = run_speculative(
        adapter,
        algorithm,
        threads=threads,
        cost=cost,
        policy=policy,
        max_iterations=max_iterations,
        backend=backend,
        fastpath_mode=fastpath_mode,
        tracer=tracer,
        **backend_options,
    )
    return _restore_order(result, perm)


def sequential_d2gc(
    g: Graph,
    cost: CostModel | None = None,
    policy=None,
    order: np.ndarray | None = None,
    tracer=None,
) -> ColoringResult:
    """Sequential greedy D2GC baseline (ColPack ships only this flavour)."""
    cost = cost if cost is not None else CostModel()
    work_graph, perm = _apply_order(g, order)
    adapter = D2GCAdapter(work_graph, cost)
    result = run_sequential(adapter, cost=cost, policy=policy, tracer=tracer)
    return _restore_order(result, perm)
