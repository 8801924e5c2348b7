"""BGPC driver: the eight named algorithm variants of the paper (§VI).

``V-V``, ``V-V-64``, ``V-V-64D``, ``V-N∞``, ``V-N1``, ``V-N2``, ``N1-N2``
and ``N2-N2`` differ only in chunk size, queue construction, and the
net-based horizons of the two phases, so :data:`BGPC_ALGORITHMS` is just
:data:`~repro.core.plan.PAPER_SCHEDULES` parsed by the schedule grammar;
any other spec the grammar admits (e.g. ``"N1-Ninf-B2"``) is accepted by
:func:`color_bgpc` as well.
"""

from __future__ import annotations

import numpy as np

from repro.core.bgpc.net import (
    make_net_color_kernel,
    make_net_removal_kernel,
)
from repro.core.bgpc.vertex import (
    make_vertex_color_kernel,
    make_vertex_removal_kernel,
)
from repro.core.driver import SEQUENTIAL, run_sequential, run_speculative
from repro.core.plan import PAPER_SCHEDULES, ScheduleSpec, resolve_schedule
from repro.graph.bipartite import BipartiteGraph
from repro.machine.cost import CostModel
from repro.types import ColoringResult

__all__ = ["BGPC_ALGORITHMS", "BGPCAdapter", "color_bgpc", "sequential_bgpc"]


#: The paper's algorithm matrix (Section VI), parsed from its names (each
#: entry golden-pinned in ``tests/test_plan.py``).  ``V-V`` is ColPack's
#: default: chunk-1 dynamic scheduling and immediate shared-queue appends.
BGPC_ALGORITHMS: dict[str, ScheduleSpec] = {
    name: ScheduleSpec.parse(name) for name in PAPER_SCHEDULES
}


class BGPCAdapter:
    """Adapts a :class:`BipartiteGraph` to the speculative driver."""

    def __init__(self, bg: BipartiteGraph, cost: CostModel):
        self.bg = bg
        self.cost = cost
        self.n_targets = bg.num_vertices
        self.n_nets = bg.num_nets

    def make_vertex_color_kernel(self, policy, *, resumed=False):
        return make_vertex_color_kernel(self.bg, policy, self.cost, resumed=resumed)

    def make_net_color_kernel(self, policy):
        return make_net_color_kernel(self.bg, self.cost, policy=policy)

    def make_vertex_removal_kernel(self, *, resumed=False):
        return make_vertex_removal_kernel(self.bg, self.cost, resumed=resumed)

    def make_net_removal_kernel(self):
        return make_net_removal_kernel(self.bg, self.cost)

    def fastpath_groups(self):
        """Constraint groups for the NumPy backend: the nets themselves."""
        return self.bg.net_to_vtxs

    def process_spec(self, *, resumed=False):
        """Shared-memory layout for the process backend.

        The four CSR arrays — plus the flattened two-hop cache when it
        exists — are copied into shared segments once per run; workers
        rebuild a zero-copy :class:`BipartiteGraph` over them and seed
        their two-hop memo from the shared arrays instead of re-flattening
        the whole structure per worker (see :mod:`repro.core.procworker`).
        A ``resumed`` run ships the cache only if it already exists; its
        workers otherwise walk nets per vertex.
        """
        from repro.graph.twohop import bgpc_twohop

        arrays = {
            "vptr": self.bg.vtx_to_nets.ptr,
            "vidx": self.bg.vtx_to_nets.idx,
            "nptr": self.bg.net_to_vtxs.ptr,
            "nidx": self.bg.net_to_vtxs.idx,
        }
        two = bgpc_twohop(self.bg, build=not resumed)
        if two is not None:
            arrays["two_ptr"] = two.ptr
            arrays["two_idx"] = two.idx
            arrays["two_sptr"] = two.seg_ptr
            arrays["two_send"] = two.seg_end
        return {"problem": "bgpc", "arrays": arrays, "cost": self.cost}


def _apply_order(bg: BipartiteGraph, order: np.ndarray | None):
    if order is None:
        return bg, None
    order = np.asarray(order, dtype=np.int64)
    return bg.permute_vertices(order), order


def _restore_order(result: ColoringResult, order: np.ndarray | None) -> ColoringResult:
    if order is None:
        return result
    restored = np.empty_like(result.colors)
    restored[order] = result.colors
    result.colors = restored
    return result


def color_bgpc(
    bg: BipartiteGraph,
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
    """Color the ``V_A`` side of ``bg`` with one of the paper's algorithms.

    Parameters
    ----------
    bg:
        The bipartite instance (columns = vertices, rows = nets).
    algorithm:
        One of :data:`BGPC_ALGORITHMS` (``"V-V"`` … ``"N2-N2"``), any
        alias or novel spec the schedule grammar admits (``"v-n∞"``,
        ``"N1-N2-B1"`` — see :meth:`repro.core.plan.ScheduleSpec.parse`),
        or an already-structured spec object.  ``"sequential"`` runs the
        :func:`sequential_bgpc` baseline (``backend="sim"`` only; ``threads``
        and ``max_iterations`` do not apply).
    threads:
        Simulated core count (the paper sweeps 2, 4, 8, 16).
    cost:
        Cycle-cost model override (defaults to the calibrated model).
    policy:
        ``None`` / :class:`FirstFit` for the paper's default colors, or a
        :class:`B1Policy` / :class:`B2Policy` instance for the balancing
        variants of Section V.
    order:
        Optional permutation: vertices are processed in the order
        ``order[0], order[1], ...`` (e.g. from
        :func:`repro.order.smallest_last_order`).  The returned colors are
        indexed by the *original* vertex ids.
    backend:
        Any registered execution backend (see ``docs/backends.md``):
        ``"sim"`` (default) for the cycle-accurate simulated machine,
        ``"process"`` for a worker-process pool with genuine races, or
        ``"numpy"`` for the vectorized wall-clock fast path
        (:mod:`repro.core.fastpath`).
    fastpath_mode:
        NumPy-backend flavour: ``"exact"`` (byte-identical to the
        sequential reference) or ``"speculative"`` (fastest).  Ignored by
        the simulator backend.
    tracer:
        Optional :class:`repro.obs.Tracer` receiving structured
        per-iteration/per-phase events (see ``docs/observability.md``);
        ``None`` (default) traces nothing at zero cost.
    **backend_options:
        Forwarded to the backend verbatim — e.g. the sharded backend's
        ``partitioner`` / ``batch`` / ``seed`` (see ``docs/sharding.md``).

    Returns
    -------
    ColoringResult
        Colors (guaranteed valid), per-iteration records and simulated
        timing (``backend="sim"``) or measured wall seconds
        (``backend="numpy"``).
    """
    if algorithm != SEQUENTIAL:
        algorithm = resolve_schedule(algorithm, problem="BGPC")
    cost = cost if cost is not None else CostModel()
    work_graph, perm = _apply_order(bg, order)
    adapter = BGPCAdapter(work_graph, cost)
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


def sequential_bgpc(
    bg: BipartiteGraph,
    cost: CostModel | None = None,
    policy=None,
    order: np.ndarray | None = None,
    tracer=None,
) -> ColoringResult:
    """Sequential greedy BGPC baseline (paper Table II, "Sequential BGPC")."""
    cost = cost if cost is not None else CostModel()
    work_graph, perm = _apply_order(bg, order)
    adapter = BGPCAdapter(work_graph, cost)
    result = run_sequential(adapter, cost=cost, policy=policy, tracer=tracer)
    return _restore_order(result, perm)
