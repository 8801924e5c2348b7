"""Bipartite graph container for the BGPC problem.

Following the paper's hypergraph analogy (Section III), the ``V_A`` side
holds the *vertices* to be colored (matrix columns in the UFL experiments)
and the ``V_B`` side holds the *nets* (matrix rows).  BGPC colors ``V_A`` so
that any two vertices sharing a net receive distinct colors.

Both CSR orientations are available because the kernels need them:

* ``vtx_to_nets`` — ``nets(u)`` for a vertex ``u`` (vertex-based kernels);
* ``net_to_vtxs`` — ``vtxs(v)`` for a net ``v`` (net-based kernels, Algs 6–8).

A graph built from the vertex→net side derives ``net_to_vtxs`` on first
access: a service cache hit only hashes ``vtx_to_nets`` and never pays the
transpose.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSR

__all__ = ["BipartiteGraph"]


class BipartiteGraph:
    """A bipartite graph stored as a pair of mutually transposed CSRs.

    Parameters
    ----------
    vtx_to_nets:
        CSR with one row per ``V_A`` vertex listing its adjacent nets.
    net_to_vtxs:
        CSR with one row per ``V_B`` net listing its adjacent vertices.
        Must be the exact transpose of ``vtx_to_nets``; ``None`` (what
        :meth:`from_vtx_to_nets` passes) derives it on first access.
    """

    __slots__ = ("vtx_to_nets", "_net_to_vtxs", "__weakref__")

    def __init__(self, vtx_to_nets: CSR, net_to_vtxs: CSR | None = None):
        if net_to_vtxs is not None:
            if vtx_to_nets.ncols != net_to_vtxs.nrows:
                raise GraphError(
                    "vtx_to_nets.ncols must equal net_to_vtxs.nrows "
                    f"({vtx_to_nets.ncols} != {net_to_vtxs.nrows})"
                )
            if net_to_vtxs.ncols != vtx_to_nets.nrows:
                raise GraphError(
                    "net_to_vtxs.ncols must equal vtx_to_nets.nrows "
                    f"({net_to_vtxs.ncols} != {vtx_to_nets.nrows})"
                )
            if vtx_to_nets.nnz != net_to_vtxs.nnz:
                raise GraphError("the two orientations disagree on edge count")
        self.vtx_to_nets = vtx_to_nets
        self._net_to_vtxs = net_to_vtxs

    @property
    def net_to_vtxs(self) -> CSR:
        """The net→vertex CSR (the transpose, built on first access)."""
        if self._net_to_vtxs is None:
            self._net_to_vtxs = self.vtx_to_nets.transpose()
        return self._net_to_vtxs

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_vtx_to_nets(cls, vtx_to_nets: CSR) -> "BipartiteGraph":
        """Wrap the vertex→net CSR; the other side is derived on demand."""
        return cls(vtx_to_nets)

    @classmethod
    def from_net_to_vtxs(cls, net_to_vtxs: CSR) -> "BipartiteGraph":
        """Build both orientations from the net→vertex CSR."""
        return cls(net_to_vtxs.transpose(), net_to_vtxs)

    # -- sizes ---------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """|V_A|: the number of vertices to color (matrix columns)."""
        return self.vtx_to_nets.nrows

    @property
    def num_nets(self) -> int:
        """|V_B|: the number of nets (matrix rows)."""
        return self.vtx_to_nets.ncols

    @property
    def num_edges(self) -> int:
        """Number of bipartite edges (matrix nonzeros)."""
        return self.vtx_to_nets.nnz

    # -- adjacency -------------------------------------------------------------

    def nets(self, u: int) -> np.ndarray:
        """Nets adjacent to vertex ``u`` (the paper's ``nets(u)``)."""
        return self.vtx_to_nets.row(u)

    def vtxs(self, v: int) -> np.ndarray:
        """Vertices adjacent to net ``v`` (the paper's ``vtxs(v)``)."""
        return self.net_to_vtxs.row(v)

    # -- problem bounds ---------------------------------------------------------

    def color_lower_bound(self) -> int:
        """``L = max_v |vtxs(v)|`` — the trivial BGPC color lower bound.

        Every pair of vertices under one net must differ, so at least
        ``|vtxs(v)|`` colors are needed for the densest net (paper §II).
        """
        return self.net_to_vtxs.max_degree()

    def neighborhood_work(self) -> int:
        """``Σ_v |vtxs(v)|²`` — first-iteration cost of vertex-based kernels.

        This is the quantity the paper's complexity discussion (Section III)
        identifies as the vertex-based bottleneck; the net-based kernels pay
        only ``Θ(|V| + |E|)``.
        """
        degs = self.net_to_vtxs.degrees()
        return int(np.sum(degs.astype(np.int64) ** 2))

    def is_structurally_symmetric(self) -> bool:
        """True when the underlying matrix pattern is square and symmetric.

        Only structurally symmetric instances are used for the D2GC
        experiments (paper Table II, last column).
        """
        if self.num_vertices != self.num_nets:
            return False
        a, b = self.vtx_to_nets.sorted(), self.net_to_vtxs.sorted()
        return np.array_equal(a.ptr, b.ptr) and np.array_equal(a.idx, b.idx)

    # -- transforms ------------------------------------------------------------

    def permute_vertices(self, perm: np.ndarray) -> "BipartiteGraph":
        """Reorder the colored side by ``perm`` (new id k == old id perm[k]).

        Used to apply ColPack-style orderings (e.g. smallest-last) before
        coloring: the greedy algorithms process vertices in natural order of
        the *permuted* graph.
        """
        perm = np.asarray(perm, dtype=np.int64)
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(perm.size, dtype=np.int64)
        new_v2n = self.vtx_to_nets.permute_rows(perm)
        new_n2v = self.net_to_vtxs.relabel_cols(inverse)
        return BipartiteGraph(new_v2n, new_n2v)

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(|V_A|={self.num_vertices}, "
            f"|V_B|={self.num_nets}, |E|={self.num_edges})"
        )
