"""Differential tests for the vectorized graph and validator paths.

``CSR.sorted``, ``CSR.permute_rows``, the row predicates,
``apply_delta``'s splice and the BGPC validators each replaced a per-row
Python loop.  The loops live on here as oracles, and hypothesis feeds both
sides rows that are unsorted, repeat entries, are empty, or do not exist
at all, with ``UNCOLORED`` vertices in the colorings.

The ``graph_fingerprint`` golden digests were written before the
vectorized ``sorted`` replaced the loop.  Clients chain delta requests off
these digests, so they must never move.
"""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.validate import (
    count_bgpc_conflict_vertices,
    find_bgpc_conflict,
)
from repro.datasets import random_bipartite, synthetic
from repro.errors import GraphError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.build import csr_from_edges
from repro.graph.csr import CSR
from repro.graph.delta import GraphDelta, apply_delta
from repro.service.fingerprint import graph_fingerprint
from repro.types import UNCOLORED

EXAMPLES = settings(max_examples=200, deadline=None)


# -- oracles: the per-row loops -----------------------------------------------


def sorted_oracle(csr: CSR) -> CSR:
    idx = csr.idx.copy()
    for i in range(csr.nrows):
        lo, hi = csr.ptr[i], csr.ptr[i + 1]
        idx[lo:hi] = np.sort(idx[lo:hi])
    return CSR(csr.ptr.copy(), idx, csr.ncols)


def permute_rows_oracle(csr: CSR, perm: np.ndarray) -> CSR:
    degs = csr.degrees()[perm]
    nptr = np.zeros(csr.nrows + 1, dtype=np.int64)
    np.cumsum(degs, out=nptr[1:])
    nidx = np.empty(csr.nnz, dtype=np.int64)
    for new_i, old_i in enumerate(perm):
        nidx[nptr[new_i] : nptr[new_i + 1]] = csr.row(old_i)
    return CSR(nptr, nidx, csr.ncols)


def has_sorted_rows_oracle(csr: CSR) -> bool:
    return all(
        row.size < 2 or bool(np.all(np.diff(row) > 0)) for _, row in csr.iter_rows()
    )


def has_duplicates_oracle(csr: CSR) -> bool:
    return any(row.size != np.unique(row).size for _, row in csr.iter_rows())


def find_conflict_oracle(bg: BipartiteGraph, colors: np.ndarray):
    for v, members in bg.net_to_vtxs.iter_rows():
        cvals = colors[members]
        mask = cvals != UNCOLORED
        vals = cvals[mask]
        if vals.size < 2:
            continue
        order = np.argsort(vals, kind="stable")
        sorted_vals = vals[order]
        dup = np.nonzero(sorted_vals[1:] == sorted_vals[:-1])[0]
        if dup.size:
            who = members[mask][order]
            a, b = int(who[dup[0]]), int(who[dup[0] + 1])
            return (min(a, b), max(a, b), int(v))
    return None


def count_conflicts_oracle(bg: BipartiteGraph, colors: np.ndarray) -> int:
    involved = np.zeros(bg.num_vertices, dtype=bool)
    for _, members in bg.net_to_vtxs.iter_rows():
        cvals = colors[members]
        mask = cvals != UNCOLORED
        vals = cvals[mask]
        if vals.size < 2:
            continue
        uniq, counts = np.unique(vals, return_counts=True)
        dup_colors = uniq[counts > 1]
        if dup_colors.size:
            clash = np.isin(cvals, dup_colors) & mask
            involved[members[clash]] = True
    return int(involved.sum())


def apply_delta_oracle(bg: BipartiteGraph, delta: GraphDelta) -> CSR:
    """Rebuild from the edge set: the pre-splice ``apply_delta``, with the
    existence checks made against the set rather than sorted keys."""
    if delta.delete.size and (
        int(delta.delete[:, 0].max()) >= bg.num_vertices
        or int(delta.delete[:, 1].max()) >= bg.num_nets
    ):
        raise GraphError(
            "delta deletes an edge outside the graph "
            f"(|V_A|={bg.num_vertices}, |V_B|={bg.num_nets})"
        )
    edges = {
        (u, int(v)) for u, row in bg.vtx_to_nets.iter_rows() for v in row
    }
    for u, v in delta.delete.tolist():
        if (u, v) not in edges:
            raise GraphError(f"delta deletes a missing edge ({u}, {v})")
        edges.discard((u, v))
    for u, v in delta.insert.tolist():
        if (u, v) in edges:
            raise GraphError(f"delta inserts an existing edge ({u}, {v})")
        edges.add((u, v))
    nrows, ncols = bg.num_vertices, bg.num_nets
    if delta.insert.size:
        nrows = max(nrows, int(delta.insert[:, 0].max()) + 1)
        ncols = max(ncols, int(delta.insert[:, 1].max()) + 1)
    pairs = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    return csr_from_edges(pairs[:, 0], pairs[:, 1], nrows, ncols)


# -- strategies ---------------------------------------------------------------


@st.composite
def csrs(draw, max_rows: int = 9, max_cols: int = 6) -> CSR:
    """CSRs with unsorted rows, repeated entries, empty rows and, at times,
    no rows or no columns at all."""
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols))
    degs = draw(
        st.lists(
            st.integers(0, 7 if ncols else 0), min_size=nrows, max_size=nrows
        )
    )
    ptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(degs, out=ptr[1:])
    idx = draw(
        st.lists(
            st.integers(0, max(ncols - 1, 0)),
            min_size=int(ptr[-1]),
            max_size=int(ptr[-1]),
        )
    )
    return CSR(ptr, np.array(idx, dtype=np.int64), ncols)


@st.composite
def colored_graphs(draw):
    """A graph whose nets are a drawn CSR (so ``net_to_vtxs`` rows keep the
    drawn order) and a partial coloring with few colors."""
    nets = draw(csrs())
    bg = BipartiteGraph.from_net_to_vtxs(nets)
    colors = draw(
        st.lists(
            st.integers(UNCOLORED, 3),
            min_size=bg.num_vertices,
            max_size=bg.num_vertices,
        )
    )
    return bg, np.array(colors, dtype=np.int64)


# -- CSR ------------------------------------------------------------------------


class TestCSRAgainstLoops:
    @EXAMPLES
    @given(csrs())
    def test_sorted(self, csr):
        assert csr.sorted() == sorted_oracle(csr)

    @EXAMPLES
    @given(csrs())
    def test_sorted_is_idempotent_and_keeps_shape(self, csr):
        once = csr.sorted()
        assert once.sorted() is once
        assert (once.nrows, once.ncols) == (csr.nrows, csr.ncols)

    @EXAMPLES
    @given(csrs(), st.randoms(use_true_random=False))
    def test_permute_rows(self, csr, rnd):
        perm = np.array(rnd.sample(range(csr.nrows), csr.nrows), dtype=np.int64)
        assert csr.permute_rows(perm) == permute_rows_oracle(csr, perm)

    @EXAMPLES
    @given(csrs())
    def test_row_predicates(self, csr):
        assert csr.has_sorted_rows() == has_sorted_rows_oracle(csr)
        assert csr.has_duplicates() == has_duplicates_oracle(csr)


# -- BGPC validators --------------------------------------------------------------


class TestValidatorsAgainstLoops:
    @EXAMPLES
    @given(colored_graphs())
    def test_find_bgpc_conflict_same_triple(self, case):
        bg, colors = case
        assert find_bgpc_conflict(bg, colors) == find_conflict_oracle(bg, colors)

    @EXAMPLES
    @given(colored_graphs())
    def test_count_bgpc_conflict_vertices(self, case):
        bg, colors = case
        assert count_bgpc_conflict_vertices(bg, colors) == count_conflicts_oracle(
            bg, colors
        )

    def test_first_conflict_is_smallest_net_then_color_then_row_order(self):
        # Net 0 is clean; net 1 clashes on color 2 (members 4, 1) and on
        # color 0 (members 3, 0): color 0 wins, in row order 3 before 0.
        nets = CSR(np.array([0, 2, 7]), np.array([0, 1, 4, 3, 1, 0, 2]), 5)
        bg = BipartiteGraph.from_net_to_vtxs(nets)
        colors = np.array([0, 2, 1, 0, 2], dtype=np.int64)
        assert find_bgpc_conflict(bg, colors) == (0, 3, 1)
        assert count_bgpc_conflict_vertices(bg, colors) == 4


# -- apply_delta's splice -------------------------------------------------------------


@st.composite
def deltas_against(draw):
    """A base graph (rows as drawn: unsorted, repeated) and a delta that
    may delete missing edges, insert existing ones or grow either side."""
    v2n = draw(csrs())
    bg = BipartiteGraph.from_vtx_to_nets(v2n)
    existing = sorted({(u, int(v)) for u, row in v2n.iter_rows() for v in row})
    pair = st.tuples(st.integers(0, v2n.nrows + 1), st.integers(0, v2n.ncols + 1))
    inserts = draw(st.lists(pair, max_size=4))
    deletes = draw(st.lists(st.sampled_from(existing), max_size=3)) if existing else []
    deletes += draw(st.lists(pair, max_size=1))
    both = set(inserts) & set(deletes)
    inserts = [p for p in inserts if p not in both]
    return bg, GraphDelta(insert=inserts, delete=deletes)


class TestApplyDeltaAgainstRebuild:
    @EXAMPLES
    @given(deltas_against())
    def test_splice_matches_edge_set_rebuild(self, case):
        bg, delta = case
        try:
            expected = apply_delta_oracle(bg, delta)
        except GraphError as exc:
            with pytest.raises(GraphError, match=re.escape(str(exc))):
                apply_delta(bg, delta)
            return
        mutated = apply_delta(bg, delta)
        assert mutated.vtx_to_nets == expected
        assert mutated.net_to_vtxs == expected.transpose()


# -- fingerprint goldens ------------------------------------------------------------


def _wire_csr(ptr, idx, ncols):
    return BipartiteGraph.from_vtx_to_nets(
        CSR(np.array(ptr, dtype=np.int64), np.array(idx, dtype=np.int64), ncols)
    )


GOLDEN_FINGERPRINTS = {
    "random_80x150": (
        lambda: random_bipartite(80, 150, density=0.06, seed=53),
        "b803190ba0bc048cecf56091d61de9b0dfdbd8d92aebeffbcc9c4b6834d9e4cf",
    ),
    "unsorted_rows": (
        lambda: _wire_csr([0, 2, 2, 5, 6], [2, 0, 3, 1, 0, 2], 4),
        "bf21dc144ba76cf7a9eb62638ed6914670f598c18e24048fb81b99504791780c",
    ),
    "repeated_entries": (
        lambda: _wire_csr([0, 3, 4], [1, 0, 1, 2], 3),
        "8be239ebdc5b704cc25d9d6a296d808707bf0f573c638ec05aac2f80f202b16b",
    ),
    "empty_rows_3x2": (
        lambda: _wire_csr([0, 0, 0, 0], [], 2),
        "ca69a4b0a7bb2ecb27bb35c6c920211baa1355121ef68e1a18957fc53f04d805",
    ),
    "no_rows": (
        lambda: _wire_csr([0], [], 0),
        "fe9f486aceeec503ed7b6cc0d4f7efd039f17d247b35a5ce705c29b5042ee7f6",
    ),
    "built_from_nets": (
        lambda: BipartiteGraph.from_net_to_vtxs(
            CSR(np.array([0, 3, 5]), np.array([4, 0, 2, 1, 4]), 5)
        ),
        "7c891ed7c56b69312f2c0741a274b57d3ff9408dfac6a7d71d411cda43d08c64",
    ),
    "shell_mesh_12x10": (
        lambda: synthetic.shell_mesh(nx=12, ny=10),
        "d8144cc35a56712e9389e18f9c4306d31c78de4b52d0cff7f51e99e347db1408",
    ),
}


class TestFingerprintGoldens:
    @pytest.mark.parametrize("name", sorted(GOLDEN_FINGERPRINTS))
    def test_digest_pinned(self, name):
        build, digest = GOLDEN_FINGERPRINTS[name]
        assert graph_fingerprint(build()) == digest

    @EXAMPLES
    @given(csrs())
    def test_digest_is_hash_of_loop_sorted_rows(self, v2n):
        canon = sorted_oracle(v2n)
        h = hashlib.sha256()
        h.update(b"bgpc-csr-v1")
        h.update(f"{canon.nrows}x{canon.ncols}".encode("ascii"))
        h.update(canon.ptr.tobytes())
        h.update(canon.idx.tobytes())
        assert graph_fingerprint(BipartiteGraph.from_vtx_to_nets(v2n)) == h.hexdigest()
