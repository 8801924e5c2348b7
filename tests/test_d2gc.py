"""Tests for the distance-2 coloring algorithms (sequential and parallel)."""

import numpy as np
import pytest

from repro import (
    D2GC_ALGORITHMS,
    color_d2gc,
    sequential_d2gc,
    validate_d2gc,
)
from repro.core.d2gc.net import make_net_color_kernel, make_net_removal_kernel
from repro.errors import ColoringError
from repro.graph import graph_from_edges
from repro.machine.cost import CostModel
from repro.machine.engine import TaskContext

TABLE5 = ("V-V-64D", "V-N1", "V-N2", "N1-N2")


class TestSequential:
    def test_path(self, path_graph):
        result = sequential_d2gc(path_graph)
        validate_d2gc(path_graph, result.colors)
        assert result.num_colors == 3

    def test_star_uses_n_colors(self, star_graph):
        result = sequential_d2gc(star_graph)
        validate_d2gc(star_graph, result.colors)
        assert result.num_colors == 7

    def test_lower_bound(self, small_graph):
        result = sequential_d2gc(small_graph)
        assert result.num_colors >= small_graph.color_lower_bound()

    def test_matches_reference_greedy(self, small_graph):
        """Greedy FF on the materialized square graph must agree exactly."""
        from repro.graph.ops import d2gc_conflict_graph

        sq = d2gc_conflict_graph(small_graph)
        reference = np.full(small_graph.num_vertices, -1, dtype=np.int64)
        for w in range(small_graph.num_vertices):
            forbidden = {int(reference[u]) for u in sq.nbor(w) if reference[u] >= 0}
            col = 0
            while col in forbidden:
                col += 1
            reference[w] = col
        result = sequential_d2gc(small_graph)
        assert np.array_equal(result.colors, reference)
    def test_color_d2gc_dispatches_sequential(self, small_graph):
        result = color_d2gc(small_graph, algorithm="sequential")
        assert result.algorithm == "sequential"
        assert np.array_equal(
            result.colors, sequential_d2gc(small_graph).colors
        )

    @pytest.mark.parametrize("backend", ["numpy", "sharded"])
    def test_color_d2gc_sequential_rejects_other_backends(
        self, small_graph, backend
    ):
        with pytest.raises(
            ColoringError, match="needs a speculative schedule.*not sequential"
        ):
            color_d2gc(small_graph, algorithm="sequential", backend=backend)


class TestParallel:
    @pytest.mark.parametrize("alg", TABLE5)
    @pytest.mark.parametrize("threads", [1, 2, 16])
    def test_always_valid(self, small_graph, alg, threads):
        result = color_d2gc(small_graph, algorithm=alg, threads=threads)
        validate_d2gc(small_graph, result.colors)

    @pytest.mark.parametrize("alg", sorted(D2GC_ALGORITHMS))
    def test_all_specs_valid_on_path(self, path_graph, alg):
        result = color_d2gc(path_graph, algorithm=alg, threads=4)
        validate_d2gc(path_graph, result.colors)

    def test_one_thread_matches_sequential(self, small_graph):
        seq = sequential_d2gc(small_graph)
        par = color_d2gc(small_graph, algorithm="V-V-64D", threads=1)
        assert np.array_equal(seq.colors, par.colors)

    def test_deterministic(self, small_graph):
        a = color_d2gc(small_graph, algorithm="N1-N2", threads=8)
        b = color_d2gc(small_graph, algorithm="N1-N2", threads=8)
        assert np.array_equal(a.colors, b.colors)
        assert a.cycles == b.cycles

    def test_unknown_algorithm(self, path_graph):
        from repro.errors import ColoringError

        with pytest.raises(ColoringError, match="unknown D2GC algorithm"):
            color_d2gc(path_graph, algorithm="nope")

    def test_ordering_roundtrip(self, small_graph):
        from repro.order import smallest_last_order

        order = smallest_last_order(small_graph)
        result = color_d2gc(small_graph, algorithm="V-N2", threads=8, order=order)
        validate_d2gc(small_graph, result.colors)

    def test_balancing_policies_valid(self, small_graph):
        from repro.core.policies import B1Policy, B2Policy

        for policy in (B1Policy(), B2Policy()):
            result = color_d2gc(
                small_graph, algorithm="N1-N2", threads=16, policy=policy
            )
            validate_d2gc(small_graph, result.colors)


class TestNetKernels:
    """Alg. 9 / Alg. 10 semantics on crafted closed neighbourhoods."""

    def _run(self, kernel, vertex, colors):
        ctx = TaskContext()
        ctx.reset(np.asarray(colors, dtype=np.int64), 0, {})
        kernel(vertex, ctx)
        return ctx

    def test_alg9_reverse_start_is_degree(self, star_graph):
        kernel = make_net_color_kernel(star_graph, CostModel())
        ctx = self._run(kernel, 0, [-1] * 7)
        writes = dict(ctx.writes)
        # closed neighbourhood of the hub: all 7 vertices; reverse FF starts
        # at deg(0) = 6 (not 5): colors 6..0 in group order (hub first).
        assert writes[0] == 6
        assert sorted(writes.values()) == list(range(7))

    def test_alg9_middle_vertex_processed_first(self, path_graph):
        kernel = make_net_color_kernel(path_graph, CostModel())
        ctx = self._run(kernel, 1, [-1, -1, -1, -1, -1])
        writes = dict(ctx.writes)
        # group = [1, 0, 2], deg(1)=2 -> colors 2, 1, 0 in that order.
        assert writes[1] == 2
        assert writes[0] == 1
        assert writes[2] == 0

    def test_alg10_middle_keeps_color(self, star_graph):
        kernel = make_net_removal_kernel(star_graph, CostModel())
        ctx = self._run(kernel, 0, [3, 3, 1, 2, 4, 5, 6])
        # the hub (group head) keeps color 3; leaf 1 clashes and resets.
        assert dict(ctx.writes) == {1: -1}

    def test_alg10_duplicate_leaves_reset(self, star_graph):
        kernel = make_net_removal_kernel(star_graph, CostModel())
        ctx = self._run(kernel, 0, [0, 1, 1, 1, 2, 3, 4])
        assert dict(ctx.writes) == {2: -1, 3: -1}


class TestDistance1Included:
    def test_adjacent_vertices_differ(self):
        """D2GC validity includes distance-1 pairs; the drivers must too."""
        g = graph_from_edges([(0, 1)], num_vertices=2)
        for alg in TABLE5:
            result = color_d2gc(g, algorithm=alg, threads=4)
            assert result.colors[0] != result.colors[1]

    def test_triangle_needs_three(self):
        g = graph_from_edges([(0, 1), (1, 2), (0, 2)], num_vertices=3)
        result = color_d2gc(g, algorithm="N1-N2", threads=4)
        validate_d2gc(g, result.colors)
        assert result.num_colors == 3
