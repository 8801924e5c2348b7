"""Tests for the sequential greedy BGPC baseline."""

import numpy as np
import pytest

from repro import color_bgpc, sequential_bgpc, validate_bgpc
from repro.core.policies import B1Policy, B2Policy
from repro.errors import ColoringError
from repro.order import random_order, smallest_last_order


class TestCorrectness:
    def test_valid_on_tiny(self, tiny_bipartite):
        result = sequential_bgpc(tiny_bipartite)
        validate_bgpc(tiny_bipartite, result.colors)
        assert result.num_colors == 3  # triangle in net 0 forces 3

    def test_valid_on_random(self, medium_bipartite):
        result = sequential_bgpc(medium_bipartite)
        validate_bgpc(medium_bipartite, result.colors)

    def test_greedy_matches_reference_implementation(self, small_bipartite):
        """Pure-python greedy first-fit over the conflict graph must agree
        exactly with the machine-executed kernel at t=1."""
        from repro.graph.ops import bgpc_conflict_graph

        cg = bgpc_conflict_graph(small_bipartite)
        reference = np.full(small_bipartite.num_vertices, -1, dtype=np.int64)
        for w in range(small_bipartite.num_vertices):
            forbidden = {int(reference[u]) for u in cg.nbor(w) if reference[u] >= 0}
            col = 0
            while col in forbidden:
                col += 1
            reference[w] = col
        result = sequential_bgpc(small_bipartite)
        assert np.array_equal(result.colors, reference)

    def test_no_conflict_phase(self, small_bipartite):
        result = sequential_bgpc(small_bipartite)
        assert result.num_iterations == 1
        assert result.iterations[0].remove_timing is None
        assert result.total_conflicts == 0

    def test_respects_lower_bound(self, medium_bipartite):
        result = sequential_bgpc(medium_bipartite)
        assert result.num_colors >= medium_bipartite.color_lower_bound()

    def test_first_fit_upper_bound(self, small_bipartite):
        """Greedy never exceeds max conflict degree + 1."""
        from repro.graph.ops import bgpc_conflict_graph

        cg = bgpc_conflict_graph(small_bipartite)
        result = sequential_bgpc(small_bipartite)
        assert result.num_colors <= cg.max_degree() + 1


class TestColorBgpcDispatch:
    """``color_bgpc(algorithm="sequential")`` is the same baseline."""

    def test_default_backend_runs_sequential(self, small_bipartite):
        order = random_order(small_bipartite, seed=4)
        result = color_bgpc(small_bipartite, algorithm="sequential", order=order)
        reference = sequential_bgpc(small_bipartite, order=order)
        assert result.algorithm == "sequential"
        assert result.num_iterations == 1
        assert np.array_equal(result.colors, reference.colors)

    @pytest.mark.parametrize("backend", ["numpy", "process", "sharded"])
    def test_other_backends_reject(self, small_bipartite, backend):
        with pytest.raises(
            ColoringError, match="needs a speculative schedule.*not sequential"
        ):
            color_bgpc(small_bipartite, algorithm="sequential", backend=backend)

    def test_rejects_backend_options(self, small_bipartite):
        with pytest.raises(ColoringError, match="does not accept"):
            color_bgpc(small_bipartite, algorithm="sequential", partitioner="bfs")


class TestOrdering:
    def test_order_changes_processing(self, small_bipartite):
        nat = sequential_bgpc(small_bipartite)
        rnd = sequential_bgpc(
            small_bipartite, order=random_order(small_bipartite, seed=2)
        )
        validate_bgpc(small_bipartite, rnd.colors)
        # Different greedy orders are both valid but rarely identical.
        assert nat.num_colors > 0 and rnd.num_colors > 0

    def test_colors_returned_in_original_ids(self, tiny_bipartite):
        """With an ordering, the returned array is indexed by original id."""
        order = np.array([4, 3, 2, 1, 0])
        result = sequential_bgpc(tiny_bipartite, order=order)
        validate_bgpc(tiny_bipartite, result.colors)

    def test_smallest_last_not_worse_much(self, medium_bipartite):
        nat = sequential_bgpc(medium_bipartite)
        sl = sequential_bgpc(
            medium_bipartite, order=smallest_last_order(medium_bipartite)
        )
        validate_bgpc(medium_bipartite, sl.colors)
        assert sl.num_colors <= nat.num_colors + 2


class TestPolicies:
    @pytest.mark.parametrize("policy", [B1Policy(), B2Policy()])
    def test_balancing_policies_stay_valid(self, medium_bipartite, policy):
        result = sequential_bgpc(medium_bipartite, policy=policy)
        validate_bgpc(medium_bipartite, result.colors)

    def test_deterministic(self, medium_bipartite):
        a = sequential_bgpc(medium_bipartite)
        b = sequential_bgpc(medium_bipartite)
        assert np.array_equal(a.colors, b.colors)
        assert a.cycles == b.cycles
