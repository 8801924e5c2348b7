"""Tests for the distributed-memory BGPC framework simulation."""

import numpy as np
import pytest

from repro import validate_bgpc
from repro.datasets import random_bipartite
from repro.dist import (
    ClusterModel,
    distributed_bgpc,
    partition_contiguous,
    partition_random,
)
from repro.errors import ColoringError


@pytest.fixture(scope="module")
def instance():
    return random_bipartite(80, 150, density=0.06, seed=53)


class TestClusterModel:
    def test_superstep_accounting(self):
        cluster = ClusterModel(ranks=2, alpha=100, beta=2, sync_cycles=10)
        stats = cluster.superstep([50, 70], [5, 3], [1, 1])
        assert stats.compute_cycles == 70
        # busiest rank: alpha*1 + beta*5 = 110, plus the sync barrier.
        assert stats.comm_cycles == 110 + 10
        assert stats.words == 8
        assert cluster.total_cycles == stats.wall

    def test_rejects_bad_ranks(self):
        with pytest.raises(ValueError):
            ClusterModel(ranks=0)

    def test_rejects_mismatched_lists(self):
        cluster = ClusterModel(ranks=2)
        with pytest.raises(ValueError):
            cluster.superstep([1])

    def test_aggregates(self):
        cluster = ClusterModel(ranks=1, alpha=0, beta=1, sync_cycles=0)
        cluster.superstep([10], [4], [2])
        cluster.superstep([20], [6], [1])
        assert cluster.num_supersteps == 2
        assert cluster.total_compute == 30
        assert cluster.total_words == 10
        assert cluster.total_messages == 3


class TestPartitions:
    def test_contiguous_covers_all_ranks(self):
        part = partition_contiguous(100, 4)
        assert part.shape == (100,)
        assert set(part.tolist()) == {0, 1, 2, 3}
        # Blocks are contiguous: the owner array is non-decreasing.
        assert np.all(np.diff(part) >= 0)

    def test_random_seeded(self):
        a = partition_random(50, 3, seed=1)
        b = partition_random(50, 3, seed=1)
        assert np.array_equal(a, b)


class TestDistributedColoring:
    @pytest.mark.parametrize("ranks", [1, 2, 4, 8])
    def test_valid_any_rank_count(self, instance, ranks):
        result = distributed_bgpc(instance, ranks=ranks, batch=20)
        validate_bgpc(instance, result.colors)

    @pytest.mark.parametrize("batch", [1, 5, 50, 1000])
    def test_valid_any_batch(self, instance, batch):
        result = distributed_bgpc(instance, ranks=4, batch=batch)
        validate_bgpc(instance, result.colors)

    def test_single_rank_all_interior(self, instance):
        result = distributed_bgpc(instance, ranks=1)
        assert result.boundary == 0
        assert result.supersteps == 0
        assert result.conflicts == 0
        assert result.comm_words == 0

    def test_classification_partition_sensitive(self, instance):
        block = distributed_bgpc(instance, ranks=4, batch=50)
        scattered = distributed_bgpc(
            instance,
            ranks=4,
            batch=50,
            partition=partition_random(instance.num_vertices, 4, seed=2),
        )
        validate_bgpc(instance, scattered.colors)
        # A random partition can only increase the boundary set.
        assert scattered.boundary >= block.boundary

    def test_bigger_batches_fewer_supersteps(self, instance):
        small = distributed_bgpc(instance, ranks=4, batch=5)
        large = distributed_bgpc(instance, ranks=4, batch=500)
        assert large.supersteps <= small.supersteps

    def test_deterministic(self, instance):
        a = distributed_bgpc(instance, ranks=4, batch=30)
        b = distributed_bgpc(instance, ranks=4, batch=30)
        assert np.array_equal(a.colors, b.colors)
        assert a.cycles == b.cycles
        assert a.conflicts == b.conflicts

    def test_communication_accounted(self, instance):
        result = distributed_bgpc(instance, ranks=4, batch=20)
        if result.boundary:
            assert result.comm_words > 0
            assert result.comm_messages > 0

    def test_rejects_bad_batch(self, instance):
        with pytest.raises(ColoringError):
            distributed_bgpc(instance, ranks=2, batch=0)

    def test_rejects_bad_partition(self, instance):
        with pytest.raises(ColoringError):
            distributed_bgpc(
                instance,
                ranks=2,
                partition=np.zeros(3, dtype=np.int64),
            )
        with pytest.raises(ColoringError):
            distributed_bgpc(
                instance,
                ranks=2,
                partition=np.full(instance.num_vertices, 7, dtype=np.int64),
            )

    def test_interior_plus_boundary_is_total(self, instance):
        result = distributed_bgpc(instance, ranks=4)
        assert result.interior + result.boundary == instance.num_vertices


class TestHybrid:
    def test_valid(self, instance):
        from repro.dist import hybrid_bgpc

        result = hybrid_bgpc(instance, ranks=3, threads_per_rank=4, batch=20)
        validate_bgpc(instance, result.colors)

    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_valid_any_thread_count(self, instance, threads):
        from repro.dist import hybrid_bgpc

        result = hybrid_bgpc(
            instance, ranks=2, threads_per_rank=threads, batch=30
        )
        validate_bgpc(instance, result.colors)

    def test_deterministic(self, instance):
        from repro.dist import hybrid_bgpc

        a = hybrid_bgpc(instance, ranks=4, threads_per_rank=4, batch=25)
        b = hybrid_bgpc(instance, ranks=4, threads_per_rank=4, batch=25)
        assert np.array_equal(a.colors, b.colors)
        assert a.cycles == b.cycles

    def test_intra_rank_races_produce_conflicts(self, instance):
        """With many threads per rank, the rank-local coloring races; the
        hybrid resolver must absorb those conflicts too."""
        from repro.dist import hybrid_bgpc

        single = hybrid_bgpc(instance, ranks=2, threads_per_rank=1, batch=1000)
        racy = hybrid_bgpc(instance, ranks=2, threads_per_rank=16, batch=1000)
        validate_bgpc(instance, racy.colors)
        assert racy.conflicts >= single.conflicts

    def test_single_rank_single_thread_is_sequential_like(self, instance):
        from repro.dist import hybrid_bgpc

        result = hybrid_bgpc(instance, ranks=1, threads_per_rank=1)
        validate_bgpc(instance, result.colors)
        assert result.conflicts == 0
        assert result.boundary == 0

    def test_rejects_bad_threads(self, instance):
        from repro.dist import hybrid_bgpc

        with pytest.raises(ColoringError):
            hybrid_bgpc(instance, ranks=2, threads_per_rank=0)


class TestBfsPartition:
    def test_is_valid_partition(self, instance):
        from repro.dist import partition_bfs

        part = partition_bfs(instance, 4)
        assert part.shape == (instance.num_vertices,)
        assert part.min() >= 0 and part.max() < 4

    def test_roughly_balanced(self, instance):
        from repro.dist import partition_bfs

        part = partition_bfs(instance, 4)
        sizes = np.bincount(part, minlength=4)
        target = -(-instance.num_vertices // 4)
        assert sizes.max() <= target + 1

    def test_less_boundary_than_random(self):
        """On a mesh, BFS growth yields fewer boundary vertices than a
        random partition."""
        from repro.datasets import channel_mesh
        from repro.dist import distributed_bgpc, partition_bfs, partition_random

        bg = channel_mesh(nx=10, ny=8, nz=8)
        bfs = distributed_bgpc(bg, ranks=4, partition=partition_bfs(bg, 4))
        rnd = distributed_bgpc(
            bg, ranks=4,
            partition=partition_random(bg.num_vertices, 4, seed=0),
        )
        assert bfs.boundary < rnd.boundary or rnd.boundary == bg.num_vertices

    def test_coloring_valid_with_bfs_partition(self, instance):
        from repro.dist import distributed_bgpc, partition_bfs

        result = distributed_bgpc(
            instance, ranks=4, partition=partition_bfs(instance, 4)
        )
        validate_bgpc(instance, result.colors)


class TestClusterCostSensitivity:
    def test_higher_latency_costs_more(self, instance):
        from repro.dist.mpi import ClusterModel

        cheap = distributed_bgpc(
            instance, batch=10,
            cluster=ClusterModel(ranks=4, alpha=100, beta=1, sync_cycles=100),
        )
        pricey = distributed_bgpc(
            instance, batch=10,
            cluster=ClusterModel(ranks=4, alpha=100_000, beta=1, sync_cycles=100),
        )
        assert np.array_equal(cheap.colors, pricey.colors)  # costs don't steer
        assert pricey.cycles > cheap.cycles

    def test_same_colors_independent_of_cluster_costs(self, instance):
        """The cluster cost model is observational: it never changes what
        the algorithm computes, only what it charges."""
        from repro.dist.mpi import ClusterModel

        a = distributed_bgpc(
            instance, batch=25,
            cluster=ClusterModel(ranks=3, alpha=1, beta=1, sync_cycles=0),
        )
        b = distributed_bgpc(
            instance, batch=25,
            cluster=ClusterModel(ranks=3, alpha=9999, beta=77, sync_cycles=5),
        )
        assert np.array_equal(a.colors, b.colors)
        assert a.supersteps == b.supersteps
        assert a.conflicts == b.conflicts


class TestSharedSetup:
    """Argument checks and the superstep loop shared by both modeled paths."""

    @pytest.mark.parametrize("ranks", [0, -1])
    def test_bad_ranks_raise_coloring_error(self, instance, ranks):
        from repro.dist import hybrid_bgpc

        for run in (distributed_bgpc, hybrid_bgpc):
            with pytest.raises(ColoringError, match="ranks must be >= 1"):
                run(instance, ranks=ranks)

    def test_given_cluster_overrides_ranks(self, instance):
        result = distributed_bgpc(instance, ranks=0, cluster=ClusterModel(2))
        assert result.ranks == 2
        validate_bgpc(instance, result.colors)

    def test_reused_cluster_reports_each_run_alone(self, instance):
        # One cluster serving two identical runs: each result reports only
        # its own supersteps and traffic; the cluster keeps the totals.
        from repro.dist import hybrid_bgpc

        for run in (distributed_bgpc, hybrid_bgpc):
            cluster = ClusterModel(2)
            first = run(instance, batch=20, cluster=cluster)
            second = run(instance, batch=20, cluster=cluster)
            fresh = run(instance, batch=20, cluster=ClusterModel(2))
            for result in (first, second):
                assert (
                    result.supersteps,
                    result.comm_words,
                    result.comm_messages,
                    result.cycles,
                ) == (
                    fresh.supersteps,
                    fresh.comm_words,
                    fresh.comm_messages,
                    fresh.cycles,
                )
            assert cluster.num_supersteps == 2 * fresh.supersteps
            assert cluster.total_words == 2 * fresh.comm_words

    def test_hybrid_interior_is_a_partition_statistic(self):
        # Every hybrid vertex takes the supersteps, even on an edgeless
        # graph where the partition calls all of them interior.
        from repro.dist import hybrid_bgpc
        from repro.graph import bipartite_from_edges

        bg = bipartite_from_edges([], num_nets=2, num_vertices=5)
        result = hybrid_bgpc(bg, ranks=2)
        assert (result.interior, result.boundary) == (5, 0)
        assert (result.supersteps, result.comm_words) == (1, 5)

    def test_superstep_loop_guards_against_no_progress(self):
        # A coloring step that always repeats a committed neighbor's color
        # never retires its vertex; the loop must raise, not spin.
        from repro.dist.superstep import run_supersteps
        from repro.graph import bipartite_from_edges

        bg = bipartite_from_edges([(0, 0), (1, 0)], num_vertices=2, num_nets=1)
        part = np.zeros(2, dtype=np.int64)
        colors = np.array([0, -1], dtype=np.int64)
        pending = np.array([1], dtype=np.int64)

        def stuck(slices):
            return [(s, np.zeros(s.size, dtype=np.int64)) for s in slices], [0], [0], [0]

        steps = run_supersteps(bg, part, ClusterModel(1), colors, pending, 1, stuck)
        with pytest.raises(ColoringError, match="did not converge"):
            list(steps)
