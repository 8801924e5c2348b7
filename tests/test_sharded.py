"""Tests for ``backend="sharded"`` and the partitioner registry.

Covers the acceptance guarantees of the sharded backend (see
``docs/sharding.md``): exact parity with the :func:`distributed_bgpc`
oracle given the same partition and batch, byte-identical colors to
``backend="process"`` at one shard, valid colorings on every
regress-suite instance, and determinism at any shard count.  Plus
property tests (hypothesis) for all registered partitioners and the
memory-bound regression for the BFS frontier fix.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import color_bgpc, color_d2gc, validate_bgpc, validate_d2gc
from repro.cli import main
from repro.datasets import channel_mesh, random_bipartite, random_graph
from repro.dist import (
    distributed_bgpc,
    get_partitioner,
    partition_bfs,
    partition_contiguous,
    partition_greedy,
    partitioner_names,
)
from repro.errors import ColoringError
from repro.graph import (
    bipartite_from_dense,
    bipartite_from_edges,
    write_matrix_market,
)
from repro.graph.bipartite import BipartiteGraph

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def instance():
    return random_bipartite(80, 150, density=0.06, seed=53)


def _gview(bg):
    """The constraint-group view the sharded backend partitions on.

    For BGPC the groups are the nets themselves, but the backend rebuilds
    both CSR orientations from the net→vertex side — ``nets(u)`` ordering
    can differ from ``bg``'s, and BFS partitions are ordering-sensitive,
    so parity tests must partition the same view the backend does.
    """
    return BipartiteGraph.from_net_to_vtxs(bg.net_to_vtxs)


class TestOracleParity:
    @pytest.mark.parametrize("partitioner", ["bfs", "contiguous"])
    def test_matches_distributed_oracle(self, instance, partitioner):
        # Same partition + batch => exactly the oracle's colors and
        # superstep/conflict counts; only the communication accounting
        # differs (real exchanges vs the cluster model's charges).
        part = get_partitioner(partitioner)(_gview(instance), 3)
        oracle = distributed_bgpc(instance, ranks=3, batch=20, partition=part)
        result = color_bgpc(
            instance,
            "V-V",
            threads=3,
            backend="sharded",
            partitioner=partitioner,
            batch=20,
        )
        assert np.array_equal(result.colors, oracle.colors)
        assert result.num_colors == oracle.num_colors
        wm = result.work_metrics
        assert wm["shard.supersteps"] == oracle.supersteps
        assert wm["shard.conflicts"] == oracle.conflicts
        assert wm["shard.interior"] == oracle.interior
        assert wm["shard.boundary"] == oracle.boundary

    def test_counts_real_exchanges(self, instance):
        result = color_bgpc(
            instance, "V-V", threads=3, backend="sharded", batch=20
        )
        wm = result.work_metrics
        if wm["shard.boundary"]:
            # Two int64 words (id, color) per boundary pick, re-picked once
            # more per conflict; at least one message per superstep.
            assert wm["shard.comm_words"] == 2 * (
                wm["shard.boundary"] + wm["shard.conflicts"]
            )
            assert wm["shard.comm_messages"] >= wm["shard.supersteps"]

    def test_single_shard_matches_process_backend(self, instance):
        # One shard => every vertex interior, one worker, and the exact
        # colors backend="process" produces with one worker.
        sharded = color_bgpc(instance, "V-V", threads=1, backend="sharded")
        process = color_bgpc(instance, "V-V", threads=1, backend="process")
        assert np.array_equal(sharded.colors, process.colors)
        assert sharded.num_colors == process.num_colors
        wm = sharded.work_metrics
        assert wm["shard.boundary"] == 0
        assert wm["shard.supersteps"] == 0
        assert wm["shard.comm_words"] == 0


class TestValidityAndDeterminism:
    @pytest.mark.parametrize("partitioner", sorted(partitioner_names()))
    def test_valid_every_partitioner(self, instance, partitioner):
        result = color_bgpc(
            instance,
            "V-V",
            threads=3,
            backend="sharded",
            partitioner=partitioner,
        )
        validate_bgpc(instance, result.colors)

    def test_valid_on_regress_instances(self):
        # The same instances the pinned regress suite runs sharded cases on.
        for bg in (
            random_bipartite(120, 200, density=0.05, seed=7),
            channel_mesh(6, 5, 5),
        ):
            result = color_bgpc(bg, "V-V", threads=2, backend="sharded")
            validate_bgpc(bg, result.colors)

    def test_valid_d2gc(self):
        g = random_graph(200, 800, seed=11)
        result = color_d2gc(
            g, "V-V", threads=2, backend="sharded", partitioner="greedy"
        )
        validate_d2gc(g, result.colors)

    @pytest.mark.parametrize("batch", [1, 7, 1000])
    def test_valid_any_batch(self, instance, batch):
        result = color_bgpc(
            instance, "V-V", threads=4, backend="sharded", batch=batch
        )
        validate_bgpc(instance, result.colors)

    def test_deterministic_at_multiple_shards(self, instance):
        # Unlike process, sharded commits only at barriers — the
        # whole run is reproducible at any shard count.
        first = color_bgpc(instance, "V-V", threads=4, backend="sharded")
        for _ in range(2):
            again = color_bgpc(instance, "V-V", threads=4, backend="sharded")
            assert np.array_equal(first.colors, again.colors)
            assert first.work_metrics == again.work_metrics

    def test_iteration_records_cover_supersteps(self, instance):
        result = color_bgpc(
            instance, "V-V", threads=3, backend="sharded", batch=20
        )
        # Record 0 is the interior phase; one record per superstep after.
        assert len(result.iterations) == 1 + result.work_metrics[
            "shard.supersteps"
        ]
        assert result.iterations[0].conflicts == 0


class TestTraceContract:
    """The spans and records the ``parallel`` benchmark's per-layer metrics
    (``sharded.interior_ms``/``boundary_ms``/``supersteps``) are read from."""

    def test_run_span_interior_phase_and_palette_records(self, instance):
        from repro.obs import RecordingTracer

        tracer = RecordingTracer()
        result = color_bgpc(
            instance, "V-V", threads=2, backend="sharded", tracer=tracer
        )
        wm = result.work_metrics
        assert wm["shard.supersteps"] > 0 and wm["shard.comm_words"] > 0
        (run,) = tracer.spans("run")
        assert run.attrs["backend"] == "sharded"
        assert run.attrs["supersteps"] == wm["shard.supersteps"]
        assert run.attrs["comm_words"] == wm["shard.comm_words"]
        assert run.attrs["iterations"] == result.num_iterations
        assert run.attrs["num_colors"] == result.num_colors
        (interior,) = [
            e for e in tracer.spans("phase") if e.attrs.get("kind") == "interior"
        ]
        assert interior.attrs["items"] == wm["shard.interior"] > 0
        assert 0 < interior.value <= run.value
        # Record 0 is the interior phase: it opens the palette.
        assert result.iterations[0].colors_introduced > 0
        assert (
            sum(rec.colors_introduced for rec in result.iterations)
            == result.num_colors
        )


@st.composite
def bipartite_graphs(draw, max_vertices=40, max_nets=30):
    num_vertices = draw(st.integers(1, max_vertices))
    num_nets = draw(st.integers(1, max_nets))
    num_edges = draw(st.integers(0, num_vertices * 3))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_vertices - 1), st.integers(0, num_nets - 1)
            ),
            min_size=num_edges,
            max_size=num_edges,
        )
    )
    return bipartite_from_edges(
        edges, num_vertices=num_vertices, num_nets=num_nets
    )


class TestPartitionerProperties:
    @SLOW
    @given(
        bg=bipartite_graphs(),
        ranks=st.integers(1, 6),
        name=st.sampled_from(["contiguous", "random", "bfs", "greedy"]),
        seed=st.integers(0, 3),
    )
    def test_every_vertex_owned(self, bg, ranks, name, seed):
        part = get_partitioner(name)(bg, ranks, seed=seed)
        assert part.shape == (bg.num_vertices,)
        assert part.dtype == np.int64
        if part.size:
            assert part.min() >= 0
            assert part.max() < ranks

    @SLOW
    @given(n=st.integers(0, 200), ranks=st.integers(1, 9))
    def test_contiguous_balance(self, n, ranks):
        part = partition_contiguous(n, ranks)
        sizes = np.bincount(part, minlength=ranks)
        assert sizes.max() - sizes.min() <= 1
        assert np.all(np.diff(part) >= 0)

    @SLOW
    @given(bg=bipartite_graphs(), ranks=st.integers(1, 6))
    def test_bfs_balance_bound(self, bg, ranks):
        part = partition_bfs(bg, ranks)
        cap = -(-bg.num_vertices // ranks) + 1
        assert np.bincount(part, minlength=ranks).max() <= cap

    @SLOW
    @given(bg=bipartite_graphs(), ranks=st.integers(1, 6))
    def test_greedy_balance_bound(self, bg, ranks):
        part = partition_greedy(bg, ranks)
        cap = -(-bg.num_vertices // ranks) + 1
        assert np.bincount(part, minlength=ranks).max() <= cap

    @SLOW
    @given(
        bg=bipartite_graphs(),
        ranks=st.integers(1, 6),
        name=st.sampled_from(["contiguous", "random", "bfs", "greedy"]),
        seed=st.integers(0, 3),
    )
    def test_deterministic_per_seed(self, bg, ranks, name, seed):
        fn = get_partitioner(name)
        assert np.array_equal(fn(bg, ranks, seed=seed), fn(bg, ranks, seed=seed))

    @SLOW
    @given(
        bg=bipartite_graphs(max_vertices=5),
        name=st.sampled_from(["contiguous", "random", "bfs", "greedy"]),
    )
    def test_more_ranks_than_vertices(self, bg, name):
        ranks = bg.num_vertices + 3
        part = get_partitioner(name)(bg, ranks)
        assert part.shape == (bg.num_vertices,)
        if part.size:
            assert part.min() >= 0
            assert part.max() < ranks


class TestBfsMemoryBound:
    def test_dense_net_queue_stays_linear(self):
        # One net spanning all n vertices: before the mark-on-enqueue fix
        # every dequeue re-enqueued all unassigned neighbors, growing the
        # frontier O(E) = O(n^2) total with an O(n * target) peak.  The
        # frontier now holds each vertex at most once per part.
        n = 300
        pattern = np.ones((1, n), dtype=int)
        bg = bipartite_from_dense(pattern)
        stats = {}
        part = partition_bfs(bg, 4, stats=stats)
        assert stats["max_queue"] <= n
        assert part.shape == (n,)
        assert part.min() >= 0 and part.max() < 4

    def test_fix_preserves_partition(self):
        # The stamp-array fix is output-identical: a part never enqueues a
        # vertex twice, but a later part may still claim it.
        bg = random_bipartite(60, 100, density=0.1, seed=3)
        stats = {}
        part = partition_bfs(bg, 3, stats=stats)
        sizes = np.bincount(part, minlength=3)
        assert sizes.sum() == bg.num_vertices
        assert sizes.max() <= -(-bg.num_vertices // 3) + 1
        assert stats["max_queue"] <= bg.num_vertices


class TestRejections:
    def test_rejects_balancing_policies(self, instance):
        with pytest.raises(ColoringError, match="first-fit"):
            color_bgpc(
                instance, "V-V", threads=2, backend="sharded", policy="B1"
            )

    def test_rejects_resume(self, instance):
        initial = np.full(instance.num_vertices, -1, dtype=np.int64)
        with pytest.raises(ColoringError, match="resume"):
            color_bgpc(
                instance,
                "V-V",
                threads=2,
                backend="sharded",
                initial_colors=initial,
            )

    def test_rejects_bad_batch(self, instance):
        with pytest.raises(ColoringError, match="batch"):
            color_bgpc(
                instance, "V-V", threads=2, backend="sharded", batch=0
            )

    def test_unknown_partitioner_lists_names(self, instance):
        with pytest.raises(ColoringError, match="bfs"):
            color_bgpc(
                instance,
                "V-V",
                threads=2,
                backend="sharded",
                partitioner="metis",
            )

    def test_get_partitioner_error_lists_names(self):
        with pytest.raises(ValueError, match="contiguous"):
            get_partitioner("nope")

    @pytest.mark.parametrize("backend", ["sim", "numpy"])
    def test_other_backends_reject_sharded_options(self, instance, backend):
        # Free-form backend options must fail loudly where unsupported,
        # never be silently ignored.
        with pytest.raises(ColoringError, match="partitioner"):
            color_bgpc(
                instance,
                "V-V",
                threads=2,
                backend=backend,
                partitioner="bfs",
            )


class TestShardedCli:
    @pytest.fixture
    def mtx_file(self, tmp_path, rng):
        pattern = (rng.random((20, 30)) < 0.15).astype(int)
        bg = bipartite_from_dense(pattern)
        path = tmp_path / "instance.mtx"
        write_matrix_market(bg, path)
        return path

    def test_runs_sharded(self, mtx_file, capsys):
        code = main(
            [
                str(mtx_file),
                "--algorithm",
                "V-V",
                "--backend",
                "sharded",
                "--shards",
                "2",
                "--partitioner",
                "bfs",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sharded" in out
        assert "shards" in out

    @pytest.mark.parametrize(
        "flags", [["--shards", "2"], ["--partitioner", "bfs"]]
    )
    def test_flags_require_sharded_backend(self, mtx_file, capsys, flags):
        assert main([str(mtx_file), *flags]) == 2
        err = capsys.readouterr().err
        assert "--backend sharded" in err

    def test_delta_rejects_sharded(self, mtx_file, tmp_path, capsys):
        delta = tmp_path / "delta.json"
        delta.write_text('{"add": [[0, 0]], "remove": []}')
        code = main(
            [
                str(mtx_file),
                "--algorithm",
                "V-V",
                "--backend",
                "sharded",
                "--delta",
                str(delta),
            ]
        )
        assert code == 2
        assert "sharded" in capsys.readouterr().err


class TestWorkerCrash:
    """A killed pool worker surfaces as one ColoringError naming the phase,
    in the interior phase and in a boundary superstep alike, and the
    parent still reclaims every shared segment.

    ``kill`` dies on a worker's first task, which is an interior slice.
    ``kill:3`` dies on a worker's third task; the interior phase has only
    two (one per shard), so it dies in a superstep — which one depends on
    how the pool hands tasks to its two workers."""

    @pytest.mark.parametrize(
        "fault, phase",
        [("kill", "the interior phase"), ("kill:3", r"superstep \d+;")],
    )
    def test_killed_worker_raises_and_leaks_nothing(
        self, instance, monkeypatch, fault, phase
    ):
        import glob

        monkeypatch.setenv("REPRO_PROCESS_FAULT", fault)
        before = set(glob.glob("/dev/shm/repro_shm_*"))
        with pytest.raises(ColoringError, match=f"worker process died during {phase}"):
            color_bgpc(instance, "V-V", threads=2, backend="sharded", batch=20)
        assert set(glob.glob("/dev/shm/repro_shm_*")) == before
