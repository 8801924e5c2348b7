"""Differential tests for the vectorized sharded-path graph walks.

:func:`repro.dist.partition_bfs`, :func:`repro.dist.boundary_mask` and
:func:`repro.dist.superstep.detect_losers` replaced per-vertex Python
walks (vertex → net → vertex, one numpy scalar at a time) with net-once
numpy code.  The replaced loops live on here as reference oracles, and
hypothesis checks that the vectorized versions agree with them exactly —
owner arrays, ``stats["max_queue"]``, boundary masks, loser lists and the
``conflict_checks`` count — on graphs with empty nets, isolated vertices,
a net holding every vertex, stars and disconnected components.

Also pinned here: ``partition_greedy`` (seeded from the BFS partition)
gives the owners it gave before the rewrite on the registry's ``tiny``
instances, and the peak allocation of the BFS walk and of loser
detection stays linear in the graph size on a dense clique graph (a
gather of the full two-hop walk would not).
"""

from __future__ import annotations

import hashlib
import tracemalloc
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import bgpc_dataset_names, load_dataset
from repro.datasets.synthetic import copapers_like
from repro.dist import boundary_mask, partition_bfs, partition_greedy
from repro.dist import superstep
from repro.dist.superstep import detect_losers
from repro.graph.bipartite import BipartiteGraph
from repro.graph.csr import CSR
from repro.types import UNCOLORED

EXAMPLES = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------------
# Reference oracles: the per-vertex loops the vectorized walks replaced.


def oracle_partition_bfs(bg, ranks, stats=None):
    n = bg.num_vertices
    target = -(-n // ranks)
    part = np.full(n, -1, dtype=np.int64)
    enqueued = np.full(n, -1, dtype=np.int64)
    max_queue = 0
    next_seed = 0
    for r in range(ranks - 1):
        size = 0
        queue = deque()
        while size < target:
            if not queue:
                while next_seed < n and part[next_seed] != -1:
                    next_seed += 1
                if next_seed == n:
                    break
                queue.append(next_seed)
                enqueued[next_seed] = r
            u = queue.popleft()
            if part[u] != -1:
                continue
            part[u] = r
            size += 1
            for net in bg.nets(u):
                for w in bg.vtxs(net):
                    if part[w] == -1 and enqueued[w] != r:
                        enqueued[w] = r
                        queue.append(int(w))
            if len(queue) > max_queue:
                max_queue = len(queue)
    part[part == -1] = ranks - 1
    if stats is not None:
        stats["max_queue"] = max_queue
    return part


def oracle_boundary_mask(bg, part):
    mask = np.zeros(bg.num_vertices, dtype=bool)
    for net in range(bg.num_nets):
        vs = bg.vtxs(net)
        if vs.size > 1:
            owners = part[vs]
            if (owners != owners[0]).any():
                mask[vs] = True
    return mask


def oracle_conflicted(bg, batch, colors):
    """Losers in batch order plus the adjacency entries examined."""
    losers = []
    checks = 0
    for u in batch.tolist():
        cu = colors[u]
        lost = False
        for net in bg.nets(u):
            for w in bg.vtxs(net):
                checks += 1
                if w < u and colors[w] == cu:
                    lost = True
                    break
            if lost:
                break
        if lost:
            losers.append(u)
    return losers, checks


# --------------------------------------------------------------------------
# Graph strategy.


def _graph(n, nets):
    ptr = np.zeros(len(nets) + 1, dtype=np.int64)
    ptr[1:] = np.cumsum([len(net) for net in nets])
    idx = np.array([v for net in nets for v in net], dtype=np.int64)
    return BipartiteGraph.from_net_to_vtxs(CSR(ptr, idx, n))


@st.composite
def walk_graphs(draw, max_vertices=30, max_nets=20):
    """Net lists with empty nets, isolated vertices and the shapes below.

    ``shape`` adds a star (a hub sharing a 2-net with every other vertex),
    a net holding every vertex, or splits the vertices into disconnected
    components (each net keeps only the members of one component).
    Member lists may be unsorted and hold repeats.
    """
    n = draw(st.integers(0, max_vertices))
    members = st.lists(st.integers(0, n - 1), max_size=6) if n else st.just([])
    nets = draw(st.lists(members, max_size=max_nets))
    shape = draw(st.sampled_from(["plain", "star", "whole", "components"]))
    if shape == "star" and n:
        hub = draw(st.integers(0, n - 1))
        nets += [[hub, leaf] for leaf in range(n) if leaf != hub]
    elif shape == "whole":
        at = draw(st.integers(0, len(nets)))
        nets.insert(at, list(range(n)))
    elif shape == "components" and n:
        comp = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        nets = [[v for v in net if comp[v] == comp[net[0]]] if net else []
                for net in nets]
    if draw(st.booleans()):
        nets = [sorted(set(net)) for net in nets]
    return _graph(n, nets)


def _ranks(n):
    return st.sampled_from([1, 2, 3, n + 1, n + 4])


# --------------------------------------------------------------------------


class TestPartitionBfsMatchesOracle:
    @EXAMPLES
    @given(data=st.data())
    def test_owners_and_max_queue(self, data):
        bg = data.draw(walk_graphs())
        ranks = data.draw(_ranks(bg.num_vertices))
        got_stats, want_stats = {}, {}
        got = partition_bfs(bg, ranks, stats=got_stats)
        want = oracle_partition_bfs(bg, ranks, stats=want_stats)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        assert got_stats == want_stats

    @pytest.mark.parametrize("ranks", [1, 2, 3, 7, 400])
    @pytest.mark.parametrize("name", ["channel", "copapers", "web", "kkt"])
    def test_registry_instances(self, name, ranks):
        bg = load_dataset(name, "tiny")
        got_stats, want_stats = {}, {}
        got = partition_bfs(bg, ranks, stats=got_stats)
        want = oracle_partition_bfs(bg, ranks, stats=want_stats)
        assert np.array_equal(got, want)
        assert got_stats == want_stats

    def test_isolated_vertices_between_components(self):
        # Vertex 1 is isolated, 3 sits alone in a net of its own and 5
        # appears twice in one net: each is a seed that enqueues nothing.
        bg = _graph(8, [[0, 2], [3], [], [4, 6], [5, 5], [7, 0]])
        for ranks in (2, 3, 4, 9):
            got_stats, want_stats = {}, {}
            got = partition_bfs(bg, ranks, stats=got_stats)
            want = oracle_partition_bfs(bg, ranks, stats=want_stats)
            assert np.array_equal(got, want)
            assert got_stats == want_stats


class TestBoundaryMaskMatchesOracle:
    @EXAMPLES
    @given(data=st.data())
    def test_any_owner_array(self, data):
        bg = data.draw(walk_graphs())
        ranks = data.draw(_ranks(bg.num_vertices))
        part = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, ranks - 1),
                    min_size=bg.num_vertices,
                    max_size=bg.num_vertices,
                )
            ),
            dtype=np.int64,
        )
        assert np.array_equal(
            boundary_mask(bg, part), oracle_boundary_mask(bg, part)
        )

    @EXAMPLES
    @given(data=st.data())
    def test_bfs_partitions(self, data):
        bg = data.draw(walk_graphs())
        part = partition_bfs(bg, data.draw(_ranks(bg.num_vertices)))
        assert np.array_equal(
            boundary_mask(bg, part), oracle_boundary_mask(bg, part)
        )


class TestDetectLosersMatchesOracle:
    @EXAMPLES
    @given(data=st.data())
    def test_losers_and_conflict_checks(self, data):
        bg = data.draw(walk_graphs())
        n = bg.num_vertices
        colors = np.asarray(
            data.draw(st.lists(st.integers(UNCOLORED, 3), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        batch = np.asarray(
            data.draw(st.permutations(range(n)))[: data.draw(st.integers(0, n))],
            dtype=np.int64,
        )
        # Small chunks split walks, and single nets, across gathers.
        chunk = data.draw(st.sampled_from([1, 2, 3, 7, superstep.LOSER_CHUNK]))
        with mock.patch.object(superstep, "LOSER_CHUNK", chunk):
            losers, checks = detect_losers(bg, batch, colors)
        want_losers, want_checks = oracle_conflicted(bg, batch, colors)
        assert losers.dtype == np.int64
        assert losers.tolist() == want_losers
        assert checks == want_checks

    def test_empty_batch(self):
        bg = _graph(3, [[0, 1, 2]])
        losers, checks = detect_losers(
            bg, np.empty(0, dtype=np.int64), np.zeros(3, dtype=np.int64)
        )
        assert losers.size == 0 and checks == 0

    def test_checks_stop_at_first_losing_entry(self):
        # u=2 walks net 0 = [2, 0, 1]: entry 2 (w=0, same color) loses, so
        # 2 entries are examined, not the whole 5-entry walk.
        bg = _graph(3, [[2, 0, 1], [1, 2]])
        losers, checks = detect_losers(
            bg, np.array([2]), np.array([4, 5, 4], dtype=np.int64)
        )
        assert losers.tolist() == [2]
        assert checks == 2


def _dense_cliques():
    # Cliques up to 200 authors: each clique of k vertices is k nets of k
    # members, so its two-hop walk is k^3 entries against k^2 edges.
    return copapers_like(num_vertices=600, num_cliques=120, max_clique=200, seed=3)


def _two_hop_bytes(bg):
    """Bytes of one int64 array over every vertex's full two-hop walk."""
    net_sizes = bg.net_to_vtxs.degrees()
    return 8 * int(net_sizes[bg.vtx_to_nets.idx].sum())


class TestDetectLosersPeakMemory:
    """Loser detection gathers the two-hop walk in bounded chunks."""

    def test_whole_graph_batch_on_cliques(self):
        bg = _dense_cliques()
        n = bg.num_vertices
        batch = np.arange(n, dtype=np.int64)
        # Two colors: many ties, but most walks still run to the end.
        colors = batch % 2
        linear_bytes = 8 * (bg.num_edges + n + bg.num_nets)
        bound = 16 * linear_bytes
        assert _two_hop_bytes(bg) > 10 * bound

        tracemalloc.start()
        try:
            losers, checks = detect_losers(bg, batch, colors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        assert peak < bound, (
            f"detect_losers peaked at {peak / 2**20:.1f} MiB; the linear "
            f"bound is {bound / 2**20:.1f} MiB"
        )
        # The oracle loop is too slow at this size; other chunkings agree.
        for chunk in (1000, 3 * superstep.LOSER_CHUNK):
            with mock.patch.object(superstep, "LOSER_CHUNK", chunk):
                again, again_checks = detect_losers(bg, batch, colors)
            assert np.array_equal(again, losers) and again_checks == checks
        assert 0 < losers.size < n


class TestGreedyPartitionPinned:
    #: sha256 prefixes of ``partition_greedy(load_dataset(name, "tiny"),
    #: ranks)`` owner bytes (little-endian int64) at ranks 2, 3 and 5, as
    #: produced by the per-vertex BFS before the vectorized rewrite.
    PINNED = {
        "movielens": ("b630f2e73bb52779", "e8ec89c6f7d89559", "9aca92095c1c1138"),
        "af_shell": ("9c8ef41b58f105f2", "e2b14e2f6f941464", "7c99a622ff641a14"),
        "bone": ("5ca816beb5dd2bac", "f657d983742a1f47", "7ef012906d98c099"),
        "channel": ("806890665ea80787", "2780a5c1d0ed37ae", "8044320158607a0d"),
        "copapers": ("27e164e56717e0ad", "13e310867f5cd7e5", "c42a5c0eb2c5b10e"),
        "cfd": ("98476a09d1f6819b", "0e8b31bd9c7d7b85", "1bf6c7afdb19d886"),
        "kkt": ("2aa6f4de885d83d4", "10df6cd649c6c48e", "5afb9976617c46e1"),
        "web": ("a7b82d4bfad4be93", "1e1240c3622a1747", "53490b9fa74f9bd5"),
    }

    def test_covers_the_registry(self):
        assert set(self.PINNED) == set(bgpc_dataset_names())

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_owners_unchanged(self, name):
        bg = load_dataset(name, "tiny")
        got = tuple(
            hashlib.sha256(
                partition_greedy(bg, ranks).astype("<i8").tobytes()
            ).hexdigest()[:16]
            for ranks in (2, 3, 5)
        )
        assert got == self.PINNED[name]


class TestBfsPeakMemory:
    """The net-once walk allocates O(|E|), never the two-hop gather."""

    @pytest.mark.parametrize("ranks", [2, 4])
    def test_peak_linear_in_graph_size(self, ranks):
        bg = _dense_cliques()
        linear_bytes = 8 * (bg.num_edges + bg.num_vertices + bg.num_nets)
        bound = 16 * linear_bytes
        assert _two_hop_bytes(bg) > 10 * bound  # the dense regime is exercised

        tracemalloc.start()
        try:
            part = partition_bfs(bg, ranks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        assert part.shape == (bg.num_vertices,)
        assert peak < bound, (
            f"partition_bfs peaked at {peak / 2**20:.1f} MiB; the linear "
            f"bound is {bound / 2**20:.1f} MiB"
        )
