"""Tests for incremental recoloring: deltas, frontiers, the resumed loop.

The acceptance bar (docs/incremental.md): an incremental recolor must be
valid on the mutated graph on every kernel-level backend, byte-identical
across repeat runs on the deterministic backends (a golden pins it), and
must do frontier-proportional work — orders of magnitude less than a
full recolor on small deltas.  Deletions alone must cost nothing.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bgpc import color_bgpc
from repro.core.incremental import IncrementalResult, recolor_incremental
from repro.core.validate import validate_bgpc
from repro.datasets.synthetic import random_bipartite
from repro.errors import ColoringError, GraphError
from repro.graph.build import bipartite_from_edges
from repro.graph.delta import GraphDelta, apply_delta, delta_frontier
from repro.service.fingerprint import graph_fingerprint

EDGES = [(0, 0), (1, 0), (1, 1), (2, 1), (3, 2), (0, 2), (2, 3), (3, 3)]


@pytest.fixture
def bg():
    return bipartite_from_edges(EDGES)


@pytest.fixture(scope="module")
def golden_graph():
    return random_bipartite(40, 160, density=0.05, seed=3)


# -- GraphDelta -------------------------------------------------------------


class TestGraphDelta:
    def test_canonicalized_sorted_deduped(self):
        delta = GraphDelta(insert=[(5, 1), (0, 3), (5, 1)], delete=())
        assert delta.insert.tolist() == [[0, 3], [5, 1]]
        assert delta.num_insertions == 2
        assert delta.num_deletions == 0

    def test_empty_and_delete_only_flags(self):
        assert GraphDelta().is_empty
        assert GraphDelta(delete=[(0, 0)]).is_delete_only
        assert not GraphDelta(insert=[(0, 0)]).is_delete_only
        assert not GraphDelta(insert=[(0, 0)]).is_empty

    def test_edge_in_both_lists_rejected(self):
        with pytest.raises(GraphError, match="both insert and delete"):
            GraphDelta(insert=[(1, 2), (3, 4)], delete=[(1, 2)])

    def test_negative_ids_rejected(self):
        with pytest.raises(GraphError):
            GraphDelta(insert=[(-1, 2)])

    def test_bad_shape_rejected(self):
        with pytest.raises(GraphError):
            GraphDelta(insert=[(1, 2, 3)])

    def test_non_integer_rejected(self):
        with pytest.raises(GraphError):
            GraphDelta(insert=[(0.5, 2)])

    def test_repr(self):
        delta = GraphDelta(insert=[(0, 1)], delete=[(2, 3), (4, 5)])
        assert repr(delta) == "GraphDelta(+1 insert, -2 delete)"


# -- apply_delta ------------------------------------------------------------


class TestApplyDelta:
    def test_insert_and_delete(self, bg):
        delta = GraphDelta(insert=[(0, 1)], delete=[(2, 3)])
        mutated = apply_delta(bg, delta)
        assert mutated.num_edges == bg.num_edges
        assert 1 in mutated.nets(0)
        assert 3 not in mutated.nets(2)
        # the input graph is untouched
        assert 1 not in bg.nets(0)
        assert 3 in bg.nets(2)

    def test_deleting_missing_edge_rejected(self, bg):
        with pytest.raises(GraphError, match="deletes a missing edge"):
            apply_delta(bg, GraphDelta(delete=[(0, 3)]))

    def test_inserting_existing_edge_rejected(self, bg):
        with pytest.raises(GraphError, match="inserts an existing edge"):
            apply_delta(bg, GraphDelta(insert=[(0, 0)]))

    def test_insertions_grow_the_graph(self, bg):
        mutated = apply_delta(bg, GraphDelta(insert=[(7, 9)]))
        assert mutated.num_vertices == 8
        assert mutated.num_nets == 10
        assert 9 in mutated.nets(7)

    def test_deletions_never_shrink(self, bg):
        # remove every edge of vertex 3: cardinalities must not change
        mutated = apply_delta(bg, GraphDelta(delete=[(3, 2), (3, 3)]))
        assert mutated.num_vertices == bg.num_vertices
        assert mutated.num_nets == bg.num_nets
        assert mutated.nets(3).size == 0

    def test_insert_then_delete_round_trips_fingerprint(self, bg):
        pairs = [(0, 1), (3, 0)]
        grown = apply_delta(bg, GraphDelta(insert=pairs))
        back = apply_delta(grown, GraphDelta(delete=pairs))
        assert graph_fingerprint(back) == graph_fingerprint(bg)


# -- the frontier rule ------------------------------------------------------


class TestDeltaFrontier:
    def test_deletions_invalidate_nothing(self, bg):
        delta = GraphDelta(delete=[(0, 0), (2, 3)])
        mutated = apply_delta(bg, delta)
        assert delta_frontier(mutated, delta).size == 0

    def test_insertion_frontier_covers_net_members(self, bg):
        # inserting (3, 0) makes net 0 = {0, 1, 3}: all three must recolor
        delta = GraphDelta(insert=[(3, 0)])
        mutated = apply_delta(bg, delta)
        assert delta_frontier(mutated, delta).tolist() == [0, 1, 3]

    def test_frontier_uses_mutated_membership(self, bg):
        # delete (1, 0) and insert (3, 0): net 0 is now {0, 3} — vertex 1
        # no longer shares it, so it is NOT invalidated
        delta = GraphDelta(insert=[(3, 0)], delete=[(1, 0)])
        mutated = apply_delta(bg, delta)
        assert delta_frontier(mutated, delta).tolist() == [0, 3]


# -- recolor_incremental ----------------------------------------------------


class TestRecolorIncremental:
    @pytest.mark.parametrize("backend", ["sim", "process"])
    def test_valid_on_kernel_backends(self, golden_graph, backend):
        bg = golden_graph
        base = color_bgpc(bg, algorithm="V-V", threads=4)
        delta = GraphDelta(insert=[(0, 0), (1, 1)], delete=[(0, 8)])
        threads = 1 if backend == "process" else 4
        inc = recolor_incremental(
            bg, base.colors, delta,
            algorithm="V-V", threads=threads, backend=backend,
        )
        assert isinstance(inc, IncrementalResult)
        validate_bgpc(inc.graph, inc.colors)
        assert inc.frontier_size > 0

    def test_numpy_cannot_resume(self, golden_graph):
        bg = golden_graph
        base = color_bgpc(bg, algorithm="V-V", threads=4)
        with pytest.raises(ColoringError, match="cannot resume"):
            recolor_incremental(
                bg, base.colors, GraphDelta(insert=[(0, 0)]),
                backend="numpy",
            )

    def test_wrong_colors_shape_rejected(self, golden_graph):
        with pytest.raises(ColoringError):
            recolor_incremental(
                golden_graph, np.zeros(3, dtype=np.int64),
                GraphDelta(insert=[(0, 0)]),
            )

    def test_invalid_base_coloring_rejected(self, bg):
        colors = np.zeros(bg.num_vertices, dtype=np.int64)  # all conflicts
        with pytest.raises(Exception):
            recolor_incremental(bg, colors, GraphDelta(insert=[(0, 1)]))

    def test_empty_delta_zero_work_identical_colors(self, golden_graph):
        bg = golden_graph
        base = color_bgpc(bg, algorithm="V-V", threads=4)
        inc = recolor_incremental(bg, base.colors, GraphDelta())
        assert np.array_equal(inc.colors, base.colors)
        assert inc.frontier_size == 0
        assert sum(inc.work_metrics.values()) == 0

    def test_delete_only_zero_work(self, golden_graph):
        bg = golden_graph
        base = color_bgpc(bg, algorithm="V-V", threads=4)
        inc = recolor_incremental(
            bg, base.colors, GraphDelta(delete=[(0, 8), (3, 27)])
        )
        assert np.array_equal(inc.colors, base.colors)
        assert inc.frontier_size == 0
        assert sum(inc.work_metrics.values()) == 0
        validate_bgpc(inc.graph, inc.colors)

    def test_incremental_work_far_below_full(self):
        # A larger instance than the golden graph: the >= 10x claim needs
        # the frontier to be a small share of the vertex set.
        bg = random_bipartite(300, 1200, density=0.01, seed=42)
        base = color_bgpc(bg, algorithm="V-V", threads=4)
        delta = GraphDelta(insert=[(0, 0), (1, 1), (2, 0)],
                           delete=[(0, 46), (1, 11)])
        inc = recolor_incremental(bg, base.colors, delta,
                                  algorithm="V-V", threads=4)
        mutated = apply_delta(bg, delta)
        full = color_bgpc(mutated, algorithm="V-V", threads=4)

        def work(metrics):
            return metrics.get("probes", 0) + metrics.get("conflict_checks", 0)

        assert work(inc.work_metrics) * 10 <= work(full.work_metrics)

    def test_golden_pinned_on_sim(self, golden_graph):
        """Byte-level determinism contract for the deterministic backend.

        If this fails, the incremental loop's behavior changed: either
        re-pin deliberately (and say so in the commit) or find the bug.
        """
        bg = golden_graph
        base = color_bgpc(bg, algorithm="V-V", threads=4)
        assert (base.num_colors, int(base.colors.sum())) == (17, 705)
        delta = GraphDelta(insert=[(0, 0), (1, 1), (2, 0)],
                           delete=[(0, 8), (3, 27)])
        inc = recolor_incremental(bg, base.colors, delta,
                                  algorithm="V-V", threads=4)
        assert inc.num_colors == 17
        assert int(inc.colors.sum()) == 731
        assert inc.frontier_size == 15
        assert inc.work_metrics == {
            "tasks": 36, "probes": 112, "scans": 508,
            "conflict_checks": 483, "queue_pushes": 3, "color_writes": 18,
        }
        assert inc.result.num_iterations == 2
        assert inc.result.cycles == 8975.0

    def test_deterministic_across_runs(self, golden_graph):
        bg = golden_graph
        base = color_bgpc(bg, algorithm="V-V", threads=4)
        delta = GraphDelta(insert=[(0, 0), (2, 0)], delete=[(0, 8)])
        runs = [
            recolor_incremental(bg, base.colors, delta,
                                algorithm="V-V", threads=4)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].colors, runs[1].colors)
        assert runs[0].result.cycles == runs[1].result.cycles
        assert runs[0].work_metrics == runs[1].work_metrics


# -- equivalence property: full vs incremental on random deltas -------------


def _two_hop_bound(bg) -> int:
    """max over vertices of sum(|net| - 1): an upper bound on any
    forbidden set the greedy loop can see, hence on first-fit colors."""
    sizes = np.bincount(bg.vtx_to_nets.idx, minlength=bg.num_nets)
    bound = 0
    for v in range(bg.num_vertices):
        nets = bg.nets(v)
        if nets.size:
            bound = max(bound, int((sizes[nets] - 1).sum()))
    return bound


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_incremental_equivalent_to_full_on_random_deltas(data):
    """Property: for any graph and any legal delta, the incremental
    recolor is valid on the mutated graph and its palette respects the
    same bounds a full recolor's would."""
    edges = data.draw(
        st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 7)),
            min_size=4, max_size=40, unique=True,
        ),
        label="edges",
    )
    bg = bipartite_from_edges(edges)
    existing = {(int(u), int(n)) for u, n in edges}
    delete = data.draw(
        st.lists(st.sampled_from(sorted(existing)), max_size=4, unique=True),
        label="delete",
    )
    absent = sorted(
        (u, n)
        for u in range(bg.num_vertices)
        for n in range(bg.num_nets)
        if (u, n) not in existing
    )
    insert = (
        data.draw(
            st.lists(st.sampled_from(absent), max_size=4, unique=True),
            label="insert",
        )
        if absent
        else []
    )

    base = color_bgpc(bg, algorithm="V-V", threads=4)
    delta = GraphDelta(insert=insert, delete=delete)
    inc = recolor_incremental(bg, base.colors, delta,
                              algorithm="V-V", threads=4)
    mutated = apply_delta(bg, delta)
    full = color_bgpc(mutated, algorithm="V-V", threads=4)

    validate_bgpc(mutated, inc.colors)  # always valid
    validate_bgpc(mutated, full.colors)
    lower = mutated.color_lower_bound()
    bound = max(base.num_colors, _two_hop_bound(mutated) + 1)
    assert lower <= inc.num_colors <= bound
    assert lower <= full.num_colors <= bound


class TestScheduleResolution:
    """The frontier run resolves its schedule exactly like ``color_bgpc``."""

    @pytest.fixture
    def clique_delta(self, golden_graph):
        # A new net over every 4th vertex: its 40 members race on 8
        # simulated threads, so the frontier run takes several iterations.
        bg = golden_graph
        return GraphDelta(insert=[(v, bg.num_nets) for v in range(0, 160, 4)])

    def test_adaptive_schedule_runs(self, golden_graph, clique_delta):
        bg = golden_graph
        base = color_bgpc(bg, algorithm="adaptive", threads=8)
        inc = recolor_incremental(
            bg, base.colors, clique_delta, algorithm="adaptive", threads=8
        )
        validate_bgpc(inc.graph, inc.colors)
        assert inc.result.algorithm == "adaptive"

    def test_switch_segments_honoured(self, golden_graph, clique_delta,
                                      monkeypatch):
        from repro.core.backends import SimPhaseEngine
        from repro.core.bgpc.runner import BGPCAdapter
        from repro.types import PhaseKind

        built = {}
        make_kernel = BGPCAdapter.make_vertex_color_kernel

        def spy_make_kernel(self, policy, **kwargs):
            kernel = make_kernel(self, policy, **kwargs)
            built[kernel] = type(policy).__name__
            return kernel

        ran = []
        run_phase = SimPhaseEngine.run_phase

        def spy_run_phase(self, plan, n_tasks, kernel, task_ids=None,
                          scan_items=0):
            if plan.phase == PhaseKind.COLOR:
                ran.append(built[kernel])
            return run_phase(self, plan, n_tasks, kernel, task_ids, scan_items)

        monkeypatch.setattr(
            BGPCAdapter, "make_vertex_color_kernel", spy_make_kernel
        )
        monkeypatch.setattr(SimPhaseEngine, "run_phase", spy_run_phase)
        bg = golden_graph
        base = color_bgpc(bg, algorithm="V-V", threads=4)
        ran.clear()
        inc = recolor_incremental(
            bg, base.colors, clique_delta, algorithm="V-V-B1-B2@1", threads=8
        )
        validate_bgpc(inc.graph, inc.colors)
        # Iteration 0 runs the base B1 policy, every later one the B2 switch.
        assert len(ran) >= 2
        assert ran == ["B1Policy"] + ["B2Policy"] * (len(ran) - 1)


# -- frontier runs and the flattened two-hop --------------------------------


class TestFrontierTwoHop:
    """A resumed run builds no whole-graph two-hop structure.

    Its vertex kernels use a memoized structure when one exists and the
    per-net loop otherwise; both charge the same cycles and counters.
    """

    CLIQUE = GraphDelta(insert=[(v, 40) for v in range(0, 160, 4)])

    @staticmethod
    def _run(bg, base, algorithm, threads, seed):
        from repro.graph.twohop import bgpc_twohop, seed_bgpc_twohop

        mutated = apply_delta(bg, TestFrontierTwoHop.CLIQUE)
        if seed == "built":
            bgpc_twohop(mutated)
        elif seed == "none":
            seed_bgpc_twohop(mutated, None)
        inc = recolor_incremental(
            bg, base, TestFrontierTwoHop.CLIQUE, algorithm=algorithm,
            threads=threads, mutated=mutated,
        )
        return mutated, inc.result

    @pytest.mark.parametrize("threads", [1, 16])
    @pytest.mark.parametrize("algorithm", ["V-V", "V-V-64D", "V-N1", "N1-N2"])
    def test_seeded_and_loop_paths_identical(self, golden_graph, algorithm,
                                             threads):
        from repro.graph import twohop

        base = color_bgpc(golden_graph, algorithm="V-V", threads=threads).colors
        runs = {
            seed: self._run(golden_graph, base, algorithm, threads, seed)
            for seed in ("built", "none", "default")
        }
        mutated, default = runs["default"]
        assert mutated not in twohop._bgpc_cache
        for seed in ("built", "none"):
            result = runs[seed][1]
            assert result.colors.tobytes() == default.colors.tobytes()
            assert result.cycles == default.cycles
            assert result.work_metrics == default.work_metrics
            assert [
                (r.queue_size, r.conflicts, r.cycles) for r in result.iterations
            ] == [(r.queue_size, r.conflicts, r.cycles) for r in default.iterations]

    def test_process_spec_ships_two_hop_only_when_it_exists(self, golden_graph):
        from repro.core.bgpc.runner import BGPCAdapter
        from repro.graph import twohop
        from repro.machine.cost import CostModel

        mutated = apply_delta(golden_graph, self.CLIQUE)
        adapter = BGPCAdapter(mutated, CostModel())
        assert "two_ptr" not in adapter.process_spec(resumed=True)["arrays"]
        assert mutated not in twohop._bgpc_cache
        assert "two_ptr" in adapter.process_spec()["arrays"]
        assert "two_ptr" in adapter.process_spec(resumed=True)["arrays"]

    def test_d2gc_resumed_run_builds_no_two_hop(self):
        from repro.core.d2gc.runner import D2GCAdapter, color_d2gc
        from repro.core.driver import run_speculative
        from repro.datasets import random_graph
        from repro.graph import twohop
        from repro.machine.cost import CostModel
        from repro.types import UNCOLORED

        colors = color_d2gc(random_graph(60, 200, seed=4), algorithm="V-V",
                            threads=4).colors
        colors[::5] = UNCOLORED
        results = []
        for seed in ("built", "default"):
            g = random_graph(60, 200, seed=4)
            if seed == "built":
                twohop.d2gc_twohop(g)
            results.append(run_speculative(
                D2GCAdapter(g, CostModel()), "V-V", threads=4,
                initial_colors=colors,
                initial_work=np.flatnonzero(colors == UNCOLORED),
            ))
        assert g not in twohop._d2gc_cache
        built, default = results
        assert built.colors.tobytes() == default.colors.tobytes()
        assert (built.cycles, built.work_metrics) == (default.cycles, default.work_metrics)
