"""Execution-backend registry and the schedules × backends parity matrix.

Every named schedule must produce a *valid* coloring on every registered
backend; ``numpy``-exact mode must match the sequential reference (and
therefore the one-thread simulator) byte-for-byte; ``process`` runs on a
shared-memory worker pool, must converge despite genuine races, and must
leave zero stale ``/dev/shm`` segments on every exit path, including a
worker killed mid-iteration.
"""

import glob

import numpy as np
import pytest

from repro.core.backends import (
    NumpyBackend,
    ProcessBackend,
    SimBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.core.bgpc import BGPC_ALGORITHMS, color_bgpc, sequential_bgpc
from repro.core.compiled import PURE_ENV, numba_available
from repro.core.d2gc import color_d2gc
from repro.core.validate import validate_bgpc, validate_d2gc
from repro.errors import ColoringError
from repro.graph import bipartite_from_dense
from repro.graph.ops import bipartite_to_graph


@pytest.fixture
def bg(rng):
    return bipartite_from_dense((rng.random((25, 35)) < 0.18).astype(int))


def _runnable(backend, monkeypatch):
    """Keep the parity matrix total: ``compiled`` registers without numba,
    so run its kernels as plain Python where numba is missing (CI's
    compiled-smoke job covers the JIT path)."""
    if backend == "compiled" and not numba_available():
        monkeypatch.setenv(PURE_ENV, "1")


@pytest.fixture
def sym_graph(rng):
    base = (rng.random((24, 24)) < 0.12).astype(int)
    sym = ((base + base.T + np.eye(24, dtype=int)) > 0).astype(int)
    return bipartite_to_graph(bipartite_from_dense(sym))


class TestRegistry:
    def test_default_backends_registered(self):
        assert set(backend_names()) >= {"sim", "numpy", "process"}

    def test_get_backend_returns_singletons(self):
        assert isinstance(get_backend("sim"), SimBackend)
        assert isinstance(get_backend("numpy"), NumpyBackend)
        assert isinstance(get_backend("process"), ProcessBackend)

    def test_unknown_backend_lists_names(self):
        with pytest.raises(ColoringError, match="unknown backend"):
            get_backend("gpu")
        with pytest.raises(ColoringError, match="process"):
            get_backend("gpu")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ColoringError, match="already registered"):
            register_backend(SimBackend())

    def test_replace_allows_reregistration(self):
        original = get_backend("sim")
        try:
            replacement = SimBackend()
            register_backend(replacement, replace=True)
            assert get_backend("sim") is replacement
        finally:
            register_backend(original, replace=True)


class TestParityMatrix:
    """All named schedules × all registered backends → valid colorings."""

    @pytest.mark.parametrize("alg", sorted(BGPC_ALGORITHMS))
    @pytest.mark.parametrize("backend", sorted(backend_names()))
    def test_bgpc_conflict_free(self, bg, alg, backend, monkeypatch):
        _runnable(backend, monkeypatch)
        result = color_bgpc(bg, algorithm=alg, threads=4, backend=backend)
        validate_bgpc(bg, result.colors)
        assert result.backend == backend

    @pytest.mark.parametrize("alg", ("V-V-64D", "N1-N2"))
    @pytest.mark.parametrize("backend", sorted(backend_names()))
    def test_d2gc_conflict_free(self, sym_graph, alg, backend, monkeypatch):
        _runnable(backend, monkeypatch)
        result = color_d2gc(sym_graph, algorithm=alg, threads=4, backend=backend)
        validate_d2gc(sym_graph, result.colors)

    @pytest.mark.parametrize("alg", sorted(BGPC_ALGORITHMS))
    def test_numpy_exact_matches_sequential_bytes(self, bg, alg):
        # Exact mode ignores the kernel schedule; every named spec must
        # yield the sequential-greedy colors byte-for-byte.
        exact = color_bgpc(bg, algorithm=alg, backend="numpy")
        seq = sequential_bgpc(bg)
        assert exact.colors.tobytes() == seq.colors.tobytes()

    @pytest.mark.parametrize("alg", ("V-V", "V-V-64", "V-V-64D"))
    def test_numpy_exact_matches_one_thread_sim_bytes(self, bg, alg):
        # At one simulated thread the vertex-based schedules are race-free
        # and reduce to sequential greedy, so sim and numpy-exact agree
        # exactly (net-based schedules legitimately recolor and differ).
        sim = color_bgpc(bg, algorithm=alg, threads=1, backend="sim")
        fast = color_bgpc(bg, algorithm=alg, backend="numpy")
        assert sim.colors.tobytes() == fast.colors.tobytes()


class TestSwitchedScheduleParity:
    """Per-iteration ``@`` policy switches run on every backend.

    Whole-array backends ignore kernel plans (they already ignore the
    static balancing suffix the same way), so a switched spec must stay
    *valid* everywhere and byte-match the usual parity anchors.
    """

    @pytest.mark.parametrize("backend", sorted(backend_names()))
    def test_valid_on_every_backend(self, bg, backend, monkeypatch):
        _runnable(backend, monkeypatch)
        result = color_bgpc(bg, algorithm="V-V-64D-B1@2", threads=4, backend=backend)
        validate_bgpc(bg, result.colors)
        assert result.algorithm == "V-V-64D-B1@2"

    def test_numpy_exact_matches_sequential_bytes(self, bg):
        exact = color_bgpc(bg, algorithm="V-V-64D-B1@2", backend="numpy")
        seq = sequential_bgpc(bg)
        assert exact.colors.tobytes() == seq.colors.tobytes()

    def test_one_thread_sim_matches_sequential_bytes(self, bg):
        # One simulated thread is race-free: the loop converges before any
        # switch iteration is reached, reducing to sequential greedy.
        sim = color_bgpc(bg, algorithm="V-V-64D-B1@2", threads=1, backend="sim")
        seq = sequential_bgpc(bg)
        assert sim.colors.tobytes() == seq.colors.tobytes()

    def test_noop_switch_is_byte_identical(self, bg):
        # Switching to the policy already active must not perturb anything.
        plain = color_bgpc(bg, algorithm="V-V-64D", threads=16, backend="sim")
        switched = color_bgpc(bg, algorithm="V-V-64D-U@3", threads=16, backend="sim")
        assert plain.colors.tobytes() == switched.colors.tobytes()
        assert plain.work_metrics == switched.work_metrics

    def test_switch_shares_iteration_zero_with_base(self, bg):
        # B1@1 runs first-fit at iteration 0 exactly like the unswitched
        # spec, so the first iteration's record is identical; later
        # iterations recolor the conflict queue with B1 instead.
        plain = color_bgpc(bg, algorithm="V-V-64D", threads=16, backend="sim")
        switched = color_bgpc(bg, algorithm="V-V-64D-B1@1", threads=16, backend="sim")
        assert switched.iterations[0].queue_size == plain.iterations[0].queue_size
        assert switched.iterations[0].conflicts == plain.iterations[0].conflicts
        validate_bgpc(bg, switched.colors)

    def test_process_multiworker_switched_valid(self, bg):
        result = color_bgpc(
            bg, algorithm="V-V-64D-B1@1", threads=2, backend="process"
        )
        validate_bgpc(bg, result.colors)


def _shm_segments() -> set:
    """Current ``repro_shm_`` segments in ``/dev/shm`` (empty off Linux)."""
    return set(glob.glob("/dev/shm/repro_shm_*"))


class TestProcessBackend:
    """Worker-pool semantics, shared-memory hygiene, and fault injection."""

    def test_converges_and_reports_wall(self, bg):
        from repro.obs import profile_table

        result = color_bgpc(bg, algorithm="V-V-64D", threads=2, backend="process")
        validate_bgpc(bg, result.colors)
        assert result.backend == "process"
        assert result.cycles == 0.0
        assert result.wall_seconds > 0.0
        assert all(rec.color_timing is None for rec in result.iterations)
        assert all(rec.wall_seconds > 0.0 for rec in result.iterations)
        assert "backend process" in profile_table(result)

    def test_dispatched_phases_beyond_one_chunk(self, rng):
        # > chunk tasks forces pool dispatch (small phases run inline in
        # the parent); the coloring must stay valid either way.
        big = bipartite_from_dense((rng.random((90, 160)) < 0.08).astype(int))
        result = color_bgpc(big, algorithm="V-V-64D", threads=2, backend="process")
        validate_bgpc(big, result.colors)

    def test_single_worker_v_v_matches_sequential(self, bg):
        # One worker drains the chunk queue in order with no races: plain
        # greedy in work order.
        result = color_bgpc(bg, algorithm="V-V", threads=1, backend="process")
        seq = sequential_bgpc(bg)
        assert result.colors.tobytes() == seq.colors.tobytes()
        assert result.num_iterations == 1

    def test_worker_counters_through_tracer(self, bg):
        from repro.obs import RecordingTracer

        tracer = RecordingTracer()
        result = color_bgpc(
            bg, algorithm="V-V-64D", threads=2, backend="process", tracer=tracer
        )
        validate_bgpc(bg, result.colors)
        counters = [e for e in tracer.events if e.name == "process.worker_tasks"]
        assert counters
        assert all(e.attrs["phase"] in ("color", "remove") for e in counters)
        colored = sum(
            e.value for e in counters if e.attrs["phase"] == "color"
        )
        # Every vertex is colored at least once (conflicts recolor extras).
        assert colored >= bg.num_vertices

    def test_no_leaked_segments_after_clean_run(self, bg):
        before = _shm_segments()
        result = color_bgpc(bg, algorithm="V-V-64D", threads=2, backend="process")
        validate_bgpc(bg, result.colors)
        assert _shm_segments() == before

    def test_killed_worker_raises_and_leaks_nothing(self, bg, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESS_FAULT", "kill")
        before = _shm_segments()
        with pytest.raises(ColoringError, match="worker process died"):
            color_bgpc(bg, algorithm="V-V-64D", threads=2, backend="process")
        assert _shm_segments() == before

    def test_malformed_fault_directive_rejected(self, bg, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESS_FAULT", "explode")
        with pytest.raises(ColoringError, match="fault directive"):
            color_bgpc(bg, algorithm="V-V-64D", threads=2, backend="process")

    def test_parse_fault_grammar(self):
        from repro.core.procworker import parse_fault

        assert parse_fault(None) is None
        assert parse_fault("") is None
        assert parse_fault("kill") == {"kind": "kill", "after_chunks": 1}
        assert parse_fault("kill:3") == {"kind": "kill", "after_chunks": 3}
        with pytest.raises(ValueError):
            parse_fault("kill:0")
        with pytest.raises(ValueError):
            parse_fault("explode")

    def test_invalid_worker_count_rejected(self, bg):
        with pytest.raises(ColoringError, match="threads >= 1"):
            color_bgpc(bg, algorithm="V-V-64D", threads=0, backend="process")

    def test_profile_table_uses_wall_path(self, bg):
        from repro.obs import profile_table

        result = color_bgpc(bg, algorithm="V-V-64D", threads=2, backend="process")
        table = profile_table(result)
        assert "backend process" in table
        assert "wall ms" in table
        assert "setup" in table


class TestTracedParity:
    def test_sim_span_stream_unchanged_by_dispatch(self, bg):
        # The run/iteration/phase span structure must be identical whether
        # the caller goes through color_bgpc or the backend directly.
        from repro.obs import RecordingTracer

        t1, t2 = RecordingTracer(), RecordingTracer()
        color_bgpc(bg, algorithm="N1-N2", threads=4, backend="sim", tracer=t1)
        color_bgpc(bg, algorithm="N1-N2", threads=4, backend="sim", tracer=t2)
        names1 = [e.name for e in t1.events]
        assert names1 == [e.name for e in t2.events]
        assert "run" in names1 and "iteration" in names1 and "phase" in names1

    def test_process_iteration_spans_report_wall(self, bg):
        from repro.obs import RecordingTracer

        tracer = RecordingTracer()
        color_bgpc(
            bg, algorithm="V-V-64D", threads=2, backend="process", tracer=tracer
        )
        iters = [e for e in tracer.events if e.name == "iteration"]
        assert iters
        assert all("wall_seconds" in e.attrs for e in iters)
        assert all("cycles" not in e.attrs for e in iters)
