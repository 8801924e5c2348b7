"""The adaptive conflict-rate controller: decisions, gating, determinism.

Covers the :mod:`repro.core.adaptive` contract end to end: name parsing
round-trips, the one-way heavy→tail switch as a pure function of the
observed conflict rates, reset/reuse across runs, byte-reproducibility
on the deterministic simulator, the tracer feedback counter, and the
driver/backend gating (only kernel-level backends run controllers).
"""

import numpy as np
import pytest

from repro.core.adaptive import (
    DEFAULT_THRESHOLD,
    AdaptiveSchedule,
    ScheduleController,
    is_adaptive_name,
    parse_adaptive,
)
from repro.core.bgpc import color_bgpc
from repro.core.d2gc import color_d2gc
from repro.core.plan import ScheduleSpec, resolve_schedule
from repro.core.validate import validate_bgpc, validate_d2gc
from repro.errors import ColoringError
from repro.graph import bipartite_from_dense
from repro.graph.ops import bipartite_to_graph
from repro.obs.tracer import RecordingTracer


@pytest.fixture
def bg(rng):
    return bipartite_from_dense((rng.random((25, 35)) < 0.18).astype(int))


@pytest.fixture
def sym_graph(rng):
    base = (rng.random((24, 24)) < 0.12).astype(int)
    sym = ((base + base.T + np.eye(24, dtype=int)) > 0).astype(int)
    return bipartite_to_graph(bipartite_from_dense(sym))


class TestNames:
    def test_default_name_round_trips(self):
        ctrl = parse_adaptive("adaptive")
        assert ctrl.name == "adaptive"
        assert str(ctrl) == "adaptive"
        assert ctrl.threshold == DEFAULT_THRESHOLD

    def test_threshold_name_round_trips(self):
        ctrl = parse_adaptive("adaptive:0.1")
        assert ctrl.name == "adaptive:0.1"
        assert parse_adaptive(ctrl.name).threshold == ctrl.threshold

    def test_case_insensitive(self):
        assert is_adaptive_name("Adaptive")
        assert is_adaptive_name("ADAPTIVE:0.2")
        assert not is_adaptive_name("N1-N2")
        assert not is_adaptive_name(42)

    def test_parse_returns_fresh_instances(self):
        assert parse_adaptive("adaptive") is not parse_adaptive("adaptive")

    @pytest.mark.parametrize("bad", ["adaptive:x", "adaptive:", "adaptive:0.1.2"])
    def test_malformed_threshold_rejected(self, bad):
        with pytest.raises(ColoringError, match="cannot parse adaptive"):
            parse_adaptive(bad)

    @pytest.mark.parametrize("bad", ["adaptive:1", "adaptive:1.5", "adaptive:-0.1"])
    def test_out_of_range_threshold_rejected(self, bad):
        with pytest.raises(ColoringError, match=r"must be in \[0, 1\)"):
            parse_adaptive(bad)

    def test_constructor_validates_threshold_type(self):
        with pytest.raises(ColoringError, match="must be a number"):
            AdaptiveSchedule("banana")

    def test_tail_must_be_all_vertex(self):
        with pytest.raises(ColoringError, match="must be all-vertex"):
            AdaptiveSchedule(tail="V-N1")

    def test_resolve_schedule_handles_adaptive(self):
        ctrl = resolve_schedule("adaptive:0.2")
        assert isinstance(ctrl, AdaptiveSchedule)
        assert resolve_schedule(ctrl) is ctrl

    def test_satisfies_controller_protocol(self):
        assert isinstance(AdaptiveSchedule(), ScheduleController)
        assert not isinstance(ScheduleSpec.parse("V-V"), ScheduleController)


class TestControllerDecisions:
    def test_switches_when_rate_drops(self):
        ctrl = AdaptiveSchedule(0.5)
        ctrl.reset()
        ctrl.observe(0, queue_size=100, conflicts=80)  # rate 0.8 >= 0.5
        assert ctrl.switched_at is None
        ctrl.observe(1, queue_size=80, conflicts=10)  # rate 0.125 < 0.5
        assert ctrl.switched_at == 2
        assert [d.next_regime for d in ctrl.decisions] == ["heavy", "tail"]

    def test_switch_is_one_way(self):
        ctrl = AdaptiveSchedule(0.5)
        ctrl.reset()
        ctrl.observe(0, queue_size=100, conflicts=0)
        assert ctrl.switched_at == 1
        ctrl.observe(1, queue_size=100, conflicts=100)  # rate back up
        assert ctrl.switched_at == 1  # never regrows

    def test_empty_queue_counts_as_zero_rate(self):
        ctrl = AdaptiveSchedule(0.5)
        ctrl.reset()
        ctrl.observe(0, queue_size=0, conflicts=0)
        assert ctrl.switched_at == 1
        assert ctrl.decisions[0].rate == 0.0

    def test_iteration_plan_follows_regimes(self):
        ctrl = AdaptiveSchedule(0.5, heavy="N1-Ninf", tail="V-V-64D")
        ctrl.reset()
        assert ctrl.iteration_plan(0).remove.kind == "net"
        ctrl.observe(0, queue_size=10, conflicts=9)  # stay heavy
        assert ctrl.iteration_plan(1).remove.kind == "net"
        ctrl.observe(1, queue_size=9, conflicts=0)  # collapse → tail
        assert ctrl.iteration_plan(2).remove.kind == "vertex"
        assert ctrl.iteration_plan(2).color.kind == "vertex"

    def test_reset_forgets_observations(self):
        ctrl = AdaptiveSchedule(0.5)
        ctrl.reset()
        ctrl.observe(0, queue_size=10, conflicts=0)
        assert ctrl.switched_at == 1 and ctrl.decisions
        ctrl.reset()
        assert ctrl.switched_at is None and not ctrl.decisions

    def test_decision_pins_work_counters(self):
        from repro.obs.work import WorkCounters

        work = WorkCounters()
        work.conflict_checks = 123
        ctrl = AdaptiveSchedule(0.5)
        ctrl.reset()
        ctrl.observe(0, queue_size=10, conflicts=9, work=work)
        assert ctrl.decisions[0].conflict_checks == 123

    def test_observe_emits_tracer_counter(self):
        tracer = RecordingTracer()
        ctrl = AdaptiveSchedule(0.5)
        ctrl.reset()
        ctrl.observe(0, queue_size=10, conflicts=9, tracer=tracer)
        events = tracer.counters("adaptive.conflict_rate")
        assert len(events) == 1
        assert events[0].attrs["regime"] == "heavy"
        assert events[0].value == pytest.approx(0.9)


class TestAdaptiveRuns:
    @pytest.mark.parametrize("backend", ["sim", "process"])
    def test_valid_on_kernel_backends(self, bg, backend):
        threads = 4 if backend != "process" else 1
        result = color_bgpc(bg, "adaptive", threads=threads, backend=backend)
        validate_bgpc(bg, result.colors)
        assert result.algorithm == "adaptive"

    def test_valid_on_d2gc(self, sym_graph):
        result = color_d2gc(sym_graph, "adaptive", threads=4, backend="sim")
        validate_d2gc(sym_graph, result.colors)

    @pytest.mark.parametrize("backend", ["numpy", "sharded", "compiled"])
    def test_rejected_on_whole_array_backends(self, bg, backend):
        with pytest.raises(ColoringError, match="cannot run adaptive"):
            color_bgpc(bg, "adaptive", threads=2, backend=backend)

    def test_sim_runs_are_byte_reproducible(self, bg):
        a = color_bgpc(bg, "adaptive", threads=8, backend="sim")
        b = color_bgpc(bg, "adaptive", threads=8, backend="sim")
        assert a.colors.tobytes() == b.colors.tobytes()
        assert a.work_metrics == b.work_metrics
        assert a.cycles == b.cycles

    def test_controller_instance_is_reusable(self, bg):
        # run_plan_loop resets the controller before iteration 0, so one
        # instance can drive several runs and reach identical decisions.
        ctrl = AdaptiveSchedule()
        a = color_bgpc(bg, ctrl, threads=8, backend="sim")
        first = list(ctrl.decisions)
        b = color_bgpc(bg, ctrl, threads=8, backend="sim")
        assert ctrl.decisions == first
        assert a.colors.tobytes() == b.colors.tobytes()

    def test_decisions_trace_matches_iterations(self, bg):
        ctrl = AdaptiveSchedule()
        result = color_bgpc(bg, ctrl, threads=8, backend="sim")
        assert len(ctrl.decisions) == len(result.iterations)
        for decision, record in zip(ctrl.decisions, result.iterations):
            assert decision.queue_size == record.queue_size
            assert decision.conflicts == record.conflicts

    def test_threshold_zero_switches_only_on_no_conflicts(self, bg):
        ctrl = AdaptiveSchedule(0.0)
        color_bgpc(bg, ctrl, threads=8, backend="sim")
        for decision in ctrl.decisions:
            if decision.next_regime == "tail" and ctrl.switched_at == decision.iteration + 1:
                assert decision.conflicts == 0

    def test_tracer_stream_contains_feedback(self, bg):
        tracer = RecordingTracer()
        color_bgpc(bg, "adaptive", threads=8, backend="sim", tracer=tracer)
        events = tracer.counters("adaptive.conflict_rate")
        assert events  # one per iteration
        assert all("regime" in e.attrs for e in events)
