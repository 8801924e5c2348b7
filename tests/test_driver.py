"""Tests for the speculative iteration driver and the named schedule table."""

import numpy as np
import pytest

from repro.core.bgpc.runner import BGPCAdapter, BGPC_ALGORITHMS
from repro.core.driver import (
    INF_ITERS,
    ScheduleSpec,
    run_sequential,
    run_speculative,
)
from repro.errors import ColoringError
from repro.machine.cost import CostModel
from repro.machine.engine import QUEUE_ATOMIC, QUEUE_PRIVATE


class TestAlgorithmSpec:
    """The named algorithm table's entries and ``ScheduleSpec`` validation."""

    def test_paper_specs_registered(self):
        assert set(BGPC_ALGORITHMS) == {
            "V-V", "V-V-64", "V-V-64D", "V-Ninf", "V-N1", "V-N2",
            "N1-N2", "N2-N2",
        }

    def test_vv_uses_chunk1_atomic(self):
        spec = BGPC_ALGORITHMS["V-V"]
        assert spec.chunk == 1
        assert spec.queue_mode == QUEUE_ATOMIC
        assert spec.net_color_iters == 0
        assert spec.net_removal_iters == 0

    def test_64d_uses_private_queue(self):
        spec = BGPC_ALGORITHMS["V-V-64D"]
        assert spec.chunk == 64
        assert spec.queue_mode == QUEUE_PRIVATE

    def test_ninf_horizon(self):
        assert BGPC_ALGORITHMS["V-Ninf"].net_removal_iters == INF_ITERS

    def test_n1n2_horizons(self):
        spec = BGPC_ALGORITHMS["N1-N2"]
        assert spec.net_color_iters == 1
        assert spec.net_removal_iters == 2

    def test_rejects_bad_chunk(self):
        with pytest.raises(ColoringError):
            ScheduleSpec(chunk=0)

    def test_rejects_bad_queue(self):
        with pytest.raises(ColoringError):
            ScheduleSpec(queue_mode="shared")

    def test_rejects_negative_horizon(self):
        with pytest.raises(ColoringError):
            ScheduleSpec(net_color_iters=-1)


class TestDriver:
    def test_custom_spec_runs(self, medium_bipartite):
        from repro.core.validate import validate_bgpc

        spec = ScheduleSpec(chunk=8, queue_mode=QUEUE_PRIVATE,
                            net_color_iters=1, net_removal_iters=1)
        adapter = BGPCAdapter(medium_bipartite, CostModel())
        result = run_speculative(adapter, spec, threads=8)
        validate_bgpc(medium_bipartite, result.colors)
        assert result.algorithm == "N1-N1-8D"  # the canonical name

    def test_sequential_runner(self, medium_bipartite):
        adapter = BGPCAdapter(medium_bipartite, CostModel())
        result = run_sequential(adapter)
        assert result.threads == 1
        assert result.num_iterations == 1
        assert result.iterations[0].remove_timing is None

    def test_thread_count_recorded(self, small_bipartite):
        adapter = BGPCAdapter(small_bipartite, CostModel())
        result = run_speculative(adapter, BGPC_ALGORITHMS["V-N1"], threads=5)
        assert result.threads == 5
        assert all(
            len(rec.color_timing.thread_cycles) == 5
            for rec in result.iterations
        )

    def test_phase_kinds_recorded(self, small_bipartite):
        adapter = BGPCAdapter(small_bipartite, CostModel())
        result = run_speculative(adapter, BGPC_ALGORITHMS["V-V-64D"], threads=4)
        for rec in result.iterations:
            assert rec.color_timing.kind == "color"
            assert rec.remove_timing.kind == "remove"

    def test_phase_cycles_accessor(self, small_bipartite):
        from repro.types import PhaseKind

        adapter = BGPCAdapter(small_bipartite, CostModel())
        result = run_speculative(adapter, BGPC_ALGORITHMS["V-N2"], threads=4)
        total = result.phase_cycles(PhaseKind.COLOR) + result.phase_cycles(
            PhaseKind.REMOVE
        )
        assert total == pytest.approx(result.cycles)


class TestSpecSoundness:
    def test_net_coloring_must_follow_net_removal(self):
        with pytest.raises(ColoringError, match="net coloring must follow"):
            ScheduleSpec(net_color_iters=2, net_removal_iters=0)

    def test_one_extra_coloring_iteration_allowed(self):
        # N1-N2-like shapes: one net coloring before the first removal.
        spec = ScheduleSpec(net_color_iters=1, net_removal_iters=0)
        assert spec.net_color_iters == 1

    def test_registered_specs_all_sound(self):
        for spec in BGPC_ALGORITHMS.values():
            assert spec.net_color_iters <= spec.net_removal_iters + 1
