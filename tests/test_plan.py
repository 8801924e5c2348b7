"""Schedule-spec grammar: parsing, round-trips, the named algorithm tables.

The acceptance bar of the plan/engine refactor: ``ScheduleSpec.parse``
round-trips all 8 paper schedules (plus ``-B1``/``-B2`` variants), alias
spellings normalize to one canonical name, and the *derived*
``BGPC_ALGORITHMS``/``D2GC_ALGORITHMS`` tables are golden-pinned equal to
the previously hand-written specs.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.plan import (
    BALANCING_POLICIES,
    INF_ITERS,
    PAPER_SCHEDULES,
    ScheduleSpec,
    normalize_schedule_name,
    resolve_schedule,
    validate_horizons,
)
from repro.errors import ColoringError
from repro.machine.engine import QUEUE_ATOMIC, QUEUE_PRIVATE


class TestRoundTrip:
    @pytest.mark.parametrize("name", PAPER_SCHEDULES)
    def test_paper_names_round_trip(self, name):
        assert str(ScheduleSpec.parse(name)) == name

    @pytest.mark.parametrize("name", PAPER_SCHEDULES)
    @pytest.mark.parametrize("suffix", ["B1", "B2"])
    def test_balanced_variants_round_trip(self, name, suffix):
        balanced = f"{name}-{suffix}"
        spec = ScheduleSpec.parse(balanced)
        assert spec.balancing == suffix
        assert str(spec) == balanced

    def test_parse_is_idempotent_on_canonical_names(self):
        for name in PAPER_SCHEDULES:
            spec = ScheduleSpec.parse(name)
            again = ScheduleSpec.parse(str(spec))
            assert again == spec

    @given(
        net_color=st.integers(min_value=0, max_value=5),
        extra_removal=st.integers(min_value=0, max_value=5),
        chunk=st.integers(min_value=1, max_value=512),
        private=st.booleans(),
        balancing=st.sampled_from(BALANCING_POLICIES),
    )
    def test_any_valid_spec_round_trips(
        self, net_color, extra_removal, chunk, private, balancing
    ):
        # Horizons built to satisfy the invariant by construction.
        net_removal = max(net_color - 1, 0) + extra_removal
        spec = ScheduleSpec(
            net_color_iters=net_color,
            net_removal_iters=net_removal,
            chunk=chunk,
            queue_mode=QUEUE_PRIVATE if private else QUEUE_ATOMIC,
            balancing=balancing,
        )
        assert ScheduleSpec.parse(str(spec)) == spec


class TestSwitchSegments:
    """Per-iteration balancing switches: the ``POLICY@ITER`` grammar."""

    def test_issue_example_round_trips(self):
        spec = ScheduleSpec.parse("V-V-64D-B1@2")
        assert spec.balancing == "U"
        assert spec.switches == ((2, "B1"),)
        assert str(spec) == "V-V-64D-B1@2"

    def test_multiple_segments_round_trip(self):
        spec = ScheduleSpec.parse("N1-N2-B1-B2@2-U@5")
        assert spec.balancing == "B1"
        assert spec.switches == ((2, "B2"), (5, "U"))
        assert str(spec) == "N1-N2-B1-B2@2-U@5"

    def test_active_balancing_resolution(self):
        spec = ScheduleSpec.parse("V-V-B1-B2@2-U@4")
        assert [spec.active_balancing(i) for i in range(6)] == [
            "B1", "B1", "B2", "B2", "U", "U",
        ]

    def test_iteration_plan_stamps_active_policy(self):
        spec = ScheduleSpec.parse("V-V-64D-B1@2")
        assert spec.iteration_plan(0).color.balancing == "U"
        assert spec.iteration_plan(1).color.balancing == "U"
        assert spec.iteration_plan(2).color.balancing == "B1"
        assert spec.iteration_plan(7).color.balancing == "B1"

    @pytest.mark.parametrize(
        "bad",
        [
            "V-V-B1@",        # missing iteration
            "V-V-B1@0",       # iteration 0 is the base policy
            "V-V-B1@-1",      # negative
            "V-V-B1@x",       # non-integer
            "V-V-B3@2",       # unknown policy
            "V-V-B1@2.5",     # fractional
        ],
    )
    def test_malformed_segments_rejected(self, bad):
        with pytest.raises(ColoringError, match="cannot parse schedule"):
            ScheduleSpec.parse(bad)

    def test_duplicate_switch_iteration_rejected(self):
        with pytest.raises(ColoringError, match="duplicate switch iteration"):
            ScheduleSpec.parse("V-V-B1@2-B2@2")

    def test_decreasing_switch_iterations_rejected(self):
        with pytest.raises(ColoringError, match="strictly increasing"):
            ScheduleSpec.parse("V-V-B2@3-B1@2")

    def test_direct_construction_validated(self):
        with pytest.raises(ColoringError, match="switch iteration must be >= 1"):
            ScheduleSpec(switches=((0, "B1"),))
        with pytest.raises(ColoringError, match="bad switch policy"):
            ScheduleSpec(switches=((2, "B9"),))
        with pytest.raises(ColoringError, match="strictly increasing"):
            ScheduleSpec(switches=((3, "B1"), (2, "B2")))

    @given(
        net_color=st.integers(min_value=0, max_value=3),
        extra_removal=st.integers(min_value=0, max_value=3),
        balancing=st.sampled_from(BALANCING_POLICIES),
        starts=st.lists(
            st.integers(min_value=1, max_value=20), unique=True, max_size=4
        ),
        policies=st.lists(st.sampled_from(BALANCING_POLICIES), min_size=4, max_size=4),
    )
    def test_switched_specs_round_trip(
        self, net_color, extra_removal, balancing, starts, policies
    ):
        switches = tuple(zip(sorted(starts), policies))
        spec = ScheduleSpec(
            net_color_iters=net_color,
            net_removal_iters=max(net_color - 1, 0) + extra_removal,
            balancing=balancing,
            switches=switches,
        )
        assert ScheduleSpec.parse(str(spec)) == spec


class TestAliases:
    @pytest.mark.parametrize(
        "alias, canonical",
        [
            ("V-N∞", "V-Ninf"),
            ("v-ninf", "V-Ninf"),
            ("v-v", "V-V"),
            ("n1-n2", "N1-N2"),
            ("N1-N2-b1", "N1-N2-B1"),
            ("v-v-64d", "V-V-64D"),
            ("V-V-D", "V-V-64D"),
            ("  V-N2  ", "V-N2"),
            ("Ninf-Ninf", "Ninf-Ninf"),
        ],
    )
    def test_normalize(self, alias, canonical):
        assert normalize_schedule_name(alias) == canonical

    def test_infinity_token(self):
        spec = ScheduleSpec.parse("V-N∞")
        assert spec.net_removal_iters == INF_ITERS

    def test_explicit_chunk_without_d_is_atomic(self):
        spec = ScheduleSpec.parse("V-V-64")
        assert spec.chunk == 64 and spec.queue_mode == QUEUE_ATOMIC

    def test_bare_d_implies_chunk_64(self):
        spec = ScheduleSpec.parse("V-N1-D")
        assert spec.chunk == 64 and spec.queue_mode == QUEUE_PRIVATE


class TestParseErrors:
    @pytest.mark.parametrize(
        "bad", ["", "V", "bogus", "X-Y", "V-V-banana", "N0-N1", "V-V-64-32"]
    )
    def test_rejects_with_grammar_hint(self, bad):
        with pytest.raises(ColoringError, match="cannot parse schedule"):
            ScheduleSpec.parse(bad)

    def test_duplicate_balancing_rejected(self):
        with pytest.raises(ColoringError, match="duplicate balancing"):
            ScheduleSpec.parse("V-V-B1-B2")

    def test_horizon_invariant_enforced(self):
        # Net coloring must follow a net-based removal (invariant lives in
        # validate_horizons).
        with pytest.raises(ColoringError, match="net coloring must follow"):
            ScheduleSpec.parse("N2-V")
        with pytest.raises(ColoringError, match="net coloring must follow"):
            validate_horizons("x", 2, 0)
        validate_horizons("x", 1, 0)  # exceeding by exactly 1 is allowed

    def test_resolver_lists_known_names(self):
        with pytest.raises(ColoringError, match="unknown BGPC algorithm"):
            resolve_schedule("nope", problem="BGPC")


class TestDerivedTables:
    #: The paper's table, pinned field by field.
    GOLDEN = {
        "V-V": ScheduleSpec(chunk=1, queue_mode=QUEUE_ATOMIC),
        "V-V-64": ScheduleSpec(chunk=64, queue_mode=QUEUE_ATOMIC),
        "V-V-64D": ScheduleSpec(chunk=64, queue_mode=QUEUE_PRIVATE),
        "V-Ninf": ScheduleSpec(
            chunk=64, queue_mode=QUEUE_PRIVATE, net_removal_iters=INF_ITERS
        ),
        "V-N1": ScheduleSpec(
            chunk=64, queue_mode=QUEUE_PRIVATE, net_removal_iters=1
        ),
        "V-N2": ScheduleSpec(
            chunk=64, queue_mode=QUEUE_PRIVATE, net_removal_iters=2
        ),
        "N1-N2": ScheduleSpec(
            chunk=64, queue_mode=QUEUE_PRIVATE,
            net_color_iters=1, net_removal_iters=2,
        ),
        "N2-N2": ScheduleSpec(
            chunk=64, queue_mode=QUEUE_PRIVATE,
            net_color_iters=2, net_removal_iters=2,
        ),
    }

    def test_bgpc_table_matches_golden(self):
        from repro.core.bgpc import BGPC_ALGORITHMS

        assert BGPC_ALGORITHMS == self.GOLDEN

    def test_d2gc_table_matches_golden(self):
        from repro.core.d2gc import D2GC_ALGORITHMS

        assert D2GC_ALGORITHMS == self.GOLDEN


class TestIterationPlan:
    def test_n1_n2_phase_kinds(self):
        spec = ScheduleSpec.parse("N1-N2")
        kinds = [
            (p.color.kind, p.remove.kind)
            for p in (spec.iteration_plan(i) for i in range(4))
        ]
        assert kinds == [
            ("net", "net"),
            ("vertex", "net"),
            ("vertex", "vertex"),
            ("vertex", "vertex"),
        ]

    def test_queue_mode_only_on_vertex_removal(self):
        spec = ScheduleSpec.parse("V-N1")
        assert spec.iteration_plan(0).remove.queue_mode == "none"
        assert spec.iteration_plan(1).remove.queue_mode == spec.queue_mode
        assert spec.iteration_plan(1).color.queue_mode == "none"

    def test_balancing_carried_into_plans(self):
        plan = ScheduleSpec.parse("V-V-B2").iteration_plan(0)
        assert plan.color.balancing == "B2"
