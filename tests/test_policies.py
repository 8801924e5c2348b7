"""Unit tests for the color-selection policies (FF, B1, B2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.experiments.ablations import _B2WithDivisor
from repro.core.forbidden import ForbiddenSet
from repro.core.policies import B1Policy, B2Policy, FirstFit, POLICIES, get_policy


def forb_with(*colors):
    forb = ForbiddenSet(32)
    forb.begin()
    for c in colors:
        forb.add(c)
    return forb


class TestFirstFit:
    def test_picks_smallest_free(self):
        policy = FirstFit()
        color, _ = policy.choose(forb_with(0, 1, 3), key=7, state={})
        assert color == 2

    def test_state_untouched(self):
        state = {}
        FirstFit().choose(forb_with(), key=0, state=state)
        assert state == {}


class TestB1:
    def test_odd_key_first_fit(self):
        policy = B1Policy()
        state = {"colmax": 10}
        color, _ = policy.choose(forb_with(0), key=3, state=state)
        assert color == 1

    def test_even_key_reverse_from_colmax(self):
        policy = B1Policy()
        state = {"colmax": 5}
        color, _ = policy.choose(forb_with(5, 4), key=2, state=state)
        assert color == 3

    def test_even_key_fallback_when_interval_full(self):
        """Alg. 11 line 8: if the descending scan exhausts [0, colmax],
        restart ascending from colmax + 1."""
        policy = B1Policy()
        state = {"colmax": 2}
        color, _ = policy.choose(forb_with(0, 1, 2, 3), key=0, state=state)
        assert color == 4
        assert state["colmax"] == 4

    def test_colmax_tracks_maximum(self):
        policy = B1Policy()
        state = {}
        policy.choose(forb_with(0), key=1, state=state)  # odd -> FF -> 1
        assert state.get("colmax", 0) == 1

    def test_initial_state_empty(self):
        policy = B1Policy()
        color, _ = policy.choose(forb_with(), key=0, state={})
        assert color == 0


class TestB2:
    def test_starts_at_colnext(self):
        policy = B2Policy()
        state = {"colmax": 10, "colnext": 4}
        color, _ = policy.choose(forb_with(4, 5), key=0, state=state)
        assert color == 6

    def test_wraps_to_zero_when_exceeding_colmax(self):
        policy = B2Policy()
        state = {"colmax": 3, "colnext": 3}
        color, _ = policy.choose(forb_with(3), key=0, state=state)
        assert color == 0

    def test_creates_new_color_when_interval_full(self):
        policy = B2Policy()
        state = {"colmax": 1, "colnext": 0}
        color, _ = policy.choose(forb_with(0, 1), key=0, state=state)
        assert color == 2
        assert state["colmax"] == 2

    def test_colnext_floor_is_third_of_colmax(self):
        """The prose semantics: colnext never falls below colmax//3 + 1."""
        policy = B2Policy()
        state = {"colmax": 9, "colnext": 0}
        policy.choose(forb_with(), key=0, state=state)  # picks 0
        assert state["colnext"] == 9 // 3 + 1

    def test_colnext_advances_past_pick(self):
        policy = B2Policy()
        state = {"colmax": 9, "colnext": 7}
        policy.choose(forb_with(), key=0, state=state)  # picks 7
        assert state["colnext"] == 8


class TestRegistry:
    def test_names(self):
        assert set(POLICIES) == {"U", "B1", "B2"}

    def test_get_policy(self):
        assert isinstance(get_policy("U"), FirstFit)
        assert isinstance(get_policy("B1"), B1Policy)
        assert isinstance(get_policy("B2"), B2Policy)

    def test_unknown_policy(self):
        with pytest.raises(KeyError):
            get_policy("B3")


class TestPoliciesProduceValidColors:
    """Whatever the policy, the returned color is never forbidden."""

    @pytest.mark.parametrize("name", ["U", "B1", "B2"])
    def test_never_forbidden(self, name, rng):
        policy = get_policy(name)
        state = {}
        forb = ForbiddenSet(64)
        for key in range(200):
            forb.begin()
            members = rng.choice(32, size=rng.integers(0, 20), replace=False)
            forb.add_many(members)
            color, _ = policy.choose(forb, int(key), state)
            assert color >= 0
            assert color not in forb


# -- batch picks: choose_many against per-key oracles ------------------------


def oracle_b1_choose(forb, key, state):
    """Alg. 11 with the one-probe-per-color scans."""
    colmax = state.get("colmax", 0)
    if key % 2 == 0:
        col, steps = colmax, 1
        while col >= 0 and forb.contains(col):
            col -= 1
            steps += 1
        if col == -1:
            col, more = colmax + 1, 1
            while forb.contains(col):
                col += 1
                more += 1
            steps += more
    else:
        col, steps = 0, 1
        while forb.contains(col):
            col += 1
            steps += 1
    if col > colmax:
        state["colmax"] = col
    return col, steps


def oracle_choose_many(choose, forb, keys, state):
    cols, steps = [], 0
    for key in keys:
        col, more = choose(forb, key, state)
        forb.add(col)
        cols.append(col)
        steps += more
    return cols, steps


batches = st.tuples(
    st.integers(min_value=1, max_value=40),  # initial capacity
    st.sets(st.integers(min_value=0, max_value=60), max_size=50),  # marks
    st.none() | st.integers(min_value=0, max_value=70),  # thread colmax
    st.lists(st.integers(min_value=0, max_value=10_000), max_size=40),  # keys
)


def batch_case(capacity, marks, colmax):
    forb = ForbiddenSet(capacity)
    forb.begin()
    forb.add_many(np.array(sorted(marks), dtype=np.int64))
    state = {} if colmax is None else {"colmax": colmax}
    return forb, state


class TestChooseMany:
    @settings(max_examples=400, deadline=None)
    @given(batches)
    def test_b1_matches_per_key_oracle(self, case):
        capacity, marks, colmax, keys = case
        forb, state = batch_case(capacity, marks, colmax)
        got = B1Policy().choose_many(forb, keys, state)
        oforb, ostate = batch_case(capacity, marks, colmax)
        want = oracle_choose_many(oracle_b1_choose, oforb, keys, ostate)
        assert got == want
        assert state.get("colmax", 0) == ostate.get("colmax", 0)
        assert all(c in forb for c in got[0])

    @settings(max_examples=200, deadline=None)
    @given(batches, st.sampled_from([2, 3, 5, 10]))
    def test_b2_subclass_keeps_its_own_choose(self, case, divisor):
        """The batch form must route through the subclass's ``choose``."""
        capacity, marks, colmax, keys = case
        policy = _B2WithDivisor(divisor)
        forb, state = batch_case(capacity, marks, colmax)
        got = policy.choose_many(forb, keys, state)
        oforb, ostate = batch_case(capacity, marks, colmax)
        want = oracle_choose_many(policy.choose, oforb, keys, ostate)
        assert got == want
        assert state == ostate

    def test_b1_full_interval_falls_back_above_colmax(self):
        forb = forb_with(0, 1, 2, 4)
        state = {"colmax": 2}
        # odd: 3 (4 probes, colmax -> 3); even: 5 after a failed descent
        # over [0, 3] (5 probes) and a first-fit from 4 (2 probes).
        assert B1Policy().choose_many(forb, [1, 0], state) == ([3, 5], 11)
        assert state["colmax"] == 5
