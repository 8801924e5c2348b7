"""Unit tests for the marker-based forbidden color set.

The scans search the marker array with numpy; the one-probe-per-color
loops they replace are kept below as oracles, and hypothesis checks that
colors and probe counts agree exactly — cycles are charged from them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.forbidden import ForbiddenSet


def oracle_first_fit(forb, start):
    col, steps = start, 1
    while forb.contains(col):
        col += 1
        steps += 1
    return col, steps


def oracle_reverse_first_fit(forb, start):
    col, steps = start, 1
    while col >= 0 and forb.contains(col):
        col -= 1
        steps += 1
    return col, steps


def oracle_reverse_take(forb, top, k):
    """Alg. 8 pass 2: descending cursor, one pick per work-list entry."""
    col, steps, picks = top, 0, []
    for _ in range(k):
        while forb.contains(col):
            col -= 1
            steps += 1
        if col < 0:
            return picks, None
        picks.append(col)
        col -= 1
        steps += 1
    return picks, steps


#: Mark sets over [0, 80) against an initial capacity as small as 1, so
#: both growth and colors beyond capacity are exercised.
marked_sets = st.tuples(
    st.integers(min_value=1, max_value=48),
    st.sets(st.integers(min_value=0, max_value=79), max_size=60),
)


def build(capacity, marks):
    forb = ForbiddenSet(capacity)
    forb.begin()
    forb.add(200)  # a stale stamp must not count as a mark
    forb.begin()
    forb.add_many(np.array(sorted(marks), dtype=np.int64))
    return forb


class TestMembership:
    def test_add_and_contains(self):
        forb = ForbiddenSet(8)
        forb.begin()
        forb.add(3)
        assert 3 in forb
        assert 4 not in forb

    def test_begin_resets_without_clearing(self):
        forb = ForbiddenSet(8)
        forb.begin()
        forb.add(3)
        forb.begin()
        assert 3 not in forb

    def test_add_many(self):
        forb = ForbiddenSet(8)
        forb.begin()
        forb.add_many(np.array([1, 5, 2]))
        assert all(c in forb for c in (1, 2, 5))
        assert 0 not in forb

    def test_add_many_empty(self):
        forb = ForbiddenSet(4)
        forb.begin()
        forb.add_many(np.array([], dtype=np.int64))
        assert 0 not in forb

    def test_negative_or_oob_never_member(self):
        forb = ForbiddenSet(4)
        forb.begin()
        assert -1 not in forb
        assert 1000 not in forb

    def test_growth(self):
        forb = ForbiddenSet(2)
        forb.begin()
        forb.add(100)
        assert 100 in forb
        assert forb.capacity >= 101

    def test_growth_preserves_members(self):
        forb = ForbiddenSet(2)
        forb.begin()
        forb.add(1)
        forb.add_many(np.array([50]))
        assert 1 in forb
        assert 50 in forb

    def test_min_capacity_one(self):
        assert ForbiddenSet(0).capacity == 1


class TestScans:
    def test_first_fit_empty(self):
        forb = ForbiddenSet(8)
        forb.begin()
        assert forb.first_fit() == (0, 1)

    def test_first_fit_skips_members(self):
        forb = ForbiddenSet(8)
        forb.begin()
        forb.add_many(np.array([0, 1, 3]))
        color, steps = forb.first_fit()
        assert color == 2
        assert steps == 3

    def test_first_fit_with_start(self):
        forb = ForbiddenSet(8)
        forb.begin()
        forb.add(5)
        assert forb.first_fit(5)[0] == 6

    def test_reverse_first_fit(self):
        forb = ForbiddenSet(8)
        forb.begin()
        forb.add_many(np.array([4, 3]))
        color, _ = forb.reverse_first_fit(4)
        assert color == 2

    def test_reverse_first_fit_exhausted(self):
        forb = ForbiddenSet(8)
        forb.begin()
        forb.add_many(np.array([0, 1, 2]))
        color, _ = forb.reverse_first_fit(2)
        assert color == -1

    def test_probe_counter(self):
        forb = ForbiddenSet(8)
        forb.begin()
        before = forb.probes
        forb.first_fit()
        assert forb.probes == before + 1


class TestScansMatchOracle:
    @settings(max_examples=300, deadline=None)
    @given(marked_sets, st.integers(min_value=0, max_value=100))
    def test_first_fit(self, cm, start):
        forb = build(*cm)
        assert forb.first_fit(start) == oracle_first_fit(build(*cm), start)

    @settings(max_examples=300, deadline=None)
    @given(marked_sets, st.integers(min_value=-1, max_value=100))
    def test_reverse_first_fit(self, cm, start):
        forb = build(*cm)
        assert forb.reverse_first_fit(start) == oracle_reverse_first_fit(
            build(*cm), start
        )

    @settings(max_examples=300, deadline=None)
    @given(marked_sets, st.integers(min_value=0, max_value=100),
           st.integers(min_value=0, max_value=40))
    def test_reverse_take(self, cm, top, k):
        picks, steps = build(*cm).reverse_take(top, k)
        want, want_steps = oracle_reverse_take(build(*cm), top, k)
        assert picks == want
        if want_steps is not None:  # the oracle ran out: only picks matter
            assert steps == want_steps

    def test_first_fit_long_scan_crosses_windows(self):
        forb = ForbiddenSet(4)
        forb.begin()
        forb.add_many(np.arange(1000))
        assert forb.first_fit(3) == (1000, 998)
        assert forb.capacity >= 1000

    def test_reverse_take_zero_is_free(self):
        forb = ForbiddenSet(8)
        forb.begin()
        assert forb.reverse_take(5, 0) == ([], 0)

    @pytest.mark.parametrize("top", [3, 20])
    def test_free_upto(self, top):
        forb = ForbiddenSet(8)
        forb.begin()
        forb.add_many(np.array([0, 2, 3]))
        assert forb.free_upto(top).tolist() == [
            c for c in range(top + 1) if c not in (0, 2, 3)
        ]
