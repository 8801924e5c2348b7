"""Unit tests for the happens-before timestamped memory."""

import numpy as np
import pytest

from repro.errors import MachineError
from repro.machine.memory import TimestampedMemory


def make(n=4, fill=-1):
    return TimestampedMemory(np.full(n, fill, dtype=np.int64))


class TestVisibility:
    def test_write_invisible_before_commit_time(self):
        mem = make()
        mem.write(0, 7, commit_time=10)
        mem.commit_until(9)
        assert mem.read(0) == -1

    def test_write_visible_at_commit_time(self):
        mem = make()
        mem.write(0, 7, commit_time=10)
        mem.commit_until(10)
        assert mem.read(0) == 7

    def test_overlapping_tasks_miss_each_other(self):
        """The race mechanism: two writes commit after both reads happened."""
        mem = make()
        # Task A [0, 10), task B [2, 12): both read at start, commit at end.
        read_a = mem.read(0)  # at time 0
        mem.write(0, 1, commit_time=10)
        mem.commit_until(2)
        read_b = mem.read(0)  # at time 2: A's write not yet committed
        mem.write(0, 1, commit_time=12)
        assert read_a == read_b == -1  # both picked blindly -> same color

    def test_last_writer_wins_by_commit_time(self):
        mem = make()
        mem.write(0, 1, commit_time=5)
        mem.write(0, 2, commit_time=3)
        mem.commit_until(5)
        assert mem.read(0) == 1

    def test_equal_commit_times_apply_in_submission_order(self):
        mem = make()
        mem.write(0, 1, commit_time=5)
        mem.write(0, 2, commit_time=5)
        mem.commit_until(5)
        assert mem.read(0) == 2

    def test_commit_returns_applied_count(self):
        mem = make()
        mem.write(0, 1, 3)
        mem.write(1, 2, 4)
        assert mem.commit_until(3) == 1
        assert mem.commit_until(10) == 1


class TestLifecycle:
    def test_flush_commits_everything(self):
        mem = make()
        mem.write(0, 1, 100)
        mem.write(1, 2, 200)
        assert mem.flush() == 2
        assert mem.read(0) == 1
        assert mem.read(1) == 2

    def test_reset_clock_requires_empty_pending(self):
        mem = make()
        mem.write(0, 1, 5)
        with pytest.raises(MachineError):
            mem.reset_clock()
        mem.flush()
        mem.reset_clock()
        mem.write(0, 2, 1)  # small times valid again

    def test_monotone_commit_enforced(self):
        mem = make()
        mem.commit_until(10)
        with pytest.raises(MachineError):
            mem.commit_until(5)

    def test_write_into_past_rejected(self):
        mem = make()
        mem.commit_until(10)
        with pytest.raises(MachineError):
            mem.write(0, 1, commit_time=5)

    def test_snapshot_excludes_pending(self):
        mem = make()
        mem.write(0, 9, 50)
        snap = mem.snapshot()
        assert snap[0] == -1
        snap[0] = 123  # snapshot is a copy
        assert mem.read(0) == -1

    def test_initial_values_copied(self):
        source = np.zeros(3, dtype=np.int64)
        mem = TimestampedMemory(source)
        source[0] = 99
        assert mem.read(0) == 0

    def test_len_and_pending_count(self):
        mem = make(6)
        assert len(mem) == 6
        mem.write(0, 1, 5)
        assert mem.pending_count == 1
        mem.flush()
        assert mem.pending_count == 0


class TestBatchedWrites:
    """A task's writes go in as one batch; counts stay per write."""

    def test_equal_commit_times_apply_batches_in_submission_order(self):
        mem = make()
        mem.write_many([(0, 1), (1, 1)], commit_time=5)
        mem.write_many([(1, 2), (2, 2)], commit_time=5)
        mem.commit_until(5)
        assert mem.snapshot().tolist() == [1, 2, 2, -1]

    def test_last_writer_wins_within_and_across_batches(self):
        mem = make()
        mem.write_many([(0, 1), (0, 3)], commit_time=4)
        mem.write_many([(1, 7)], commit_time=6)
        mem.write_many([(1, 5)], commit_time=2)
        mem.commit_until(6)
        assert mem.read(0) == 3
        assert mem.read(1) == 7

    def test_batch_invisible_until_its_commit_time(self):
        mem = make()
        mem.write_many([(0, 1), (1, 1)], commit_time=10)
        assert mem.commit_until(9) == 0
        assert mem.snapshot().tolist() == [-1, -1, -1, -1]
        assert mem.commit_until(10) == 2

    def test_counts_are_writes_not_batches(self):
        mem = make()
        mem.write_many([(0, 1), (1, 1), (2, 1)], commit_time=3)
        mem.write(3, 1, commit_time=8)
        assert mem.pending_count == 4
        assert mem.commit_until(3) == 3
        assert mem.pending_count == 1
        assert mem.flush() == 1
        assert mem.pending_count == 0

    def test_flush_drains_every_batch(self):
        mem = make()
        mem.write_many([(0, 4)], commit_time=100)
        mem.write_many([(1, 5), (2, 6)], commit_time=50)
        assert mem.flush() == 3
        assert mem.snapshot().tolist() == [4, 5, 6, -1]
        mem.reset_clock()  # nothing left pending

    def test_batch_into_past_rejected(self):
        mem = make()
        mem.commit_until(10)
        with pytest.raises(MachineError):
            mem.write_many([(0, 1)], commit_time=5)
