"""Happens-before shared memory for the simulated machine.

The coloring algorithms of the paper are *optimistic*: threads read the
shared color array without synchronization, so a thread may miss writes made
by concurrently running threads — that is exactly where coloring conflicts
come from.  :class:`TimestampedMemory` models this at task granularity:

* a write performed by a task becomes *committed* at the task's end cycle;
* a task reads the state as of its start cycle — committed writes only.

Two tasks whose execution intervals overlap therefore cannot see each
other's writes, just like two OpenMP threads racing on ``c[]``.  With one
thread, intervals never overlap and the simulation degenerates to exact
sequential semantics (zero conflicts), matching the paper's observation that
sequential runs need no conflict-removal phase.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import MachineError

__all__ = ["TimestampedMemory"]


class TimestampedMemory:
    """An integer array with commit-time-ordered buffered writes.

    Parameters
    ----------
    values:
        Initial committed state.  Copied; dtype is preserved.

    Notes
    -----
    ``commit_until`` must be called with non-decreasing times (the engine
    pops tasks in start-time order, which guarantees this).  Writes with
    equal commit times are applied in submission order, making "last writer
    wins" deterministic.  A task's writes are buffered as one batch, so the
    heap holds one entry per task rather than one per write.
    """

    __slots__ = ("values", "_pending", "_seq", "_clock", "_count")

    def __init__(self, values: np.ndarray):
        self.values = np.array(values, copy=True)
        # One heap entry per batch: (commit_time, seq, [(index, value), ...]).
        self._pending: list[tuple[int, int, list[tuple[int, int]]]] = []
        self._seq = 0
        self._clock = 0
        self._count = 0  # buffered writes, summed over all batches

    # -- engine interface -----------------------------------------------------

    def write(self, index: int, value: int, commit_time: int) -> None:
        """Buffer a write that becomes visible at ``commit_time``."""
        self.write_many([(index, value)], commit_time)

    def write_many(self, writes: list[tuple[int, int]], commit_time: int) -> None:
        """Buffer a batch of ``(index, value)`` writes, all visible at
        ``commit_time`` and applied in list order.

        The list is kept, not copied: the caller must not mutate it after.
        """
        if commit_time < self._clock:
            raise MachineError(
                f"write commits at {commit_time} but memory clock is {self._clock}"
            )
        heapq.heappush(self._pending, (commit_time, self._seq, writes))
        self._seq += 1
        self._count += len(writes)

    def commit_until(self, time: int) -> int:
        """Apply every buffered write with ``commit_time <= time``.

        Returns the number of writes applied.  ``time`` must be
        non-decreasing across calls.
        """
        if time < self._clock:
            raise MachineError(
                f"commit_until({time}) after clock already at {self._clock}"
            )
        self._clock = time
        return self._apply(time)

    def flush(self) -> int:
        """Commit everything outstanding (used at phase barriers)."""
        return self._apply(float("inf"))

    def _apply(self, time) -> int:
        """Apply the batches due by ``time``; returns the writes applied."""
        pending = self._pending
        values = self.values
        applied = 0
        while pending and pending[0][0] <= time:
            _, _, writes = heapq.heappop(pending)
            for index, value in writes:
                values[index] = value
            applied += len(writes)
        self._count -= applied
        return applied

    def reset_clock(self) -> None:
        """Restart time at zero for a new phase (pending must be empty)."""
        if self._pending:
            raise MachineError("cannot reset clock with uncommitted writes")
        self._clock = 0

    # -- reads -------------------------------------------------------------------

    def read(self, index: int) -> int:
        """Committed value at ``index`` (engine has already advanced time)."""
        return int(self.values[index])

    def snapshot(self) -> np.ndarray:
        """Copy of the committed state (pending writes excluded)."""
        return self.values.copy()

    @property
    def pending_count(self) -> int:
        """Buffered writes not yet committed (not batches)."""
        return self._count

    def __len__(self) -> int:
        return int(self.values.size)
