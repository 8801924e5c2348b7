"""Marker-based forbidden-color set.

The paper's implementation notes (end of Section III): the forbidden-color
structure is allocated once per thread and *never reset* — each use stamps
entries with a fresh marker value, so membership is "``mark[color] ==
current_stamp``".  This class reproduces that trick with a numpy marker
array, giving O(1) insert/test and O(k) bulk insert with zero clearing cost.

The scans return the probe count of the one-color-at-a-time loop they
replace (cycles are charged from it) but search the marker array with
numpy, so a long scan costs one vectorized pass rather than one Python
call per probed color.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ForbiddenSet"]

#: Colors ``first_fit`` tests one by one before it switches to windowed
#: numpy searches: most scans end within a few probes.
_DIRECT_PROBES = 8


class ForbiddenSet:
    """A reusable forbidden-color set over the color ids ``[0, capacity)``.

    Parameters
    ----------
    capacity:
        Initial number of representable colors; the set grows automatically
        if a larger color is inserted (growth doubles, amortized O(1)).

    Usage
    -----
    >>> F = ForbiddenSet(8)
    >>> F.begin()            # start a fresh (conceptually empty) set
    >>> F.add(3); 3 in F
    True
    >>> F.begin(); 3 in F    # new stamp: set is empty again, no clearing
    False
    """

    __slots__ = ("_mark", "_stamp", "probes")

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            capacity = 1
        self._mark = np.zeros(capacity, dtype=np.int64)
        # Start at 1 so the zero-initialized marker array means "empty"
        # even before the first begin().
        self._stamp = 1
        #: Probe steps since construction (cost accounting): one per
        #: ``contains`` call plus the steps every scan reports.
        self.probes = 0

    @property
    def capacity(self) -> int:
        return int(self._mark.size)

    def begin(self) -> None:
        """Start a new (empty) set by bumping the stamp — O(1), no memset."""
        self._stamp += 1

    def _ensure(self, color: int) -> None:
        if color >= self._mark.size:
            new_size = max(color + 1, self._mark.size * 2)
            grown = np.zeros(new_size, dtype=np.int64)
            grown[: self._mark.size] = self._mark
            self._mark = grown

    def add(self, color: int) -> None:
        """Insert one non-negative color."""
        self._ensure(color)
        self._mark[color] = self._stamp

    def add_many(self, colors) -> None:
        """Insert a batch of non-negative colors (vectorized)."""
        try:
            self._mark[colors] = self._stamp
        except IndexError:  # a color beyond capacity: grow, then retry
            self._ensure(int(np.max(colors)))
            self._mark[colors] = self._stamp

    def contains(self, color: int) -> bool:
        """Membership test; colors beyond capacity are never members."""
        self.probes += 1
        if color >= self._mark.size or color < 0:
            return False
        return self._mark[color] == self._stamp

    __contains__ = contains

    def free_upto(self, top: int) -> np.ndarray:
        """Ascending non-forbidden colors in ``[0, top]`` (one numpy pass)."""
        self._ensure(top)
        return (self._mark[: top + 1] != self._stamp).nonzero()[0]

    # -- scan helpers (the first-fit inner loops of Algs. 2, 6, 8) ---------

    def first_fit(self, start: int = 0) -> tuple[int, int]:
        """Smallest non-forbidden color ``>= start`` (``start >= 0``).

        Returns ``(color, steps)`` where ``steps`` counts the probes taken,
        for cycle accounting.
        """
        mark, stamp = self._mark, self._stamp
        size = mark.size
        col = start
        stop = min(start + _DIRECT_PROBES, size)
        while col < stop and mark[col] == stamp:
            col += 1
        if col == stop:
            width = 4 * _DIRECT_PROBES
            while col < size:
                hi = min(col + width, size)
                free = (mark[col:hi] != stamp).nonzero()[0]
                if free.size:
                    col += int(free[0])
                    break
                col = hi
                width *= 4
        steps = col - start + 1
        self.probes += steps
        return col, steps

    def reverse_first_fit(self, start: int) -> tuple[int, int]:
        """Largest non-forbidden color ``<= start`` (may return -1).

        Returns ``(color, steps)``; a -1 color means the whole range
        ``[0, start]`` was forbidden and the caller must fall back (the
        safety check of Alg. 11 line 8).
        """
        col = start
        if 0 <= start < self._mark.size:
            free = (self._mark[: start + 1] != self._stamp).nonzero()[0]
            col = int(free[-1]) if free.size else -1
        steps = start - col + 1
        self.probes += steps
        return col, steps

    def reverse_take(self, top: int, k: int) -> tuple[list[int], int]:
        """The ``k`` largest non-forbidden colors ``<= top``, descending.

        Equivalent to ``k`` successive reverse first-fit picks, each
        resuming one below the previous pick (Alg. 8 pass 2).  Returns
        ``(colors, steps)`` with the probe count of that cursor loop,
        ``top - colors[-1] + 1``.  Fewer than ``k`` colors come back when
        ``[0, top]`` has fewer free ones; the caller decides how to fail.
        """
        if k == 0:
            return [], 0
        picks = self.free_upto(top)[::-1][:k].tolist()
        steps = top - picks[-1] + 1 if picks else top + 1
        self.probes += steps
        return picks, steps
