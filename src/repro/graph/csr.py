"""Compressed-sparse-row adjacency container.

The CSR layout is the cache-friendly representation the paper's C++ codebase
(ColPack) uses: a ``ptr`` array of ``n + 1`` row offsets and an ``idx`` array
holding the concatenated adjacency lists.  All coloring kernels in
:mod:`repro.core` traverse graphs exclusively through this structure, so it
is deliberately small, immutable after construction and numpy-backed.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import GraphError

__all__ = ["CSR", "ragged_take"]


def ragged_take(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """Concatenate ``values[starts[i] : starts[i] + lengths[i]]`` slices.

    Returns the gathered values and, aligned with them, the index ``i`` of
    the slice each element came from.  The workhorse for expanding per-
    vertex group lists and per-group member prefixes without Python loops.
    """
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, values.dtype), np.empty(0, np.int64)
    owner = np.repeat(np.arange(starts.size, dtype=np.int64), lengths)
    offs = np.concatenate(([0], np.cumsum(lengths)))[:-1]
    pos = np.arange(total, dtype=np.int64) - offs[owner] + starts[owner]
    return values[pos], owner


class CSR:
    """An immutable CSR adjacency structure.

    Parameters
    ----------
    ptr:
        ``int64`` array of length ``n + 1``; ``ptr[i]:ptr[i+1]`` delimits the
        adjacency list of row ``i``.  Must be non-decreasing with
        ``ptr[0] == 0``.
    idx:
        ``int64`` array of column indices, length ``ptr[-1]``.
    ncols:
        Number of columns the indices may refer to.  Validated against
        ``idx`` on construction.

    Notes
    -----
    The arrays are stored as C-contiguous ``int64`` and marked read-only so a
    CSR can be shared freely between algorithm variants without defensive
    copies (see the "views, not copies" guidance for numerical Python).
    """

    __slots__ = ("ptr", "idx", "nrows", "ncols")

    def __init__(self, ptr: np.ndarray, idx: np.ndarray, ncols: int):
        ptr = np.ascontiguousarray(ptr, dtype=np.int64)
        idx = np.ascontiguousarray(idx, dtype=np.int64)
        if ptr.ndim != 1 or idx.ndim != 1:
            raise GraphError("ptr and idx must be 1-D arrays")
        if ptr.size == 0:
            raise GraphError("ptr must have length >= 1")
        if ptr[0] != 0:
            raise GraphError(f"ptr[0] must be 0, got {ptr[0]}")
        if np.any(np.diff(ptr) < 0):
            raise GraphError("ptr must be non-decreasing")
        if ptr[-1] != idx.size:
            raise GraphError(
                f"ptr[-1] ({ptr[-1]}) must equal len(idx) ({idx.size})"
            )
        if ncols < 0:
            raise GraphError("ncols must be non-negative")
        if idx.size and (idx.min() < 0 or idx.max() >= ncols):
            raise GraphError(
                f"column indices out of range [0, {ncols}): "
                f"min={idx.min()}, max={idx.max()}"
            )
        ptr.flags.writeable = False
        idx.flags.writeable = False
        self.ptr = ptr
        self.idx = idx
        self.nrows = int(ptr.size - 1)
        self.ncols = int(ncols)

    # -- basic accessors -------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored entries (sum of adjacency-list lengths)."""
        return int(self.ptr[-1])

    def row(self, i: int) -> np.ndarray:
        """Adjacency list of row ``i`` as a (read-only) array view."""
        return self.idx[self.ptr[i] : self.ptr[i + 1]]

    def degree(self, i: int) -> int:
        """Length of row ``i``'s adjacency list."""
        return int(self.ptr[i + 1] - self.ptr[i])

    def degrees(self) -> np.ndarray:
        """All row degrees as a fresh ``int64`` array."""
        return np.diff(self.ptr)

    def max_degree(self) -> int:
        """Largest row degree; 0 for an empty structure."""
        if self.nrows == 0:
            return 0
        return int(self.degrees().max(initial=0))

    def take_rows(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency lists of ``rows`` concatenated in the given order.

        Returns the entries and, aligned with them, the position in
        ``rows`` each entry came from (see :func:`ragged_take`).
        """
        starts = self.ptr[rows]
        return ragged_take(self.idx, starts, self.ptr[rows + 1] - starts)

    def iter_rows(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(row_id, adjacency_view)`` pairs in row order."""
        ptr, idx = self.ptr, self.idx
        for i in range(self.nrows):
            yield i, idx[ptr[i] : ptr[i + 1]]

    # -- structural predicates -------------------------------------------

    def _row_steps(self) -> np.ndarray:
        """``idx[k + 1] - idx[k]`` for every pair of neighbours in one row."""
        steps = np.diff(self.idx)
        starts = self.ptr[1:-1]
        starts = starts[(starts > 0) & (starts < self.nnz)]
        inner = np.ones(steps.size, dtype=bool)
        inner[starts - 1] = False
        return steps[inner]

    def has_sorted_rows(self) -> bool:
        """True when every adjacency list is strictly increasing."""
        return not np.any(self._row_steps() <= 0)

    def has_duplicates(self) -> bool:
        """True when some adjacency list contains a repeated column."""
        return bool(np.any(self.sorted()._row_steps() == 0))

    # -- transforms -------------------------------------------------------

    def sorted(self) -> "CSR":
        """An equivalent CSR with each adjacency list sorted ascending.

        Returns ``self`` when the rows are already sorted (the structure is
        immutable); otherwise one ``lexsort`` over (row, column) sorts all
        rows at once.
        """
        if not np.any(self._row_steps() < 0):
            return self
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64), self.degrees())
        return CSR(self.ptr, self.idx[np.lexsort((self.idx, rows))], self.ncols)

    def transpose(self) -> "CSR":
        """Return the transposed structure (column-wise adjacency).

        Runs the classical counting-sort transpose in O(nrows + ncols + nnz)
        using vectorized numpy primitives; the resulting rows are sorted by
        construction when this CSR's rows are traversed in order.
        """
        counts = np.bincount(self.idx, minlength=self.ncols)
        tptr = np.zeros(self.ncols + 1, dtype=np.int64)
        np.cumsum(counts, out=tptr[1:])
        tidx = np.empty(self.nnz, dtype=np.int64)
        # Row id for each stored entry, then a stable argsort by column gives
        # the transpose's concatenated adjacency lists.
        row_of_entry = np.repeat(np.arange(self.nrows, dtype=np.int64), self.degrees())
        order = np.argsort(self.idx, kind="stable")
        tidx[:] = row_of_entry[order]
        return CSR(tptr, tidx, self.nrows)

    def permute_rows(self, perm: np.ndarray) -> "CSR":
        """Return a CSR whose row ``k`` is this CSR's row ``perm[k]``.

        ``perm`` must be a permutation of ``range(nrows)``.  Column indices
        are left untouched (use :meth:`relabel_cols` for that).
        """
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (self.nrows,) or np.any(np.sort(perm) != np.arange(self.nrows)):
            raise GraphError("perm must be a permutation of range(nrows)")
        nptr = np.zeros(self.nrows + 1, dtype=np.int64)
        np.cumsum(self.degrees()[perm], out=nptr[1:])
        return CSR(nptr, self.take_rows(perm)[0], self.ncols)

    def relabel_cols(self, mapping: np.ndarray) -> "CSR":
        """Return a CSR with every column index ``j`` replaced by ``mapping[j]``."""
        mapping = np.asarray(mapping, dtype=np.int64)
        if mapping.shape != (self.ncols,):
            raise GraphError("mapping must have one entry per column")
        return CSR(self.ptr.copy(), mapping[self.idx], self.ncols)

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSR):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and np.array_equal(self.ptr, other.ptr)
            and np.array_equal(self.idx, other.idx)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    def __repr__(self) -> str:
        return f"CSR(nrows={self.nrows}, ncols={self.ncols}, nnz={self.nnz})"
