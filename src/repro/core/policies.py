"""Color-selection policies: first-fit and the B1/B2 balancing heuristics.

A policy picks the color for one vertex given the forbidden set computed
from its neighbourhood.  The default is the classical **first-fit** (paper
Alg. 2 lines 6–9).  The two *costless balancing heuristics* of Section V are
implemented exactly as paper Algs. 11 and 12:

* **B1** alternates first-fit (odd ids) with a reverse scan from the
  thread's running ``colmax`` (even ids), hoping to spread colors evenly
  over ``[0, colmax]`` without introducing new colors unless forced;
* **B2** rotates a thread-private ``colnext`` cursor, aggressively filling
  the upper part of the interval (its restart floor is ``colmax/3 + 1``),
  trading ~10 % more colors for a much flatter cardinality profile.

Both keep their state (``colmax`` / ``colnext``) in the executing thread's
persistent state dict, so they are *thread-private and unsynchronized*
exactly as in the paper — the whole point is that balancing costs nothing.

The net kernels color a whole work list per task through
:meth:`Policy.choose_many`; it must return exactly what one ``choose`` per
key (each pick added to the forbidden set) would.
"""

from __future__ import annotations

from collections import deque

from repro.core.forbidden import ForbiddenSet

__all__ = ["Policy", "FirstFit", "B1Policy", "B2Policy", "POLICIES", "get_policy"]


class Policy:
    """Base of the color policies: the batch form of ``choose``."""

    def choose_many(
        self, forbidden: ForbiddenSet, keys: list[int], state: dict
    ) -> tuple[list[int], int]:
        """Colors for ``keys`` in order, each added to ``forbidden`` before
        the next pick; returns ``(colors, total_scan_steps)``."""
        cols = []
        steps = 0
        for key in keys:
            col, more = self.choose(forbidden, key, state)
            forbidden.add(col)
            cols.append(col)
            steps += more
        return cols, steps


class FirstFit(Policy):
    """Plain first-fit: the smallest non-forbidden color."""

    name = "U"  # the paper's "unbalanced" suffix

    def choose(self, forbidden: ForbiddenSet, key: int, state: dict) -> tuple[int, int]:
        """Return ``(color, scan_steps)`` for the vertex/net element ``key``."""
        return forbidden.first_fit(0)


class B1Policy(Policy):
    """Paper Alg. 11 — balance without (deliberately) adding colors.

    Even-id elements scan downward from the thread's ``colmax``; if the
    whole interval is forbidden, fall back to first-fit from ``colmax + 1``
    (the safety check of line 8).  Odd-id elements use plain first-fit.
    """

    name = "B1"

    def choose(self, forbidden: ForbiddenSet, key: int, state: dict) -> tuple[int, int]:
        colmax = state.get("colmax", 0)
        if key % 2 == 0:
            col, steps = forbidden.reverse_first_fit(colmax)
            if col == -1:
                col, more = forbidden.first_fit(colmax + 1)
                steps += more
        else:
            col, steps = forbidden.first_fit(0)
        if col > colmax:
            state["colmax"] = col
        return col, steps

    def choose_many(
        self, forbidden: ForbiddenSet, keys: list[int], state: dict
    ) -> tuple[list[int], int]:
        """All of ``keys`` from one scan of ``[0, colmax]``.

        While that interval has free colors, ``colmax`` is fixed: an odd key
        takes the smallest (``col + 1`` probes), an even key the largest
        (``colmax - col + 1``).  Once it is full, each key takes the next
        free color above ``colmax`` and raises it — through the first-fit
        fallback for even keys, whose failed descending scan costs
        ``colmax + 2`` probes first.
        """
        top = colmax = state.get("colmax", 0)
        inside = deque(forbidden.free_upto(colmax).tolist())
        cols = []
        steps = 0
        for key in keys:
            if inside:
                if key % 2:
                    col = inside.popleft()
                    steps += col + 1
                else:
                    col = inside.pop()
                    steps += colmax - col + 1
            else:
                col, more = forbidden.first_fit(colmax + 1)
                steps += more + (colmax + 1 if key % 2 else colmax + 2)
                colmax = col
            cols.append(col)
        if colmax > top:
            state["colmax"] = colmax
        forbidden.add_many(cols)
        return cols, steps


class B2Policy(Policy):
    """Paper Alg. 12 — aggressive balancing with a rotating start color.

    The scan starts at the thread's ``colnext``; exceeding ``colmax``
    triggers one restart from 0.  After each assignment the cursor advances
    by one but never below the floor ``colmax // 3 + 1``, concentrating
    future picks in the upper two-thirds of the interval.
    """

    name = "B2"

    def choose(self, forbidden: ForbiddenSet, key: int, state: dict) -> tuple[int, int]:
        colmax = state.get("colmax", 0)
        colnext = state.get("colnext", 0)
        col, steps = forbidden.first_fit(colnext)
        if col > colmax:
            col, more = forbidden.first_fit(0)
            steps += more
        if col > colmax:
            colmax = col
        state["colmax"] = colmax
        # Paper discrepancy: Alg. 12's last line reads ``min(col+1,
        # colmax/3+1)``, but the prose says "the *minimum* color to start is
        # set to colmax/3 + 1" — a floor, i.e. ``max``.  The floor semantics
        # is what actually produces the aggressive balancing (and the ~10 %
        # color increase) Table VI reports, so we follow the prose.
        state["colnext"] = max(col + 1, colmax // 3 + 1)
        return col, steps


#: Registry keyed by the paper's suffixes: ``-U`` (none), ``-B1``, ``-B2``.
POLICIES = {
    "U": FirstFit,
    "B1": B1Policy,
    "B2": B2Policy,
}


def get_policy(name: str):
    """Instantiate a policy by registry name (``"U"``, ``"B1"``, ``"B2"``)."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r}; choose from {sorted(POLICIES)}"
        ) from None
