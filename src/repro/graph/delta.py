"""Edge deltas for evolving bipartite graphs.

Production graphs change; :class:`GraphDelta` is the canonical description
of one change set — ``(vertex, net)`` edge insertions and deletions — and
:func:`apply_delta` materializes the mutated :class:`BipartiteGraph` by
splicing the change into the vertex→net CSR (the containers stay
immutable; a delta produces a *new* graph, so fingerprints and two-hop
caches keyed on the old object remain correct).

:func:`delta_frontier` computes the set of vertices whose color an
incremental recoloring (:func:`repro.core.incremental.recolor_incremental`)
must revisit.  The rule, and why it is sufficient:

* **Deletions only remove constraints.**  A coloring valid before a
  deletion is still valid after it, so deletions contribute nothing to the
  frontier (they can only leave unused colors behind).
* **Insertions create constraints only through the touched nets.**  After
  inserting ``(u, v)``, a new conflict pair must involve net ``v``'s
  membership; resetting *every* member of every inserted-into net (the
  endpoints' whole one-net neighborhood — the classic two-hop
  invalidation) guarantees any vertex that gained a constraint partner is
  re-colored against the full, updated forbidden set.  Two vertices
  outside the frontier never gain a new mutual constraint.

See ``docs/incremental.md`` for the worked semantics and wire format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.csr import CSR

__all__ = ["GraphDelta", "apply_delta", "delta_frontier"]


def _canonical_pairs(pairs, label: str) -> np.ndarray:
    """Normalize an iterable of ``(vertex, net)`` pairs to a sorted, unique
    ``(k, 2)`` int64 array."""
    arr = np.asarray(
        list(pairs) if not isinstance(pairs, np.ndarray) else pairs
    )
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphError(
            f"delta {label} must be (k, 2)-shaped (vertex, net) pairs, "
            f"got shape {arr.shape}"
        )
    if not np.issubdtype(arr.dtype, np.integer):
        try:
            cast = arr.astype(np.int64)
        except (TypeError, ValueError):
            raise GraphError(
                f"delta {label} must hold integer ids, got dtype {arr.dtype}"
            ) from None
        if not np.array_equal(cast, arr):
            raise GraphError(
                f"delta {label} must hold integer ids, got dtype {arr.dtype}"
            )
        arr = cast
    arr = arr.astype(np.int64, copy=False)
    if arr.min() < 0:
        raise GraphError(f"delta {label} ids must be non-negative")
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    arr = arr[order]
    keep = np.ones(arr.shape[0], dtype=bool)
    keep[1:] = (arr[1:, 0] != arr[:-1, 0]) | (arr[1:, 1] != arr[:-1, 1])
    return np.ascontiguousarray(arr[keep])


@dataclass(frozen=True)
class GraphDelta:
    """One change set against a bipartite graph: edge inserts and deletes.

    Both fields accept any iterable of ``(vertex, net)`` pairs and are
    canonicalized on construction — int64, deduplicated, sorted by
    ``(vertex, net)`` — so two deltas describing the same change compare
    equal in array terms and serialize identically.

    An edge may not appear in both lists (the composition would be
    order-dependent); express "move" as delete in one delta, insert in the
    next epoch.
    """

    insert: np.ndarray = ()
    delete: np.ndarray = ()

    def __post_init__(self):
        object.__setattr__(
            self, "insert", _canonical_pairs(self.insert, "insert")
        )
        object.__setattr__(
            self, "delete", _canonical_pairs(self.delete, "delete")
        )
        if self.insert.size and self.delete.size:
            ins = self.insert[:, 0] * (2**31) + self.insert[:, 1]
            dels = self.delete[:, 0] * (2**31) + self.delete[:, 1]
            both = np.intersect1d(ins, dels)
            if both.size:
                u, v = divmod(int(both[0]), 2**31)
                raise GraphError(
                    f"edge ({u}, {v}) appears in both insert and delete"
                )

    @property
    def num_insertions(self) -> int:
        return int(self.insert.shape[0])

    @property
    def num_deletions(self) -> int:
        return int(self.delete.shape[0])

    @property
    def is_empty(self) -> bool:
        """True when the delta changes nothing."""
        return self.num_insertions == 0 and self.num_deletions == 0

    @property
    def is_delete_only(self) -> bool:
        """True when the delta only removes edges (frontier is empty)."""
        return self.num_insertions == 0 and self.num_deletions > 0

    def __repr__(self) -> str:
        return (
            f"GraphDelta(+{self.num_insertions} insert, "
            f"-{self.num_deletions} delete)"
        )


def _edge_keys(vs: np.ndarray, ns: np.ndarray, stride: int) -> np.ndarray:
    return vs * np.int64(stride) + ns


def _found_at(sorted_keys: np.ndarray, pos: np.ndarray,
              keys: np.ndarray) -> np.ndarray:
    """Membership mask for ``keys`` given searchsorted positions.

    ``sorted_keys`` may be empty (e.g. a delta that deleted every edge) —
    nothing is present then, and the clamped index would be out of range.
    """
    if not sorted_keys.size:
        return np.zeros(keys.size, dtype=bool)
    return (pos < sorted_keys.size) & (
        sorted_keys[np.minimum(pos, sorted_keys.size - 1)] == keys
    )


def apply_delta(bg: BipartiteGraph, delta: GraphDelta) -> BipartiteGraph:
    """The graph obtained by applying ``delta`` to ``bg`` (a new object).

    Semantics are strict so silent drift is impossible: deleting an edge
    that is not present, or inserting one that already is, raises
    :class:`~repro.errors.GraphError`.  Insertions may name vertex or net
    ids beyond the current cardinalities — the sides grow to ``max id + 1``
    — but the sides never shrink, even if a deletion empties the tail row
    (ids stay stable across epochs, which is what keeps old colorings
    index-compatible).  The base's rows may be unsorted or repeat an entry
    (the wire form allows both); the mutated graph lists every edge once,
    each row sorted.
    """
    if not isinstance(delta, GraphDelta):
        raise GraphError(
            f"delta must be a GraphDelta, got {type(delta).__name__}"
        )
    ins, dels = delta.insert, delta.delete
    num_vertices = bg.num_vertices
    num_nets = bg.num_nets
    if ins.size:
        num_vertices = max(num_vertices, int(ins[:, 0].max()) + 1)
        num_nets = max(num_nets, int(ins[:, 1].max()) + 1)
    if dels.size and (
        int(dels[:, 0].max()) >= bg.num_vertices
        or int(dels[:, 1].max()) >= bg.num_nets
    ):
        raise GraphError(
            "delta deletes an edge outside the graph "
            f"(|V_A|={bg.num_vertices}, |V_B|={bg.num_nets})"
        )
    stride = max(num_nets, 1)

    # With every row sorted, the (vertex, net) keys are globally sorted:
    # membership is one searchsorted and insertion one np.insert, with no
    # re-sort of the edges.  The wire form admits unsorted rows, which
    # sorted() puts in order first.
    v2n = bg.vtx_to_nets.sorted()
    cur_vs = np.repeat(np.arange(bg.num_vertices, dtype=np.int64), v2n.degrees())
    cur_keys = _edge_keys(cur_vs, v2n.idx, stride)
    # An edge is in the graph once, however often its row repeats it.
    cur_keys = np.delete(cur_keys, np.flatnonzero(cur_keys[1:] == cur_keys[:-1]) + 1)

    if dels.size:
        del_keys = _edge_keys(dels[:, 0], dels[:, 1], stride)
        pos = np.searchsorted(cur_keys, del_keys)
        present = _found_at(cur_keys, pos, del_keys)
        if not present.all():
            u, v = (int(x) for x in dels[np.nonzero(~present)[0][0]])
            raise GraphError(f"delta deletes a missing edge ({u}, {v})")
        keep = np.ones(cur_keys.size, dtype=bool)
        keep[pos] = False
        cur_keys = cur_keys[keep]

    if ins.size:
        ins_keys = _edge_keys(ins[:, 0], ins[:, 1], stride)
        pos = np.searchsorted(cur_keys, ins_keys)
        present = _found_at(cur_keys, pos, ins_keys)
        if present.any():
            u, v = (int(x) for x in ins[np.nonzero(present)[0][0]])
            raise GraphError(f"delta inserts an existing edge ({u}, {v})")
        cur_keys = np.insert(cur_keys, pos, ins_keys)

    ptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(cur_keys // stride, minlength=num_vertices), out=ptr[1:])
    return BipartiteGraph.from_vtx_to_nets(CSR(ptr, cur_keys % stride, num_nets))


def delta_frontier(mutated: BipartiteGraph, delta: GraphDelta) -> np.ndarray:
    """Vertices an incremental recoloring must reset, on the mutated graph.

    The union of (a) every insertion's vertex endpoint and (b) every member
    — in ``mutated`` — of every net an insertion touches.  Deletions
    contribute nothing (they only remove constraints), so a delete-only
    delta has an empty frontier and the old coloring is already valid.

    Returns a sorted, unique int64 vertex-id array.
    """
    if not isinstance(delta, GraphDelta):
        raise GraphError(
            f"delta must be a GraphDelta, got {type(delta).__name__}"
        )
    ins = delta.insert
    if not ins.size:
        return np.empty(0, dtype=np.int64)
    touched_nets = np.unique(ins[:, 1])
    if touched_nets.size and int(touched_nets.max()) >= mutated.num_nets:
        raise GraphError(
            f"frontier net {int(touched_nets.max())} outside the mutated "
            f"graph (|V_B|={mutated.num_nets})"
        )
    members = [mutated.vtxs(int(v)) for v in touched_nets]
    return np.unique(np.concatenate([ins[:, 0], *members])).astype(
        np.int64, copy=False
    )
