"""Canonical content fingerprints: the coloring cache's key space.

Two requests must share a cache entry exactly when they would produce the
same :class:`~repro.types.ColoringResult`, so the key is built from

* a **graph fingerprint** — sha256 over the canonicalized CSR bytes of the
  vertex→net orientation (rows sorted, ``int64`` ``ptr``/``idx`` buffers)
  plus the side cardinalities, so equivalent constructions (built from
  either orientation, rows in any order) fingerprint identically; and
* the **run configuration** — canonical schedule name, balancing policy,
  ordering, resolved backend, thread count and fastpath mode — everything
  that steers the computed colors.

Fingerprints are hex strings: stable across processes and platforms
(``int64`` little-endian on every supported target), safe to log, and
cheap to compare.
"""

from __future__ import annotations

import hashlib

from repro.graph.bipartite import BipartiteGraph

__all__ = ["graph_fingerprint", "request_key"]

#: Bumped when the canonical byte layout changes (invalidates old keys).
_FINGERPRINT_VERSION = b"bgpc-csr-v1"


def graph_fingerprint(bg: BipartiteGraph) -> str:
    """sha256 content hash of the canonical CSR form of ``bg``.

    Canonicalization: the vertex→net orientation with every adjacency row
    sorted ascending.  :meth:`BipartiteGraph.from_vtx_to_nets` and
    :meth:`BipartiteGraph.from_net_to_vtxs` over the same edge set — with
    rows in any order — therefore hash identically.
    """
    csr = bg.vtx_to_nets.sorted()
    h = hashlib.sha256()
    h.update(_FINGERPRINT_VERSION)
    h.update(f"{csr.nrows}x{csr.ncols}".encode("ascii"))
    h.update(csr.ptr.tobytes())
    h.update(csr.idx.tobytes())
    return h.hexdigest()


def request_key(
    bg: BipartiteGraph | str,
    *,
    algorithm: str,
    policy: str = "U",
    ordering: str = "natural",
    backend: str = "sim",
    threads: int = 1,
    fastpath_mode: str = "exact",
) -> str:
    """The full cache key of one coloring request.

    ``bg`` is the graph, or its :func:`graph_fingerprint` when the caller
    already holds it (a delta names its base that way), which skips the
    hash.

    ``algorithm`` is canonicalized through the schedule grammar
    (``"v-n∞"`` and ``"V-Ninf"`` share a key); adaptive controller names
    canonicalize through :func:`repro.core.adaptive.parse_adaptive`
    (``"ADAPTIVE:0.10"`` and ``"adaptive:0.1"`` share a key);
    ``"sequential"`` passes through.  Everything else is included verbatim — the key must separate
    any two configurations that can color differently, including
    nondeterministic backends at different thread counts.
    """
    from repro.core.adaptive import is_adaptive_name, parse_adaptive
    from repro.core.plan import normalize_schedule_name

    if is_adaptive_name(algorithm):
        # Canonical controller spelling ("ADAPTIVE:0.10" == "adaptive:0.1").
        algorithm = parse_adaptive(algorithm).name
    elif algorithm != "sequential":
        algorithm = normalize_schedule_name(algorithm)
    config = "|".join(
        (
            algorithm,
            policy,
            ordering,
            backend,
            str(int(threads)),
            fastpath_mode,
        )
    )
    fingerprint = bg if isinstance(bg, str) else graph_fingerprint(bg)
    return f"{fingerprint}:{config}"
