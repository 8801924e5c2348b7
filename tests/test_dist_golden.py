"""Golden pins for the modeled distributed paths.

``distributed_bgpc`` and ``hybrid_bgpc`` are deterministic: given the
instance, partition and batch, every :class:`DistributedResult` field —
colors (as a sha256 prefix), counts, traffic and modeled ``cycles`` — is
fixed.  These values feed the lineage example and the ``ablations``
distributed rows, so a refactor of the superstep loop must leave them
byte-identical.
"""

import hashlib

import numpy as np
import pytest

from repro.datasets import channel_mesh, random_bipartite
from repro.dist import distributed_bgpc, hybrid_bgpc, partition_bfs

INSTANCES = {
    "rb": lambda: random_bipartite(60, 90, density=0.07, seed=11),
    "mesh": lambda: channel_mesh(4, 4, 3, seed=0),
}

FIELDS = (
    "num_colors",
    "ranks",
    "interior",
    "boundary",
    "supersteps",
    "conflicts",
    "comm_words",
    "comm_messages",
    "cycles",
)

# (instance, partition, batch) -> fields + colors digest.  distributed_bgpc
# runs on 3 ranks, hybrid_bgpc on 2.
DISTRIBUTED = {
    ("rb", "contiguous", 7): (15, 3, 3, 87, 13, 1, 88, 30, 31360.0, "ea0632de35083275"),
    ("rb", "contiguous", 50): (15, 3, 3, 87, 3, 30, 117, 10, 8999.0, "029527a9ecde5f07"),
    ("rb", "bfs", 7): (15, 3, 6, 84, 14, 12, 96, 80, 32493.0, "3a5538da436b0cd7"),
    ("rb", "bfs", 50): (17, 3, 6, 84, 7, 66, 150, 36, 17676.0, "dd163a0b37a6c4f0"),
    ("mesh", "contiguous", 7): (22, 3, 0, 48, 7, 1, 49, 18, 22021.0, "eb531a67078e19b9"),
    ("mesh", "contiguous", 50): (22, 3, 0, 48, 3, 43, 91, 12, 13338.0, "fe04ddaa50f68ee8"),
    ("mesh", "bfs", 7): (23, 3, 0, 48, 10, 16, 64, 52, 27398.0, "f82e3f7d3c6e80e6"),
    ("mesh", "bfs", 50): (23, 3, 0, 48, 5, 43, 91, 22, 17141.0, "d1aaa383254e42d5"),
}

# (instance, partition, batch, threads_per_rank) -> as above.
HYBRID = {
    ("rb", "contiguous", 7, 1): (15, 2, 3, 87, 13, 1, 91, 14, 33653.0, "ea0632de35083275"),
    ("rb", "contiguous", 7, 4): (15, 2, 3, 87, 14, 3, 93, 15, 45330.0, "ea0632de35083275"),
    ("rb", "contiguous", 50, 1): (15, 2, 3, 87, 2, 5, 95, 3, 20669.0, "ea0632de35083275"),
    ("rb", "contiguous", 50, 4): (15, 2, 3, 87, 2, 6, 96, 4, 17163.0, "f102cf0da4062bf7"),
    ("rb", "bfs", 7, 1): (16, 2, 7, 83, 15, 7, 97, 29, 31547.0, "9118e8eb2675496b"),
    ("rb", "bfs", 7, 4): (16, 2, 7, 83, 18, 22, 112, 35, 53153.0, "d2c1a0f4d6d7aafe"),
    ("rb", "bfs", 50, 1): (17, 2, 7, 83, 5, 34, 124, 9, 22356.0, "7ed6e5da40240db2"),
    ("rb", "bfs", 50, 4): (16, 2, 7, 83, 5, 45, 135, 10, 23044.0, "41608ff383d7f92f"),
    ("mesh", "contiguous", 7, 1): (22, 2, 0, 48, 7, 1, 49, 8, 47085.0, "eb531a67078e19b9"),
    ("mesh", "contiguous", 7, 4): (23, 2, 0, 48, 12, 27, 75, 15, 54159.0, "f6a2f9550fff2904"),
    ("mesh", "contiguous", 50, 1): (22, 2, 0, 48, 2, 22, 70, 3, 41611.0, "d39d04722c41c386"),
    ("mesh", "contiguous", 50, 4): (24, 2, 0, 48, 7, 44, 92, 11, 39277.0, "08cccf74b85d4544"),
    ("mesh", "bfs", 7, 1): (23, 2, 1, 47, 8, 7, 55, 16, 44056.0, "49e5f8cf7459f7ee"),
    ("mesh", "bfs", 7, 4): (22, 2, 1, 47, 16, 49, 97, 29, 65400.0, "448ce11c311a1dca"),
    ("mesh", "bfs", 50, 1): (24, 2, 1, 47, 4, 20, 68, 7, 38022.0, "bf5ae92f0f42bdff"),
    ("mesh", "bfs", 50, 4): (24, 2, 1, 47, 7, 45, 93, 12, 36277.0, "466fd7641cc91e42"),
}


@pytest.fixture(scope="module")
def graphs():
    return {name: make() for name, make in INSTANCES.items()}


def _pinned(result):
    digest = hashlib.sha256(
        np.ascontiguousarray(result.colors, dtype=np.int64).tobytes()
    ).hexdigest()[:16]
    return tuple(getattr(result, f) for f in FIELDS) + (digest,)


def _partition(bg, name, ranks):
    return None if name == "contiguous" else partition_bfs(bg, ranks)


@pytest.mark.parametrize("key", sorted(DISTRIBUTED))
def test_distributed_golden(graphs, key):
    name, pname, batch = key
    bg = graphs[name]
    result = distributed_bgpc(
        bg, ranks=3, batch=batch, partition=_partition(bg, pname, 3)
    )
    assert _pinned(result) == DISTRIBUTED[key]


@pytest.mark.parametrize("key", sorted(HYBRID))
def test_hybrid_golden(graphs, key):
    name, pname, batch, threads = key
    bg = graphs[name]
    result = hybrid_bgpc(
        bg,
        ranks=2,
        threads_per_rank=threads,
        batch=batch,
        partition=_partition(bg, pname, 2),
    )
    assert _pinned(result) == HYBRID[key]
