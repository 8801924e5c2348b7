"""Seeded inputs of every workload.

The workload seed drives the synthetic generators of ``repro.datasets``
(the paper's stand-in families at the registry's ``small`` parameters, or
at the generator defaults where the simulator would otherwise take
seconds per call): a mesh takes it as its vertex scatter, a family with a
random structure as a vertex relabelling (see :func:`_seeded`).  The
program under test only ever receives the graphs built here.  The same
seed gives byte-identical graphs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.datasets import synthetic
from repro.datasets.registry import DATASETS
from repro.graph.bipartite import BipartiteGraph
from repro.graph.ops import bipartite_to_graph


@dataclass
class Instance:
    """One input graph and its sequential-greedy reference."""

    name: str
    problem: str  # "bgpc" or "d2gc"
    graph: object  # BipartiteGraph for bgpc, Graph for d2gc
    ref_colors: int = 0
    ref_cycles: float = 0.0


def _seeded(generator, workload_seed: int, /, **params) -> BipartiteGraph:
    """Build one instance for ``workload_seed``.

    Families with a random structure keep the structure their parameters
    fix and take a seeded relabelling of the vertices, so every seed costs
    about the same; meshes take the seed as their own vertex scatter.
    """
    if "seed" in params:
        return relabel(generator(**params), np.random.default_rng(workload_seed))
    return generator(**params, seed=workload_seed)


def _small(name: str, seed: int) -> BipartiteGraph:
    """A registry instance at ``small`` scale, seeded as in :func:`_seeded`."""
    spec = DATASETS[name]
    return _seeded(spec.generator, seed, **spec.params["small"])


def fastpath_instances(seed: int) -> list[Instance]:
    """Round-count and net-size-skew spread for the numpy engine."""
    return [
        Instance("copapers", "bgpc", _small("copapers", seed)),
        Instance("web", "bgpc", _small("web", seed)),
        Instance("channel", "bgpc", _small("channel", seed)),
        Instance("movielens", "bgpc", _small("movielens", seed)),
        Instance("af_shell.d2gc", "d2gc",
                 bipartite_to_graph(_small("af_shell", seed))),
    ]


def sim_instances(seed: int) -> list[Instance]:
    """bone- and channel-like at the generator defaults, copapers-like a
    little smaller, so that one round of the loop stays near two seconds."""
    return [
        Instance("bone", "bgpc", _seeded(synthetic.stencil3d, seed)),
        Instance("channel", "bgpc", _seeded(synthetic.channel_mesh, seed)),
        Instance("copapers", "bgpc", _seeded(
            synthetic.copapers_like, seed, num_vertices=1600, num_cliques=300,
            max_clique=80, seed=7)),
        Instance("af_shell.d2gc", "d2gc",
                 bipartite_to_graph(_seeded(synthetic.shell_mesh, seed))),
    ]


def parallel_instances(seed: int) -> list[Instance]:
    return [
        Instance("copapers", "bgpc", _small("copapers", seed)),
        Instance("channel", "bgpc", _small("channel", seed)),
        Instance("af_shell", "bgpc", _small("af_shell", seed)),
    ]


def service_graphs(seed: int) -> dict[str, list[Instance]]:
    """Hot graphs (repeated: cache hits), fresh-graph bases (relabelled per
    request: misses) and delta-chain bases.  Every graph stays under the
    router's 50k-edge threshold, so unpinned requests go to numpy."""

    def web(k):
        return _seeded(synthetic.web_like, 3 * seed + k, num_vertices=2600,
                       avg_degree=7, max_degree=200, seed=27)

    def shell(k):
        return _seeded(synthetic.shell_mesh, 3 * seed + k, nx=40, ny=40)

    def channel(k):
        return _seeded(synthetic.channel_mesh, 3 * seed + k, nx=14, ny=12, nz=12)

    movielens = _seeded(synthetic.movielens_like, seed, num_nets=600,
                        num_vertices=2400, avg_net_size=24, max_net_size=1100,
                        seed=20)
    return {
        "hot": [
            Instance("web", "bgpc", web(0)),
            Instance("movielens", "bgpc", movielens),
            Instance("shell", "bgpc", shell(0)),
            Instance("channel", "bgpc", channel(0)),
        ],
        "fresh": [
            Instance("web", "bgpc", web(1)),
            Instance("shell", "bgpc", shell(1)),
            Instance("channel", "bgpc", channel(1)),
        ],
        "delta": [
            Instance("web", "bgpc", web(2)),
            Instance("shell", "bgpc", shell(2)),
            Instance("channel", "bgpc", channel(2)),
        ],
    }


def relabel(bg: BipartiteGraph, rng: np.random.Generator) -> BipartiteGraph:
    """A fresh graph: ``bg`` under a seeded vertex relabelling."""
    return bg.permute_vertices(rng.permutation(bg.num_vertices))


def random_insertions(bg: BipartiteGraph, k: int,
                      rng: np.random.Generator) -> list[tuple[int, int]]:
    """``k`` distinct ``(vertex, net)`` pairs that are not edges of ``bg``."""
    out: set[tuple[int, int]] = set()
    while len(out) < k:
        u = int(rng.integers(bg.num_vertices))
        v = int(rng.integers(bg.num_nets))
        if v not in bg.nets(u):
            out.add((u, v))
    return sorted(out)


def fingerprint(graph) -> str:
    """sha256 over the CSR arrays of a bipartite or unipartite graph."""
    csr = graph.vtx_to_nets if isinstance(graph, BipartiteGraph) else graph.adj
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(csr.ptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(csr.idx, dtype=np.int64).tobytes())
    return h.hexdigest()
