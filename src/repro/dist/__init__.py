"""Distributed and hybrid BGPC: the lineage around the paper.

The shared-memory algorithms reproduced in :mod:`repro.core` descend from a
distributed-memory superstep framework (Bozdağ et al.) and sit next to
hybrid MPI+multicore implementations by the same authors.  This package
models both flavours on top of the repository's primitives:

* :func:`distributed_bgpc` — partitioned speculative coloring in batched
  bulk-synchronous supersteps, costed by :class:`ClusterModel`;
* :func:`hybrid_bgpc` — ranks of simulated multicore engines (intra-rank
  races plus cross-rank speculation, one resolver);
* :func:`partition_contiguous` / :func:`partition_random` /
  :func:`partition_bfs` / :func:`partition_greedy` — the owner arrays that
  decide the boundary size, selectable by name through
  :data:`~repro.dist.partition.PARTITIONERS`;
* :class:`~repro.dist.sharded.ShardedBackend` — the *executing* flavour:
  ``backend="sharded"`` runs the interior/boundary superstep protocol on a
  real worker-process pool (see ``docs/sharding.md``), keeping
  :func:`distributed_bgpc` as its reference oracle.
"""

from repro.dist.hybrid import hybrid_bgpc
from repro.dist.mpi import ClusterModel, SuperstepStats
from repro.dist.partition import (
    PARTITIONERS,
    get_partitioner,
    partition_bfs,
    partition_contiguous,
    partition_greedy,
    partition_random,
    partitioner_names,
    register_partitioner,
)
from repro.dist.sharded import ShardedBackend
from repro.dist.superstep import DistributedResult, boundary_mask, distributed_bgpc

__all__ = [
    "ClusterModel",
    "PARTITIONERS",
    "SuperstepStats",
    "DistributedResult",
    "ShardedBackend",
    "boundary_mask",
    "distributed_bgpc",
    "get_partitioner",
    "hybrid_bgpc",
    "partition_bfs",
    "partition_contiguous",
    "partition_greedy",
    "partition_random",
    "partitioner_names",
    "register_partitioner",
]
