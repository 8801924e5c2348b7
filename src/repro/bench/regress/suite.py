"""The pinned perf-regression benchmark suite.

Each :class:`BenchCase` names one deterministic coloring configuration —
problem × schedule × backend × thread count on a seeded synthetic
instance sized for CI (sub-second per case).  The suite's invariant is
that every case's *work metrics* (see :mod:`repro.obs.work`) are
byte-for-byte reproducible across runs and machines:

* ``sim`` is the cycle-accurate machine — deterministic at any simulated
  thread count, so those cases also pin the simulated ``cycles``;
* ``numpy`` is single-process vectorized code — deterministic;
* ``process`` races for real with >1 worker, so its case runs with
  **one** worker: the point is covering its code path (cross-process
  counter aggregation), not its races;
* ``sharded`` commits only at superstep barriers, so it is deterministic
  at **any** shard count — its multi-shard cases additionally pin the
  ``shard.*`` structure metrics (boundary size, supersteps, exchanged
  words; see :data:`repro.obs.work.SHARD_METRICS`).

Instances are built lazily and memoized per process so a ``--repeats``
determinism check does not pay the generation cost twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch

__all__ = ["BenchCase", "INSTANCES", "default_suite", "select_cases"]


def _bipartite_small():
    from repro.datasets.synthetic import random_bipartite

    return random_bipartite(120, 200, density=0.05, seed=7)


def _graph_small():
    from repro.datasets.synthetic import random_graph

    return random_graph(200, 800, seed=11)


def _mesh_small():
    from repro.datasets.synthetic import channel_mesh

    return channel_mesh(6, 5, 5)


#: Instance name → zero-argument builder.  Adding an instance here makes it
#: addressable from :class:`BenchCase.instance`.
INSTANCES = {
    "bip-small": _bipartite_small,
    "uni-small": _graph_small,
    "mesh-small": _mesh_small,
}

_instance_cache: dict[str, object] = {}


def _get_instance(name: str):
    if name not in _instance_cache:
        _instance_cache[name] = INSTANCES[name]()
    return _instance_cache[name]


@dataclass(frozen=True)
class BenchCase:
    """One pinned benchmark configuration.

    ``id`` is the stable key used in the baseline JSON; changing a case's
    parameters without renaming it silently re-baselines that key, so
    treat the id as part of the contract.
    """

    id: str
    problem: str  # "bgpc" | "d2gc" | "incremental"
    instance: str  # key into INSTANCES
    schedule: str
    backend: str = "sim"
    threads: int = 16
    fastpath_mode: str = "exact"
    extra: dict = field(default_factory=dict)

    def run(self, tracer=None):
        """Execute the case once and return its :class:`ColoringResult`."""
        inst = _get_instance(self.instance)
        kwargs = dict(
            threads=self.threads,
            backend=self.backend,
            fastpath_mode=self.fastpath_mode,
            tracer=tracer,
            **self.extra,
        )
        if self.problem == "bgpc":
            from repro.core.bgpc import color_bgpc

            return color_bgpc(inst, self.schedule, **kwargs)
        if self.problem == "d2gc":
            from repro.core.d2gc import color_d2gc

            return color_d2gc(inst, self.schedule, **kwargs)
        if self.problem == "incremental":
            # Base coloring + pinned localized delta, then the frontier-only
            # recolor; the returned result carries ONLY the incremental
            # loop's work counters, so the baseline pins the frontier math.
            from repro.bench.experiments.incremental import make_delta
            from repro.core.bgpc import color_bgpc
            from repro.core.incremental import recolor_incremental

            base = color_bgpc(
                inst, self.schedule, threads=self.threads,
                backend=self.backend, fastpath_mode=self.fastpath_mode,
            )
            delta = make_delta(inst, count=5, seed=13)
            inc = recolor_incremental(
                inst,
                base.colors,
                delta,
                algorithm=self.schedule,
                threads=self.threads,
                backend=self.backend,
                tracer=tracer,
                **self.extra,
            )
            return inc.result
        raise ValueError(f"unknown problem {self.problem!r}")


def default_suite() -> list[BenchCase]:
    """The committed CI suite: every schedule family × every backend.

    Kept deliberately small (each case is well under a second) — the gate's
    job is catching *work* inflation in the kernels and backends, not
    benchmarking throughput.
    """
    return [
        # Simulated machine: deterministic at 16 threads, cycles pinned too.
        BenchCase("bgpc/V-V/sim16", "bgpc", "bip-small", "V-V"),
        BenchCase("bgpc/V-V-64D/sim16", "bgpc", "bip-small", "V-V-64D"),
        BenchCase("bgpc/N1-N2/sim16", "bgpc", "bip-small", "N1-N2"),
        BenchCase("bgpc/N2-N2-B1/sim16", "bgpc", "bip-small", "N2-N2-B1"),
        BenchCase("bgpc/N2-N2-B2/sim16", "bgpc", "bip-small", "N2-N2-B2"),
        BenchCase("d2gc/V-V/sim16", "d2gc", "uni-small", "V-V"),
        BenchCase("d2gc/N1-N2/sim16", "d2gc", "uni-small", "N1-N2"),
        BenchCase("d2gc/N2-N2-B1/sim16", "d2gc", "uni-small", "N2-N2-B1"),
        # Per-iteration schedule switching: a static "@" segment plan and
        # the adaptive conflict-rate controller.  Both are deterministic
        # on sim (controller decisions are pure functions of the pinned
        # counters — see docs/adaptive.md), so their work is pinned like
        # any static schedule's.
        BenchCase(
            "bgpc/V-V-64D-B1@1/sim16", "bgpc", "bip-small", "V-V-64D-B1@1"
        ),
        BenchCase("bgpc/adaptive/sim16", "bgpc", "bip-small", "adaptive"),
        BenchCase("d2gc/adaptive/sim16", "d2gc", "uni-small", "adaptive"),
        # Vectorized fast path: single-process, deterministic.
        BenchCase(
            "bgpc/numpy-exact", "bgpc", "bip-small", "N1-N2",
            backend="numpy", threads=1, fastpath_mode="exact",
        ),
        BenchCase(
            "bgpc/numpy-spec", "bgpc", "bip-small", "N1-N2",
            backend="numpy", threads=1, fastpath_mode="speculative",
        ),
        BenchCase(
            "d2gc/numpy-spec", "d2gc", "uni-small", "N1-N2",
            backend="numpy", threads=1, fastpath_mode="speculative",
        ),
        # The real-parallel backend pinned to one worker (see module docstring).
        BenchCase(
            "bgpc/N1-N2/process1", "bgpc", "bip-small", "N1-N2",
            backend="process", threads=1,
        ),
        # Sharded backend: deterministic at any shard count.  One shard is
        # the byte-parity anchor with process@1; the two-shard bfs/random
        # pair pins the partition-quality gap (boundary, exchanged words)
        # on the mesh, and the d2gc case covers the generic-group path.
        BenchCase(
            "bgpc/V-V/sharded1", "bgpc", "bip-small", "V-V",
            backend="sharded", threads=1,
        ),
        BenchCase(
            "bgpc/V-V/sharded2-bfs", "bgpc", "mesh-small", "V-V",
            backend="sharded", threads=2, extra={"partitioner": "bfs"},
        ),
        BenchCase(
            "bgpc/V-V/sharded2-random", "bgpc", "mesh-small", "V-V",
            backend="sharded", threads=2, extra={"partitioner": "random"},
        ),
        BenchCase(
            "d2gc/V-V/sharded2-greedy", "d2gc", "uni-small", "V-V",
            backend="sharded", threads=2, extra={"partitioner": "greedy"},
        ),
        # Incremental recoloring: frontier-restricted resume after a pinned
        # localized delta; pins the two-hop invalidation math.
        BenchCase("bgpc/incr/V-V/sim16", "incremental", "bip-small", "V-V"),
        BenchCase(
            "bgpc/incr/V-V/process1", "incremental", "bip-small", "V-V",
            backend="process", threads=1,
        ),
    ]


def select_cases(suite: list[BenchCase], patterns: list[str]) -> list[BenchCase]:
    """Filter ``suite`` by glob patterns over case ids (empty = all)."""
    if not patterns:
        return list(suite)
    return [c for c in suite if any(fnmatch(c.id, p) for p in patterns)]
