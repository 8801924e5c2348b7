"""Command-line interface: color a MatrixMarket file.

Usage::

    python -m repro input.mtx --algorithm N1-N2 --threads 16
    python -m repro input.mtx --problem d2gc --ordering smallest-last
    python -m repro input.mtx --policy B2 --output colors.txt
    python -m repro input.mtx --backend numpy --fastpath-mode speculative
    python -m repro input.mtx --backend process --threads 4 --algo V-V-64D
    python -m repro input.mtx --backend sharded --shards 4 --partitioner bfs
    python -m repro input.mtx --profile --trace run.jsonl
    python -m repro input.mtx --work-metrics
    python -m repro input.mtx --algo V-V --delta changes.json
    python -m repro input.mtx --schedule adaptive --threads 16

``--algo`` accepts any spec the schedule grammar admits (``V-N∞``,
``n1-n2-b1``, …), not just the named table entries, and ``--backend``
lists every registered execution backend.

Prints a run summary (colors, rounds, conflicts, simulated cycles) and
optionally writes the color of each vertex, one per line.  ``--profile``
adds the per-iteration phase breakdown (the paper's Figure 1 shape) and
``--trace`` streams structured span/counter events to a JSONL file — see
``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.backends import backend_names, missing_capability
from repro.core.bgpc import BGPC_ALGORITHMS, color_bgpc
from repro.core.d2gc import color_d2gc
from repro.core.driver import SEQUENTIAL
from repro.core.metrics import color_stats
from repro.core.policies import POLICIES, get_policy
from repro.core.validate import validate_bgpc, validate_d2gc
from repro.dist.partition import partitioner_names
from repro.graph.mmio import read_matrix_market
from repro.graph.ops import bipartite_to_graph
from repro.order import ORDERINGS, get_ordering

#: The execution clause of the summary's ``problem :`` line, per backend;
#: backends without an entry print the ``sim`` clause.
_BACKEND_CLAUSES = {
    "sim": "{threads} simulated threads",
    "numpy": "numpy backend ({mode} mode)",
    "compiled": "compiled backend (numba, {mode} mode)",
    "process": "{threads} worker processes (process backend, shared memory)",
    "sharded": "{threads} shards (sharded backend, {partitioner} partition)",
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Bipartite-graph partial coloring / distance-2 coloring "
        "of a MatrixMarket pattern (ICPP'17 'Greed is Good' algorithms).",
    )
    parser.add_argument("matrix", help="path to a .mtx or .mtx.gz file")
    parser.add_argument(
        "--problem",
        choices=("bgpc", "d2gc"),
        default="bgpc",
        help="color the columns (bgpc, default) or distance-2 color the "
        "symmetrized square pattern (d2gc)",
    )
    parser.add_argument(
        "--algorithm",
        "--algo",
        "--schedule",
        default="N1-N2",
        help="algorithm variant: a named schedule "
        f"({', '.join(sorted(BGPC_ALGORITHMS))}), 'sequential', any "
        "spec in the paper's grammar such as V-N∞, N1-N2-B1 or the "
        "switched V-V-64D-B1@2, or 'adaptive[:threshold]' for the "
        "conflict-rate controller (kernel-level backends only) "
        "(default: N1-N2); see docs/algorithms.md and docs/adaptive.md",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=16,
        help="simulated cores for --backend sim, worker processes for "
        "process (default 16)",
    )
    parser.add_argument(
        "--backend",
        choices=backend_names(),
        default="sim",
        help="execution backend: the cycle-accurate simulator (sim, "
        "default), the vectorized wall-clock NumPy fast path (numpy), "
        "its numba-JIT twin (compiled, needs numba installed), "
        "a shared-memory worker-process pool (process), or partitioned superstep coloring on that pool "
        "(sharded); see docs/backends.md and docs/sharding.md",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="shard count for --backend sharded (one worker process per "
        "shard; defaults to --threads); see docs/sharding.md",
    )
    parser.add_argument(
        "--partitioner",
        default=None,
        choices=partitioner_names(),
        help="vertex partitioner for --backend sharded (default: bfs); "
        "see docs/sharding.md",
    )
    parser.add_argument(
        "--fastpath-mode",
        choices=("exact", "speculative"),
        default="exact",
        help="numpy/compiled-backend flavour: exact reproduces the "
        "sequential colors byte-for-byte, speculative is fastest "
        "(default: exact; ignored with --backend sim)",
    )
    parser.add_argument(
        "--ordering",
        default="natural",
        choices=sorted(ORDERINGS),
        help="vertex pre-ordering (default: natural)",
    )
    parser.add_argument(
        "--policy",
        default="U",
        choices=sorted(POLICIES),
        help="balancing policy: U (none), B1 or B2",
    )
    parser.add_argument(
        "--delta",
        default=None,
        metavar="FILE",
        help="after the base run, apply the JSON edge delta in FILE "
        '({"insert": [[u, v], ...], "delete": [[u, v], ...]}) and recolor '
        "only the invalidated frontier, printing the work saved vs the "
        "base run (bgpc only, natural ordering, kernel-level backends); "
        "see docs/incremental.md",
    )
    parser.add_argument(
        "--output", default=None, help="write one color per line to this "
        "file (with --delta: the incremental colors of the mutated graph)"
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the per-iteration phase breakdown (queue sizes, "
        "conflicts, palette growth, cycles or wall ms per round); see "
        "docs/observability.md",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="stream structured trace events (spans/counters) to FILE as "
        "JSON lines; see docs/observability.md for the event schema",
    )
    parser.add_argument(
        "--work-metrics",
        action="store_true",
        help="print the run's deterministic work counters (probes, scans, "
        "conflict checks, queue pushes, color writes); these are the "
        "numbers the perf-regression gate compares — see "
        "docs/benchmarks.md",
    )
    return parser


def _load_delta(path: str):
    """Read a ``--delta`` JSON file into a GraphDelta; exits via ValueError."""
    import json

    from repro.graph.delta import GraphDelta

    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(
            "delta file must hold a JSON object with 'insert'/'delete' lists"
        )
    unknown = set(payload) - {"insert", "delete"}
    if unknown:
        raise ValueError(
            f"unknown delta fields {sorted(unknown)}; "
            "expected 'insert' and/or 'delete'"
        )
    return GraphDelta(
        insert=payload.get("insert", ()), delete=payload.get("delete", ())
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    from repro.errors import ReproError

    if args.backend != "sharded" and (
        args.shards is not None or args.partitioner is not None
    ):
        print(
            "error: --shards/--partitioner apply only to --backend sharded",
            file=sys.stderr,
        )
        return 2

    delta = None
    if args.delta:
        # Incremental recoloring resumes the kernel loop in place, which
        # constrains the configuration; reject the rest with one-line errors.
        missing = missing_capability(args.backend, ["resume"])
        reason = None
        if args.problem != "bgpc":
            reason = "--delta supports only --problem bgpc"
        elif args.algorithm == SEQUENTIAL:
            reason = ("--delta needs a speculative schedule to resume "
                      "(e.g. --algo V-V), not sequential")
        elif args.ordering != "natural":
            reason = ("--delta requires --ordering natural (a permuted "
                      "coloring cannot be resumed in place)")
        elif missing is not None:
            reason = f"--delta: {missing}"
        if reason is not None:
            print(f"error: {reason}", file=sys.stderr)
            return 2
        try:
            delta = _load_delta(args.delta)
        except (OSError, TypeError, ValueError, ReproError) as exc:
            print(f"error: cannot read delta {args.delta}: {exc}",
                  file=sys.stderr)
            return 2

    try:
        bg = read_matrix_market(args.matrix)
    except (OSError, UnicodeDecodeError, ReproError) as exc:
        print(f"error: cannot read {args.matrix}: {exc}", file=sys.stderr)
        return 2
    policy = None if args.policy == "U" else get_policy(args.policy)

    tracer = None
    try:
        if args.trace:
            from repro.obs import JsonlTracer

            try:
                tracer = JsonlTracer(args.trace)
            except OSError as exc:
                print(f"error: cannot write trace {args.trace}: {exc}",
                      file=sys.stderr)
                return 2
        return _run(args, bg, policy, tracer, delta)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # e.g. an unwritable --output path; one line, exit 2, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.close()


def _run(args, bg, policy, tracer=None, delta=None) -> int:
    threads = args.threads
    backend_options = {}
    if args.backend == "sharded":
        if args.shards is not None:
            threads = args.shards
        backend_options["partitioner"] = args.partitioner or "bfs"
    if args.problem == "bgpc":
        instance = bg
        order = (
            None
            if args.ordering == "natural"
            else get_ordering(args.ordering)(instance)
        )
        result = color_bgpc(
            instance,
            algorithm=args.algorithm,
            threads=threads,
            policy=policy,
            order=order,
            backend=args.backend,
            fastpath_mode=args.fastpath_mode,
            tracer=tracer,
            **backend_options,
        )
        validate_bgpc(instance, result.colors)
        lower = instance.color_lower_bound()
        sizes = f"{instance.num_nets} nets x {instance.num_vertices} vertices"
    else:
        instance = bipartite_to_graph(bg)
        order = (
            None
            if args.ordering == "natural"
            else get_ordering(args.ordering)(instance)
        )
        result = color_d2gc(
            instance,
            algorithm=args.algorithm,
            threads=threads,
            policy=policy,
            order=order,
            backend=args.backend,
            fastpath_mode=args.fastpath_mode,
            tracer=tracer,
            **backend_options,
        )
        validate_d2gc(instance, result.colors)
        lower = instance.color_lower_bound()
        sizes = f"{instance.num_vertices} vertices, {instance.num_edges} edges"

    stats = color_stats(result.colors)
    # A balancing suffix in the schedule spec ("N1-N2-B1") resolves a policy
    # inside the driver; reflect it instead of the --policy default.
    policy_label = args.policy
    if policy_label == "U" and result.algorithm.endswith(("-B1", "-B2")):
        policy_label = result.algorithm.rsplit("-", 1)[1]
    print(f"instance : {args.matrix} ({sizes})")
    clause = _BACKEND_CLAUSES.get(result.backend, _BACKEND_CLAUSES["sim"]).format(
        threads=result.threads,
        mode=args.fastpath_mode,
        partitioner=args.partitioner or "bfs",
    )
    print(f"problem  : {args.problem}, algorithm {result.algorithm}, {clause}, "
          f"ordering {args.ordering}, policy {policy_label}")
    print(f"colors   : {result.num_colors} (lower bound {lower})")
    print(f"rounds   : {result.num_iterations}, conflicts {result.total_conflicts}")
    if result.backend == "sim":
        print(f"cycles   : {result.cycles:.0f} (simulated)")
    else:
        print(f"wall     : {result.wall_seconds * 1000:.1f} ms (measured)")
    print(f"classes  : min {stats.min} / mean {stats.mean:.1f} / max {stats.max}, "
          f"std {stats.std:.2f}")
    if result.backend == "sharded":
        wm = result.work_metrics
        print(f"shards   : interior {wm['shard.interior']} / boundary "
              f"{wm['shard.boundary']}, {wm['shard.supersteps']} supersteps, "
              f"{wm['shard.comm_words']} words / {wm['shard.comm_messages']} "
              f"messages exchanged")
    inc = None
    if delta is not None:
        from repro.core.incremental import recolor_incremental

        inc = recolor_incremental(
            instance,
            result.colors,
            delta,
            algorithm=args.algorithm,
            threads=args.threads,
            backend=args.backend,
            policy=policy,
            tracer=tracer,
            validate=False,  # the base run was validated just above
        )
        print(f"delta    : {args.delta} (+{inc.num_insertions} insert / "
              f"-{inc.num_deletions} delete), frontier {inc.frontier_size} "
              f"of {inc.graph.num_vertices} vertices")
        print(f"recolor  : {inc.num_colors} colors on the mutated graph "
              f"({inc.result.num_iterations} rounds, incremental)")
        base_work = (result.work_metrics.get("probes", 0)
                     + result.work_metrics.get("conflict_checks", 0))
        inc_work = (inc.work_metrics.get("probes", 0)
                    + inc.work_metrics.get("conflict_checks", 0))
        if inc_work:
            print(f"saved    : {inc_work} vs {base_work} probes+checks "
                  f"({base_work / inc_work:.1f}x less work than the "
                  f"base run)")
        else:
            print(f"saved    : 0 vs {base_work} probes+checks (frontier "
                  f"empty — zero-work fast path)")
    if args.work_metrics:
        from repro.obs import WORK_METRICS

        parts = ", ".join(
            f"{m} {result.work_metrics.get(m, 0)}" for m in WORK_METRICS
        )
        print(f"work     : {parts}")
    if args.profile:
        from repro.obs import profile_table

        print()
        print(profile_table(result))
    if args.trace:
        print(f"trace written to {args.trace}")
    if args.output:
        out_colors = result.colors if inc is None else inc.colors
        with open(args.output, "w", encoding="ascii") as fh:
            fh.writelines(f"{c}\n" for c in out_colors)
        print(f"colors written to {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
