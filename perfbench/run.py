"""The repository benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fastpath --seed 1 --seconds 12 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``fastpath``  numpy engine, exact and speculative, single-process closed loop
``sim``       simulated 16-thread machine on the paper schedules
``service``   ``python -m repro.serve`` driven by a closed loop over
              ``nproc``-bounded connections (hits, misses, delta chains)
``parallel``  real worker processes: ``process`` and ``sharded`` at 2 workers

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats the
untraced loop, then replays the same seeded inputs with tracers attached
and prints the per-layer metrics, including the tracing overhead.  Every
coloring is validated outside the timed region; the last line of stdout is
one JSON object and the exit code is nonzero when any op failed.

The library is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=("fastpath", "sim", "service", "parallel"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-invalid", action="store_true",
        help="corrupt the first coloring received (self-test of the "
        "correctness check: the run must fail)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    from perfbench import harness

    harness.adopt_orphans()
    try:
        host = harness.host_record(args.workload, args.seed, bool(args.trace))
        if args.workload == "service":
            from perfbench import service_load as workload
        else:
            from perfbench import offline as workload
        metrics, table, tally = workload.run(
            args.workload, args.seed, args.seconds, bool(args.trace), ROOT, env,
            inject_invalid=args.inject_invalid,
        )
        return harness.report(metrics, table, tally, host, bool(args.trace))
    finally:
        harness.reap_children()


if __name__ == "__main__":
    sys.exit(main())
