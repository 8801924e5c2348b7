"""Shared plumbing: the metric table, timing statistics, host record and
the report every workload ends with.

The metric table here is the single source of the names, units and
directions; ``BENCHMARK.json`` at the repository root must agree with it
(the self-tests check that).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import re
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field

WORKLOADS = ("fastpath", "sim", "service", "parallel")

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Printed by every untraced run on every workload (name -> unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "latency_ms_p50": ("ms", "lower"),
    "color_ratio": ("x", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: Printed by every traced run.  A layer a workload does not exercise
#: reads 0.  The first block is the service- and sim-only end-to-end
#: figures: every untraced run prints them in its table, and the traced
#: run carries them so they are recorded per workload.
PER_LAYER = {
    "latency_ms_p95": ("ms", "lower"),
    "hit_ms_p50": ("ms", "lower"),
    "miss_ms_p50": ("ms", "lower"),
    "delta_ms_p50": ("ms", "lower"),
    "sim_speedup": ("x", "higher"),
    "error_rate": ("ratio", "lower"),
    "protocol.request_encode_ms": ("ms", "lower"),
    "protocol.request_decode_ms": ("ms", "lower"),
    "protocol.response_encode_ms": ("ms", "lower"),
    "protocol.response_decode_ms": ("ms", "lower"),
    "protocol.request_bytes": ("B", "lower"),
    "fingerprint.ms": ("ms", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "service.coalesced_ratio": ("ratio", "higher"),
    "service.batch_mean": ("count", "higher"),
    "service.other_ms": ("ms", "lower"),
    "fastpath.setup_ms": ("ms", "lower"),
    "fastpath.exact.rounds": ("count", "lower"),
    "fastpath.spec.rounds": ("count", "lower"),
    "fastpath.exact.round_ms": ("ms", "lower"),
    "fastpath.spec.round_ms": ("ms", "lower"),
    "fastpath.mask_or_words": ("count", "lower"),
    "fastpath.palette_words": ("count", "lower"),
    "fastpath.useful_ratio": ("ratio", "higher"),
    "fastpath.first2_share": ("ratio", "lower"),
    "machine.cycles": ("count", "lower"),
    "sim.wall_ms_per_mcycle": ("ms/Mcycle", "lower"),
    "sim.color_phase_ms": ("ms", "lower"),
    "sim.remove_phase_ms": ("ms", "lower"),
    "sim.iter01_cycle_share": ("ratio", "lower"),
    "sim.useful_ratio": ("ratio", "higher"),
    "work.tasks": ("count", "lower"),
    "work.probes": ("count", "lower"),
    "work.scans": ("count", "lower"),
    "work.conflict_checks": ("count", "lower"),
    "work.queue_pushes": ("count", "lower"),
    "work.color_writes": ("count", "lower"),
    "sequential.ms": ("ms", "lower"),
    "incremental.ms": ("ms", "lower"),
    "incremental.frontier_mean": ("count", "lower"),
    "incremental.work_ratio": ("ratio", "lower"),
    "procworker.pool_setup_s": ("s", "lower"),
    "process.run_ms": ("ms", "lower"),
    "process.iterations": ("count", "lower"),
    "process.worker_imbalance": ("ratio", "lower"),
    "sharded.interior_ms": ("ms", "lower"),
    "sharded.boundary_ms": ("ms", "lower"),
    "sharded.supersteps": ("count", "lower"),
    "shard.comm_words": ("count", "lower"),
    "shard.comm_messages": ("count", "lower"),
    "partition.ms": ("ms", "lower"),
    "validate.ms": ("ms", "lower"),
    "obs.trace_overhead": ("ratio", "lower"),
}


#: Seconds :func:`calibrate` takes on the reference host (2-core x86_64
#: VM, Python 3.11, numpy 2.4).  Timed end-to-end figures are scaled by
#: ``CAL_REF_S / measured`` so that they read as on that host.
CAL_REF_S = 0.008


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreted loop and numpy work.

    Shared virtual hosts change speed by tens of percent within a minute.
    Timing this kernel next to the program's own work and dividing it out
    cancels most of that drift, which otherwise swamps the effect of a
    typical code change.
    """
    import numpy as np

    t0 = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    a = np.random.default_rng(0).random(60_000)
    a.sort()
    np.cumsum(a)
    return time.perf_counter() - t0


class WideCalibration:
    """:func:`calibrate` in ``width`` worker processes at once, for work
    that itself keeps ``width`` cores busy; a sample is the slowest one."""

    def __init__(self, width: int) -> None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        self.width = width
        self.pool = ProcessPoolExecutor(
            width, mp_context=multiprocessing.get_context("spawn"))

    def __call__(self) -> float:
        futures = [self.pool.submit(calibrate) for _ in range(self.width)]
        return max(f.result() for f in futures)

    def close(self) -> None:
        self.pool.shutdown(wait=True)


def speed_factor(samples) -> float:
    """Host-speed correction: reference over measured calibration time."""
    return CAL_REF_S / median(samples)


class InsufficientSamples(ValueError):
    """A tail percentile was asked of too few samples."""


def tail_percentile(samples, q: float) -> float:
    """The nearest-rank ``q``-th percentile, only with >= 10 samples beyond it.

    A tail figure resting on fewer than ten samples above it is one or two
    outliers, so asking for it raises :class:`InsufficientSamples`.
    """
    n = len(samples)
    rank = math.ceil(q / 100.0 * n)
    if n - rank < 10:
        raise InsufficientSamples(
            f"p{q:g} needs at least 10 samples beyond it; {n} samples give "
            f"{max(0, n - rank)}"
        )
    return sorted(samples)[rank - 1]


def samples_for(q: float) -> int:
    """Smallest sample count for which :func:`tail_percentile` accepts ``q``."""
    n = 1
    while n - math.ceil(q / 100.0 * n) < 10:
        n += 1
    return n


def median(samples) -> float:
    return statistics.median(samples)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of every descendant orphaned below it.

    A child interpreter that exits leaves its own helpers (multiprocessing's
    resource tracker, notably) running for a moment; as a subreaper this
    process inherits them instead of init, so :func:`reap_children` can wait
    for them.  Linux only; elsewhere a no-op.
    """
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux
        pass


def _live_children() -> list[int]:
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def reap_children(grace: float = 10.0) -> None:
    """Stop this process's resource tracker, then wait for every child
    (adopted orphans included) to end; after ``grace`` seconds the ones
    still running are killed and waited for."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()  # closes its pipe, waits
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in _live_children():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)
        time.sleep(0.01)


def host_record(workload: str, seed: int, trace: bool) -> dict:
    import importlib.util

    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def check_load(n: int, what: str) -> None:
    """Refuse a load generator wider than the host."""
    if n > nproc():
        raise RuntimeError(f"{what}: {n} exceeds nproc={nproc()}")


@dataclass
class Tally:
    """Ops attempted and failed; a failure is an error, a refusal or an
    invalid coloring."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def report(metrics: dict, table: dict, tally: Tally, host: dict,
           trace: bool) -> int:
    """Print the human table, the host line and the final JSON line.

    ``metrics`` holds the figures the JSON line carries (every end-to-end
    metric, or every per-layer one with ``trace``); ``table`` maps further
    names to ``(value, unit)`` shown to the reader only.  Returns the exit
    code: nonzero when any op failed.
    """
    catalogue = PER_LAYER if trace else END_TO_END
    missing = set(catalogue) - set(metrics)
    if missing:
        raise RuntimeError(f"workload left metrics unset: {sorted(missing)}")
    print(f"host {json.dumps(host, sort_keys=True)}")
    rows = {**table, **{k: (metrics[k], catalogue[k][0]) for k in catalogue}}
    for name, (value, unit) in rows.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    print(f"  attempted {tally.attempted}, failed {tally.failed}")
    line = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": catalogue[name][0]}
            for name in catalogue
        },
    }
    sys.stdout.flush()
    print(json.dumps(line), flush=True)
    return 0 if tally.failed == 0 else 1


def with_units(figures: dict) -> dict:
    """``{name: value}`` to ``{name: (value, unit)}`` from the metric table."""
    units = {**END_TO_END, **PER_LAYER}
    return {k: (v, units[k][0]) for k, v in figures.items()}
