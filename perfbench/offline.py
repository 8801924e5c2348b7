"""The single-client workloads: ``fastpath``, ``sim`` and ``parallel``.

Each is a closed loop over a fixed list of cases (one public coloring call
each), repeated in whole rounds until the run time is spent, so every case
contributes the same number of samples.  Colorings are kept and validated
after the loop, outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from perfbench import harness, instances
from perfbench.instances import Instance

import repro
from repro.dist.partition import get_partitioner
from repro.obs import RecordingTracer

SIM_SCHEDULES = ("V-V-64D", "N1-N2", "N2-N2-B1")
SIM_THREADS = 16
PARALLEL_THREADS = 2

#: What a fresh interpreter runs before it is ready for the workload's
#: first op: import the library, then one warm-up call per engine the
#: workload drives (pool spawn included for the process tiers).
COLD_START = {
    "fastpath": "repro.color_bgpc(bg, backend='numpy')\n"
                "repro.color_bgpc(bg, backend='numpy', fastpath_mode='speculative')",
    "sim": "repro.color_bgpc(bg, threads=16)",
    "parallel": "repro.color_bgpc(bg, backend='process', threads=2)\n"
                "repro.color_bgpc(bg, backend='sharded', threads=2)",
}
COLD_START_PRELUDE = (
    "import repro\n"
    "from repro.datasets.synthetic import channel_mesh\n"
    "bg = channel_mesh(8, 8, 8)\n"
)
SETUP_REPEATS = 5


@dataclass
class Case:
    name: str
    inst: Instance
    layer: str  # "fastpath", "sim", "process" or "sharded"
    call: Callable  # tracer -> ColoringResult


def build_cases(workload: str, seed: int) -> list[Case]:
    cases: list[Case] = []
    if workload == "fastpath":
        for inst in instances.fastpath_instances(seed):
            color = repro.color_d2gc if inst.problem == "d2gc" else repro.color_bgpc
            for mode in ("exact", "speculative"):
                cases.append(Case(
                    f"{inst.name}/{mode}", inst, "fastpath",
                    lambda tr, g=inst.graph, c=color, m=mode:
                        c(g, backend="numpy", fastpath_mode=m, tracer=tr),
                ))
    elif workload == "sim":
        for inst in instances.sim_instances(seed):
            if inst.problem == "d2gc":
                cases.append(Case(
                    f"{inst.name}/N1-N2", inst, "sim",
                    lambda tr, g=inst.graph: repro.color_d2gc(
                        g, algorithm="N1-N2", threads=SIM_THREADS, tracer=tr),
                ))
                continue
            for algo in SIM_SCHEDULES:
                cases.append(Case(
                    f"{inst.name}/{algo}", inst, "sim",
                    lambda tr, g=inst.graph, a=algo: repro.color_bgpc(
                        g, algorithm=a, threads=SIM_THREADS, tracer=tr),
                ))
    elif workload == "parallel":
        for inst in instances.parallel_instances(seed):
            backend = "process" if inst.name == "copapers" else "sharded"
            cases.append(Case(
                f"{inst.name}/{backend}", inst, backend,
                lambda tr, g=inst.graph, b=backend: repro.color_bgpc(
                    g, backend=b, threads=PARALLEL_THREADS, tracer=tr),
            ))
    else:
        raise ValueError(f"not an offline workload: {workload}")
    return cases


def compute_references(cases: list[Case]) -> list[float]:
    """Sequential-greedy colors and cycles of every distinct instance;
    returns the wall seconds of each reference call."""
    seconds = []
    seen = set()
    for case in cases:
        inst = case.inst
        if id(inst) in seen:
            continue
        seen.add(id(inst))
        sequential = (repro.sequential_d2gc if inst.problem == "d2gc"
                      else repro.sequential_bgpc)
        t0 = time.perf_counter()
        ref = sequential(inst.graph)
        seconds.append(time.perf_counter() - t0)
        inst.ref_colors = ref.num_colors
        inst.ref_cycles = ref.cycles
    return seconds


def measure_setup(workload: str, root, env) -> float:
    """Median seconds of import plus warm-up calls in fresh interpreters."""
    code = COLD_START_PRELUDE + COLD_START[workload]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return harness.median(times)


class LayerStats:
    """Per-op layer figures of a traced loop, averaged per op at the end."""

    def __init__(self) -> None:
        self.values: dict[str, list[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(float(value))

    def means(self) -> dict[str, float]:
        return {k: sum(v) / len(v) for k, v in self.values.items()}

    def observe(self, case: Case, result, tracer: RecordingTracer,
                wall: float) -> None:
        n = result.colors.size
        work = result.work_metrics
        for metric in ("tasks", "probes", "scans", "conflict_checks",
                       "queue_pushes", "color_writes"):
            if metric in work:
                self.add(f"work.{metric}", work[metric])
        if case.layer == "fastpath":
            self._fastpath(case, result, tracer, n)
        elif case.layer == "sim":
            self._sim(result, tracer, wall, n)
        else:
            self._parallel(case, result, tracer, wall)

    def _fastpath(self, case, result, tracer, n):
        work = result.work_metrics
        mode = "exact" if case.name.endswith("/exact") else "spec"
        self.add("fastpath.setup_ms", 1000 * tracer.total("setup"))
        rounds = tracer.spans("round")
        self.add(f"fastpath.{mode}.rounds", len(rounds))
        total = sum(e.value for e in rounds)
        if rounds:
            self.add(f"fastpath.{mode}.round_ms", 1000 * total / len(rounds))
        if total > 0:
            first2 = sum(e.value for e in rounds if e.attrs.get("iteration", 0) < 2)
            self.add("fastpath.first2_share", first2 / total)
        for metric in ("fastpath.mask_or_words", "fastpath.palette_words"):
            if metric in work:
                self.add(metric, work[metric])
        if work.get("color_writes"):
            self.add("fastpath.useful_ratio", n / work["color_writes"])

    def _sim(self, result, tracer, wall, n):
        cycles = result.cycles
        self.add("machine.cycles", cycles)
        self.add("sim.wall_ms_per_mcycle", 1000 * wall / (cycles / 1e6))
        phases = tracer.spans("phase")
        self.add("sim.color_phase_ms", 1000 * sum(
            e.value for e in phases if e.attrs.get("phase") == "color"))
        self.add("sim.remove_phase_ms", 1000 * sum(
            e.value for e in phases if e.attrs.get("phase") == "remove"))
        first2 = sum(
            (r.color_timing.cycles if r.color_timing else 0.0)
            + (r.remove_timing.cycles if r.remove_timing else 0.0)
            for r in result.iterations if r.index < 2
        )
        self.add("sim.iter01_cycle_share", first2 / cycles)
        writes = result.work_metrics.get("color_writes")
        if writes:
            self.add("sim.useful_ratio", n / writes)

    def _parallel(self, case, result, tracer, wall):
        work = result.work_metrics
        run = tracer.total("run")
        outside = wall - run
        if case.layer == "process":
            self.add("process.run_ms", 1000 * run)
            self.add("process.iterations", result.num_iterations)
            per_worker: dict = {}
            for e in tracer.counters("process.worker_tasks"):
                if e.attrs.get("inline"):
                    continue  # phases run in the parent, not a pool worker
                per_worker[e.attrs["worker"]] = (
                    per_worker.get(e.attrs["worker"], 0.0) + e.value)
            if per_worker:
                mean = sum(per_worker.values()) / len(per_worker)
                self.add("process.worker_imbalance",
                         max(per_worker.values()) / mean)
        else:
            # The partitioner runs before the pool is spawned, outside the
            # run span; time that public call on its own to split it out.
            with tracer.span("partition"):
                get_partitioner("bfs")(case.inst.graph, PARALLEL_THREADS, seed=0)
            partition = tracer.total("partition")
            self.add("partition.ms", 1000 * partition)
            outside -= partition
            interior = sum(e.value for e in tracer.spans("phase")
                           if e.attrs.get("kind") == "interior")
            self.add("sharded.interior_ms", 1000 * interior)
            self.add("sharded.boundary_ms", 1000 * (run - interior))
            for key, name in (("shard.supersteps", "sharded.supersteps"),
                              ("shard.comm_words", "shard.comm_words"),
                              ("shard.comm_messages", "shard.comm_messages")):
                self.add(name, work[key])
        self.add("procworker.pool_setup_s", outside)


#: Calibration samples per round of the closed loop (spread over its ops).
CAL_PER_ROUND = 10


@dataclass
class LoopResult:
    raw: dict  # case name -> op seconds as measured
    scaled: dict  # case name -> op seconds at reference host speed
    outputs: list  # (case, colors, num_colors, cycles)
    layers: LayerStats

    def ops_per_s(self, scaled: bool = True) -> float:
        """Cases over the sum of their median op times: the rate of the mix."""
        times = self.scaled if scaled else self.raw
        per_case = [harness.median(t) for t in times.values() if t]
        return len(per_case) / sum(per_case)

    def latency_ms_p50(self, scaled: bool = True) -> float:
        times = self.scaled if scaled else self.raw
        return 1000 * harness.median([t for ts in times.values() for t in ts])


def closed_loop(cases: list[Case], seconds: float, tally: harness.Tally,
                traced: bool, calibrate=harness.calibrate,
                inject_invalid: bool = False) -> LoopResult:
    """Run whole rounds over ``cases`` until ``seconds`` have passed.

    Calibration samples taken between the ops of a round give that round's
    host-speed factor; each op time is also kept scaled by it.
    """
    raw = {c.name: [] for c in cases}
    scaled = {c.name: [] for c in cases}
    outputs = []
    layers = LayerStats()
    per_op = -(-CAL_PER_ROUND // len(cases))
    deadline = time.perf_counter() + seconds
    while True:
        cal = []
        walls = []
        for case in cases:
            cal.extend(calibrate() for _ in range(per_op))
            tracer = RecordingTracer() if traced else None
            span = (tracer.span("op", case=case.name) if traced
                    else contextlib.nullcontext())
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                with span:
                    result = case.call(tracer)
            except Exception as exc:  # a failed op is counted, the run goes on
                tally.fail(f"{case.name}: {type(exc).__name__}: {exc}")
                continue
            wall = time.perf_counter() - t0
            walls.append((case.name, wall))
            colors = result.colors
            if inject_invalid and not outputs:
                colors = np.zeros_like(colors)
            outputs.append((case, colors, result.num_colors, result.cycles))
            if traced:
                layers.observe(case, result, tracer, wall)
        factor = harness.speed_factor(cal)
        for name, wall in walls:
            raw[name].append(wall)
            scaled[name].append(wall * factor)
        if time.perf_counter() >= deadline:
            break
    return LoopResult(raw, scaled, outputs, layers)


def validate_outputs(outputs, tally: harness.Tally) -> list[float]:
    """Validate every coloring (identical arrays of one case once); returns
    the wall seconds of each validation call."""
    seen = set()
    seconds = []
    for case, colors, _, _ in outputs:
        key = (case.name, hashlib.sha1(np.ascontiguousarray(colors).tobytes()).digest())
        if key in seen:
            continue
        seen.add(key)
        validate = (repro.validate_d2gc if case.inst.problem == "d2gc"
                    else repro.validate_bgpc)
        t0 = time.perf_counter()
        try:
            validate(case.inst.graph, colors)
        except Exception as exc:  # any rejection of the output is a failure
            # Count every op that returned this invalid coloring.
            bad = sum(1 for c, col, _, _ in outputs
                      if c is case and np.array_equal(col, colors))
            for _ in range(bad):
                tally.fail(f"{case.name}: invalid coloring: {exc}")
        seconds.append(time.perf_counter() - t0)
    return seconds


def run(workload: str, seed: int, seconds: float, trace: bool, root, env,
        inject_invalid: bool = False):
    """Run one offline workload; returns ``(metrics, table, tally)``."""
    tally = harness.Tally()
    # Set-up runs first: a child's peak RSS includes the parent's at spawn.
    setup_s = None if trace else measure_setup(workload, root, env)
    with contextlib.ExitStack() as stack:
        calibrate = harness.calibrate
        if workload == "parallel":
            # The process tiers keep two cores busy, so their host-speed
            # samples are taken on two cores as well.
            calibrate = stack.enter_context(contextlib.closing(
                harness.WideCalibration(PARALLEL_THREADS)))
        cases = build_cases(workload, seed)
        ref_seconds = compute_references(cases)
        loop = closed_loop(cases, seconds, tally, traced=False,
                           calibrate=calibrate, inject_invalid=inject_invalid)
        traced = (closed_loop(cases, max(1.0, seconds / 2), tally, traced=True,
                              calibrate=calibrate) if trace else None)

    validate_seconds = validate_outputs(loop.outputs, tally)
    ratios = [n / case.inst.ref_colors for case, _, n, _ in loop.outputs]
    end_to_end = {
        "ops_per_s": loop.ops_per_s(),
        "latency_ms_p50": loop.latency_ms_p50(),
        "color_ratio": harness.geomean(ratios),
    }
    table = {
        "ops_per_s.raw": (loop.ops_per_s(scaled=False), "1/s"),
        "latency_ms_p50.raw": (loop.latency_ms_p50(scaled=False), "ms"),
    }
    figures = {"error_rate": tally.error_rate}
    if workload == "sim":
        figures["sim_speedup"] = harness.geomean(
            case.inst.ref_cycles / cycles for case, _, _, cycles in loop.outputs)
    if not trace:
        end_to_end["setup_s"] = setup_s
        end_to_end["peak_rss_mb"] = harness.peak_rss_mb()
        return end_to_end, {**table, **harness.with_units(figures)}, tally

    validate_seconds += validate_outputs(traced.outputs, tally)
    metrics = {name: 0.0 for name in harness.PER_LAYER}
    metrics.update(traced.layers.means())
    metrics.update(figures)
    metrics.update({
        "error_rate": tally.error_rate,
        "sequential.ms": 1000 * sum(ref_seconds) / len(ref_seconds),
        "validate.ms": 1000 * sum(validate_seconds) / len(validate_seconds),
        "obs.trace_overhead": 1 - traced.ops_per_s() / end_to_end["ops_per_s"],
    })
    return metrics, {**table, **harness.with_units(end_to_end)}, tally
