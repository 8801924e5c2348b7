"""The ``service`` workload: ``python -m repro.serve`` under a closed loop.

One client process opens ``min(2, nproc)`` connections, one thread each;
a connection sends its next request when the previous reply is in.  Every
block of ten requests holds four hits (repeats of four hot graphs, primed
in set-up), four misses (a fresh seeded relabelling of one of three
bases: a new fingerprint, under 50k edges, so the router picks numpy) and
two deltas (three edge insertions chained off the fingerprint the
previous reply returned; the chains' bases are colored on ``sim`` with
``V-V`` in set-up, as a delta resolves only against a base cached under
the same configuration).  Latency is timed around the ``ServiceClient``
call, so client-side encode and decode count.  The loop runs in segments
with the server idle in between, where the host speed is calibrated; the
rate is the median over segments.  Replies are validated after the loop.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import harness, instances

import repro
from repro.errors import ReproError
from repro.graph.delta import GraphDelta, apply_delta
from repro.obs import RecordingTracer
from repro.obs.tracer import read_jsonl_trace
from repro.service.client import ServiceClient
from repro.service.fingerprint import graph_fingerprint
from repro.service.protocol import (
    delta_from_wire,
    encode,
    graph_from_wire,
    graph_to_wire,
    parse_request,
)

CONNECTIONS = 2
#: Request kinds per block.  Hits stay just under half so that the median
#: latency falls inside the miss cluster, not in the gap between clusters.
BLOCK = ("hit",) * 4 + ("miss",) * 4 + ("delta",) * 2
HOT_MODES = ("exact", "speculative", "exact", "speculative")
FRESH_MODES = ("speculative", "exact", "exact")
DELTA_EDGES = 3
DELTA_ALGORITHM = "V-V"
MIN_SAMPLES = harness.samples_for(95)
SETUP_REPEATS = 3
#: Measuring segments per loop; the server idles between them while the
#: host speed is calibrated.
SEGMENTS = 6
#: Requests of each kind replayed in-process by the traced run.
REPLAY_PER_KIND = 30
#: Replay span name -> per-layer metric (mean per request; incremental
#: over delta requests only).
SPAN_METRICS = {
    "protocol.request_encode": "protocol.request_encode_ms",
    "protocol.request_decode": "protocol.request_decode_ms",
    "protocol.response_encode": "protocol.response_encode_ms",
    "protocol.response_decode": "protocol.response_decode_ms",
    "fingerprint": "fingerprint.ms",
    "incremental": "incremental.ms",
}


@dataclass
class Sent:
    """One request and what came back."""

    kind: str  # intended: hit, miss or delta
    conn: int
    latency: float
    ok: bool
    scaled: float = 0.0  # latency at reference host speed
    broken: bool = False  # the connection failed, not just the request
    error: str = ""
    inst: int = 0  # hot/fresh base index, or chain index for deltas
    perm: np.ndarray | None = None  # relabelling of a miss
    insert: list = field(default_factory=list)
    colors: np.ndarray | None = None
    num_colors: int = 0
    cached: bool = False
    frontier: int = 0
    work: dict = field(default_factory=dict)


class Server:
    """One ``python -m repro.serve --port 0`` child process."""

    def __init__(self, root, env, trace_path=None):
        cmd = [sys.executable, "-m", "repro.serve", "--port", "0"]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        self.proc = subprocess.Popen(cmd, cwd=root, env=env,
                                     stdout=subprocess.PIPE, text=True)
        banner = self.proc.stdout.readline()
        if not banner.startswith("serving on "):
            self.close()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.port = int(banner.rsplit(":", 1)[1])

    def client(self) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, timeout=60.0)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                with self.client() as c:
                    c.shutdown()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired, ReproError):
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()


@dataclass
class Chain:
    """A delta chain: the client's copy of the graph and the fingerprint
    the server last returned for it."""

    base: object
    base_work: dict
    graph: object = None
    fingerprint: str = ""
    colors: np.ndarray | None = None


def start(graphs, root, env, trace_path=None):
    """Start a server and bring it to the first timed op: first ping, hot
    graphs primed, delta bases colored.  Returns (server, chains, seconds)."""
    t0 = time.perf_counter()
    server = Server(root, env, trace_path)
    try:
        with server.client() as c:
            c.ping()
            for inst, mode in zip(graphs["hot"], HOT_MODES):
                _check(c.color(inst.graph, fastpath_mode=mode))
            chains = []
            for inst in graphs["delta"]:
                r = _check(c.color(inst.graph, backend="sim",
                                   algorithm=DELTA_ALGORITHM))
                chains.append(Chain(inst.graph, r["work_metrics"], inst.graph,
                                    r["fingerprint"], np.asarray(r["colors"])))
    except BaseException:
        server.close()
        raise
    return server, chains, time.perf_counter() - t0


def _check(reply: dict) -> dict:
    if not reply.get("ok"):
        raise RuntimeError(f"set-up request refused: {reply.get('error')}")
    return reply


class Connection:
    """One connection's seeded request stream.

    Kinds, hot graphs and fresh bases are each drawn from shuffled blocks,
    so every run sends the same mix; the stream carries on across the
    measuring segments of a run.
    """

    def __init__(self, conn, conns, graphs, chains, rng):
        self.graphs = graphs
        self.chains = chains
        self.rng = rng
        self.conn = conn
        self.mine = [i for i in range(len(chains)) if i % conns == conn]
        self.blocks = {"kind": [], "hot": [], "fresh": []}
        self.turn = 0

    def _draw(self, name, population):
        block = self.blocks[name]
        if not block:
            block.extend(self.rng.permutation(list(population)).tolist())
        return block.pop()

    def send(self, client) -> Sent:
        """Build the next request (untimed), send it and time the call."""
        kind = self._draw("kind", BLOCK)
        if kind == "delta" and not self.mine:
            kind = "hit"
        sent = Sent(kind, self.conn, 0.0, False)
        if kind == "hit":
            sent.inst = self._draw("hot", range(len(self.graphs["hot"])))
            graph = self.graphs["hot"][sent.inst].graph
            options = {"fastpath_mode": HOT_MODES[sent.inst]}
        elif kind == "miss":
            sent.inst = self._draw("fresh", range(len(self.graphs["fresh"])))
            base = self.graphs["fresh"][sent.inst].graph
            sent.perm = self.rng.permutation(base.num_vertices)
            graph = base.permute_vertices(sent.perm)
            options = {"fastpath_mode": FRESH_MODES[sent.inst]}
        else:
            sent.inst = self.mine[self.turn % len(self.mine)]
            self.turn += 1
            chain = self.chains[sent.inst]
            sent.insert = instances.random_insertions(
                chain.graph, DELTA_EDGES, self.rng)
        try:
            t0 = time.perf_counter()
            if kind == "delta":
                reply = client.delta(chain.fingerprint, insert=sent.insert,
                                     algorithm=DELTA_ALGORITHM)
            else:
                reply = client.color(graph, **options)
            sent.latency = time.perf_counter() - t0
        except (OSError, ValueError, ReproError) as exc:
            sent.error = f"{type(exc).__name__}: {exc}"
            sent.broken = True
            return sent
        sent.ok = bool(reply.get("ok"))
        if not sent.ok:
            sent.error = reply.get("error", "")
            return sent
        sent.colors = np.asarray(reply["colors"], dtype=np.int64)
        sent.num_colors = reply["num_colors"]
        sent.cached = reply["cached"]
        sent.frontier = reply.get("frontier_size", 0)
        sent.work = reply.get("work_metrics", {})
        if kind == "delta":
            chain.graph = apply_delta(chain.graph, GraphDelta(insert=sent.insert))
            chain.fingerprint = reply["fingerprint"]
        return sent


def _drive(conn: Connection, client, stop, out, lock) -> None:
    while True:
        now = time.perf_counter()
        with lock:
            enough = len(out) >= stop["min_samples"]
        if now >= stop["hard"] or (now >= stop["soft"] and enough):
            return
        sent = conn.send(client)
        with lock:
            out.append(sent)
        if sent.broken:
            return


def closed_loop(server, conns: list, seconds: float,
                min_samples: int = 0) -> tuple[list, float]:
    """Drive every connection until ``seconds`` have passed and at least
    ``min_samples`` replies are in; returns the records and the elapsed
    seconds."""
    out: list[Sent] = []
    lock = threading.Lock()
    t0 = time.perf_counter()
    stop = {"soft": t0 + seconds, "hard": t0 + 4 * seconds + 30,
            "min_samples": min_samples}
    clients = [server.client() for _ in conns]
    try:
        threads = [threading.Thread(target=_drive, args=(c, k, stop, out, lock))
                   for c, k in zip(conns, clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        for c in clients:
            c.close()
    return out, time.perf_counter() - t0


def _calibrate(n: int = 10) -> list[float]:
    """Calibration samples, taken while the server is idle."""
    return [harness.calibrate() for _ in range(n)]


def measure(server, graphs, chains, seconds: float, seed: int, phase: int,
            min_samples: int = 0) -> tuple[list, float, float]:
    """The closed loop in segments with the server idle in between, where
    calibration samples give each segment its host-speed factor.

    Returns the records (``scaled`` set) and the median over segments of
    the completed requests per second, as measured and scaled.
    """
    n = min(CONNECTIONS, harness.nproc())
    harness.check_load(n, "service connections")
    conns = [Connection(i, n, graphs, chains,
                        np.random.default_rng([seed, phase, i]))
             for i in range(n)]
    sent: list[Sent] = []
    raw_rates, scaled_rates = [], []
    cal = _calibrate()
    for segment in range(SEGMENTS):
        floor = min_samples - len(sent) if segment == SEGMENTS - 1 else 0
        out, elapsed = closed_loop(server, conns, seconds / SEGMENTS, floor)
        after = _calibrate()
        factor = harness.speed_factor(cal + after)
        cal = after
        for s in out:
            s.scaled = s.latency * factor
        sent += out
        done = sum(s.ok for s in out)
        raw_rates.append(done / elapsed)
        scaled_rates.append(done / (elapsed * factor))
    return sent, harness.median(raw_rates), harness.median(scaled_rates)


def validate(sent: list, graphs, chain_bases, tally: harness.Tally,
             inject_invalid: bool) -> list[float]:
    """Validate every reply (identical colorings of one graph once); the
    server never validates, so the client must.  Returns call seconds."""
    seconds = []
    seen = set()
    chain_graph = {i: g for i, g in enumerate(chain_bases)}
    order = sorted(range(len(sent)), key=lambda k: (sent[k].kind != "delta", k))
    for k in order:
        s = sent[k]
        tally.attempted += 1
        if not s.ok:
            tally.fail(f"{s.kind}: {s.error}")
            continue
        colors = s.colors
        if inject_invalid and k == 0:
            colors = np.zeros_like(colors)
        if s.kind == "hit":
            graph, key = graphs["hot"][s.inst].graph, ("hot", s.inst)
        elif s.kind == "miss":
            graph = graphs["fresh"][s.inst].graph.permute_vertices(s.perm)
            key = ("miss", k)
        else:
            graph = apply_delta(chain_graph[s.inst], GraphDelta(insert=s.insert))
            chain_graph[s.inst] = graph
            key = ("delta", k)
        key += (hashlib.sha1(colors.tobytes()).digest(),)
        if key in seen:
            continue
        seen.add(key)
        t0 = time.perf_counter()
        try:
            repro.validate_bgpc(graph, colors)
        except Exception as exc:  # any rejection of the output is a failure
            tally.fail(f"{s.kind}: invalid coloring: {exc}")
        seconds.append(time.perf_counter() - t0)
    return seconds


def latency_figures(sent: list, graphs, scaled: bool) -> dict:
    """Latencies of ``sent`` (as measured or scaled) and the color ratio of
    the hot graphs."""
    ok = [s for s in sent if s.ok]

    def ms(pick):
        return [1000 * (s.scaled if scaled else s.latency) for s in ok if pick(s)]

    every = ms(lambda s: True)
    hot = [s.num_colors / graphs["hot"][s.inst].ref_colors
           for s in ok if s.kind == "hit"]
    return {
        "latency_ms_p50": harness.median(every),
        "latency_ms_p95": harness.tail_percentile(every, 95),
        "hit_ms_p50": harness.median(ms(lambda s: s.kind != "delta" and s.cached)),
        "miss_ms_p50": harness.median(
            ms(lambda s: s.kind != "delta" and not s.cached)),
        "delta_ms_p50": harness.median(ms(lambda s: s.kind == "delta")),
        "color_ratio": harness.geomean(hot),
    }


def compute_references(graphs) -> list[float]:
    seconds = []
    for inst in graphs["hot"]:
        t0 = time.perf_counter()
        inst.ref_colors = repro.sequential_bgpc(inst.graph).num_colors
        seconds.append(time.perf_counter() - t0)
    return seconds


def replay(sent: list, graphs, chains_at_start) -> dict:
    """Re-run each request's layers in-process, one span per public call
    (spans of one request share its ``request`` id), and charge the rest
    of the measured round trip to ``service.other_ms``.  Returns the
    per-layer means."""
    spans = RecordingTracer()

    def call(layer, k, fn, *args, **kwargs):
        with spans.span(layer, request=k):
            return fn(*args, **kwargs)

    chain_graph = {i: (c.base, c.colors) for i, c in enumerate(chains_at_start)}
    budget = {"hit": REPLAY_PER_KIND, "miss": REPLAY_PER_KIND,
              "delta": REPLAY_PER_KIND}
    latency = {}
    deltas_first = sorted(range(len(sent)), key=lambda k: sent[k].kind != "delta")
    for k in (k for k in deltas_first if sent[k].ok):
        s = sent[k]
        kind = "delta" if s.kind == "delta" else ("hit" if s.cached else "miss")
        if kind == "delta":
            base, base_colors = chain_graph[s.inst]
            delta = GraphDelta(insert=s.insert)
            if budget[kind] <= 0:
                chain_graph[s.inst] = (apply_delta(base, delta), s.colors)
                continue
            payload = {"op": "delta", "fingerprint": "0" * 64,
                       "delta": {"insert": s.insert, "delete": []},
                       "algorithm": DELTA_ALGORITHM}
            line = call("protocol.request_encode", k, encode, payload)
            request = call("protocol.request_decode", k, parse_request, line)
            call("protocol.request_decode", k, delta_from_wire, request["delta"])
            mutated = call("delta.apply", k, apply_delta, base, delta)
            call("fingerprint", k, graph_fingerprint, mutated)
            call("incremental", k, repro.recolor_incremental, base, base_colors,
                 delta, algorithm=DELTA_ALGORITHM, threads=1, backend="sim",
                 validate=False, mutated=mutated)
            chain_graph[s.inst] = (mutated, s.colors)
        else:
            if budget[kind] <= 0:
                continue
            table = graphs["hot"] if s.kind == "hit" else graphs["fresh"]
            graph = table[s.inst].graph
            if s.perm is not None:
                graph = graph.permute_vertices(s.perm)
            mode = (HOT_MODES if s.kind == "hit" else FRESH_MODES)[s.inst]
            wire = call("protocol.request_encode", k, graph_to_wire, graph)
            line = call("protocol.request_encode", k, encode,
                        {"op": "color", "graph": wire, "fastpath_mode": mode})
            request = call("protocol.request_decode", k, parse_request, line)
            call("protocol.request_decode", k, graph_from_wire, request["graph"])
            call("fingerprint", k, graph_fingerprint, graph)
            if kind == "miss":
                call("fastpath", k, repro.color_bgpc, graph, backend="numpy",
                     fastpath_mode=mode)
        budget[kind] -= 1
        response = {"id": None, "ok": True, "colors": s.colors.tolist(),
                    "num_colors": s.num_colors, "cached": s.cached,
                    "work_metrics": s.work, "fingerprint": "0" * 64}
        reply = call("protocol.response_encode", k, encode, response)
        call("protocol.response_decode", k, json.loads, reply)
        latency[k] = (s.latency, len(line))

    per_request: dict = {}
    for e in spans.spans():
        per_request.setdefault(e.attrs["request"], {}).setdefault(e.name, 0.0)
        per_request[e.attrs["request"]][e.name] += 1000 * e.value
    figures: dict = {}
    for k, layer_ms in per_request.items():
        for span, metric in SPAN_METRICS.items():
            if span in layer_ms or span != "incremental":
                figures.setdefault(metric, []).append(layer_ms.get(span, 0.0))
        seconds, size = latency[k]
        figures.setdefault("protocol.request_bytes", []).append(size)
        figures.setdefault("service.other_ms", []).append(
            1000 * seconds - sum(layer_ms.values()))
    return {name: sum(v) / len(v) for name, v in figures.items()}


def server_counters(trace_path) -> dict:
    hits = misses = requests = coalesced = 0
    batches = []
    for event in read_jsonl_trace(trace_path):
        if event.name == "cache.hit":
            hits += 1
        elif event.name == "cache.miss":
            misses += 1
        elif event.name == "service.request":
            requests += 1
            coalesced += bool(event.attrs.get("coalesced"))
        elif event.name == "service.batch":
            batches.append(event.value)
    return {
        "cache.hit_ratio": hits / max(1, hits + misses),
        "service.coalesced_ratio": coalesced / max(1, requests),
        "service.batch_mean": sum(batches) / len(batches) if batches else 0.0,
    }


def run(workload, seed, seconds, trace, root, env, inject_invalid=False):
    """Run the service workload; returns ``(metrics, table, tally)``."""
    tally = harness.Tally()
    graphs = instances.service_graphs(seed)
    setups = []
    for rep in range(1 if trace else SETUP_REPEATS):
        server, chains, took = start(graphs, root, env)
        setups.append(took)
        if rep < SETUP_REPEATS - 1 and not trace:
            server.close()
    # References after the spawn: a child's peak RSS includes the parent's
    # at spawn time, and the references are what makes the parent grow.
    ref_seconds = compute_references(graphs)
    try:
        sent, raw_rate, rate = measure(
            server, graphs, chains, seconds, seed, 0, MIN_SAMPLES)
    finally:
        server.close()
    chain_bases = [c.base for c in chains]
    validate_seconds = validate(sent, graphs, chain_bases, tally, inject_invalid)
    figures = latency_figures(sent, graphs, scaled=True)
    raw = latency_figures(sent, graphs, scaled=False)
    end_to_end = {
        "ops_per_s": rate,
        "latency_ms_p50": figures["latency_ms_p50"],
        "color_ratio": figures["color_ratio"],
    }
    table = {
        "ops_per_s.raw": (raw_rate, "1/s"),
        "latency_ms_p50.raw": (raw["latency_ms_p50"], "ms"),
        "latency_ms_p95.raw": (raw["latency_ms_p95"], "ms"),
        "requests": (len(sent), "count"),
    }
    service_only = {k: figures[k] for k in
                    ("latency_ms_p95", "hit_ms_p50", "miss_ms_p50", "delta_ms_p50")}
    service_only["error_rate"] = tally.error_rate
    if not trace:
        end_to_end["setup_s"] = harness.median(setups)
        end_to_end["peak_rss_mb"] = harness.peak_rss_mb()
        return end_to_end, {**table, **harness.with_units(service_only)}, tally

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        trace_path = os.path.join(tmp, "serve.jsonl")
        server, chains, _ = start(graphs, root, env, trace_path)
        try:
            traced, _, traced_rate = measure(
                server, graphs, chains, max(1.0, seconds / 2), seed, 1)
        finally:
            server.close()
        counters = server_counters(trace_path)
    validate_seconds += validate(traced, graphs, chain_bases, tally, False)
    layers = replay(traced, graphs, chains)
    deltas = [s for s in traced if s.ok and s.kind == "delta"]
    work_ratio = [
        sum(s.work.values()) / sum(
            v for k, v in chains[s.inst].base_work.items() if k in s.work)
        for s in deltas if s.work
    ]
    metrics = {name: 0.0 for name in harness.PER_LAYER}
    metrics.update(layers)
    metrics.update(service_only)
    metrics.update(counters)
    metrics.update({
        "incremental.frontier_mean": (
            sum(s.frontier for s in deltas) / len(deltas) if deltas else 0.0),
        "incremental.work_ratio": (
            sum(work_ratio) / len(work_ratio) if work_ratio else 0.0),
        "error_rate": tally.error_rate,
        "sequential.ms": 1000 * sum(ref_seconds) / len(ref_seconds),
        "validate.ms": 1000 * sum(validate_seconds) / len(validate_seconds),
        "obs.trace_overhead": 1 - traced_rate / rate,
    })
    return metrics, {**table, **harness.with_units(end_to_end)}, tally
