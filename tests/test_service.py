"""Tests for the coloring service: fingerprints, cache, router, server.

The acceptance bar for the service layer: a repeated request must be
served from cache with zero backend work (and the ``cache.hit`` counter
must be visible in a recorded trace), cached and fresh colorings must be
byte-identical across every registered backend, and concurrent duplicates
must coalesce to a single backend run.
"""

import asyncio
import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.backends import backend_names
from repro.core.compiled import PURE_ENV, numba_available
from repro.core.validate import validate_bgpc
from repro.errors import ServiceError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.build import bipartite_from_edges
from repro.graph.csr import CSR
from repro.obs.tracer import RecordingTracer
from repro.obs.work import WORK_METRICS
from repro.graph.delta import GraphDelta, apply_delta
from repro.service import (
    ColoringCache,
    ColoringRequest,
    ColoringServer,
    ColoringService,
    DeltaRequest,
    ServiceClient,
    SizeRouter,
    graph_fingerprint,
    request_key,
)
from repro.service.protocol import (
    delta_from_wire,
    graph_from_wire,
    graph_to_wire,
    parse_request,
)
from repro.types import ColoringResult

EDGES = [(0, 0), (1, 0), (1, 1), (2, 1), (3, 2), (0, 2), (2, 3), (3, 3)]


@pytest.fixture
def bg():
    return bipartite_from_edges(EDGES)


def _result(tag: int = 0) -> ColoringResult:
    return ColoringResult(
        colors=np.array([0, 1, tag], dtype=np.int64), num_colors=2 + tag
    )


def _run(coro):
    return asyncio.run(coro)


# -- fingerprints -----------------------------------------------------------


class TestFingerprint:
    def test_stable_across_equivalent_constructions(self, bg):
        # Same edge set built from the opposite orientation.
        other = BipartiteGraph.from_net_to_vtxs(bg.vtx_to_nets.transpose())
        assert graph_fingerprint(bg) == graph_fingerprint(other)

    def test_stable_across_row_order(self, bg):
        # Rebuild with each vertex's net list reversed: same content.
        rows = [list(bg.nets(u))[::-1] for u in range(bg.num_vertices)]
        ptr = np.zeros(len(rows) + 1, dtype=np.int64)
        ptr[1:] = np.cumsum([len(r) for r in rows])
        idx = np.array([v for r in rows for v in r], dtype=np.int64)
        shuffled = BipartiteGraph.from_vtx_to_nets(
            CSR(ptr, idx, bg.num_nets)
        )
        assert graph_fingerprint(bg) == graph_fingerprint(shuffled)

    def test_different_graphs_differ(self, bg):
        other = bipartite_from_edges(EDGES[:-1])
        assert graph_fingerprint(bg) != graph_fingerprint(other)

    def test_dimensions_matter(self, bg):
        # Same edges, one extra isolated net: different instance.
        padded = bipartite_from_edges(EDGES, num_nets=bg.num_nets + 1)
        assert graph_fingerprint(bg) != graph_fingerprint(padded)

    def test_request_key_canonicalizes_algorithm(self, bg):
        a = request_key(bg, algorithm="N1-N2")
        b = request_key(bg, algorithm="n1-n2")
        assert a == b

    def test_request_key_separates_configs(self, bg):
        base = request_key(bg, algorithm="N1-N2")
        assert request_key(bg, algorithm="V-V") != base
        assert request_key(bg, algorithm="N1-N2", threads=2) != base
        assert request_key(bg, algorithm="N1-N2", backend="numpy") != base
        assert request_key(bg, algorithm="N1-N2", policy="B1") != base


# -- cache ------------------------------------------------------------------


class TestCache:
    def test_lru_eviction_order(self):
        cache = ColoringCache(capacity=2)
        cache.put("a", _result())
        cache.put("b", _result())
        assert cache.get("a") is not None  # refresh "a": now b is LRU
        cache.put("c", _result())
        assert "b" not in cache
        assert cache.keys() == ["a", "c"]
        assert cache.stats()["evictions"] == 1

    def test_capacity_zero_disables(self):
        cache = ColoringCache(capacity=0)
        cache.put("a", _result())
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ColoringCache(capacity=-1)

    def test_counters_traced(self):
        tracer = RecordingTracer()
        cache = ColoringCache(capacity=1, tracer=tracer)
        cache.get("a")
        cache.put("a", _result())
        cache.get("a")
        cache.put("b", _result())
        names = [e.name for e in tracer.counters()]
        assert names == ["cache.miss", "cache.hit", "cache.eviction"]
        assert tracer.counters("cache.eviction")[0].attrs["key"] == "a"


# -- router -----------------------------------------------------------------


class TestRouter:
    def test_size_threshold(self, bg):
        router = SizeRouter(edge_threshold=bg.num_edges + 1)
        assert router.route(bg) == "numpy"
        router = SizeRouter(edge_threshold=bg.num_edges)
        assert router.route(bg) == "process"

    def test_policy_falls_back_to_sim(self, bg):
        router = SizeRouter(edge_threshold=1)
        assert router.route(bg, policy="B1") == "sim"

    def test_explicit_backend_wins(self, bg):
        router = SizeRouter(edge_threshold=1)
        assert router.route(bg, backend="process") == "process"

    def test_unknown_backend_rejected(self, bg):
        with pytest.raises(ServiceError, match="unknown backend"):
            SizeRouter().route(bg, backend="gpu")

    def test_adaptive_small_routes_to_policy_backend(self, bg):
        router = SizeRouter(edge_threshold=bg.num_edges + 1)
        assert router.route(bg, needs=["controller"]) == "sim"

    def test_adaptive_large_routes_to_process_never_sharded(self, bg):
        router = SizeRouter(edge_threshold=1, sharded_threshold=1)
        # Even past the sharded threshold, adaptive stays on the process
        # tier: the sharded backend has no kernel-level plan loop.
        assert router.route(bg, needs=["controller"]) == "process"

    def test_adaptive_pinned_controller_backend_ok(self, bg):
        assert SizeRouter().route(bg, backend="sim", needs=["controller"]) == "sim"

    def test_adaptive_pinned_whole_array_rejected(self, bg):
        with pytest.raises(ServiceError, match="cannot run adaptive"):
            SizeRouter().route(bg, backend="numpy", needs=["controller"])
        with pytest.raises(ServiceError, match="cannot run adaptive"):
            SizeRouter().route(bg, backend="sharded", needs=["controller"])


# -- in-process service -----------------------------------------------------


class TestColoringService:
    def test_repeat_served_from_cache_zero_work(self, bg):
        async def run():
            tracer = RecordingTracer()
            async with ColoringService(tracer=tracer) as service:
                req = ColoringRequest(graph=bg, backend="sim", threads=4)
                fresh = await service.submit(req)
                hit = await service.submit(req)
                return fresh, hit, tracer

        fresh, hit, tracer = _run(run())
        assert not fresh.cached and hit.cached
        assert any(v > 0 for v in fresh.work_metrics.values())
        assert set(hit.work_metrics) == set(WORK_METRICS)
        assert all(v == 0 for v in hit.work_metrics.values())
        assert hit.result.colors.tobytes() == fresh.result.colors.tobytes()
        assert len(tracer.counters("cache.hit")) == 1

    @pytest.mark.parametrize("backend", backend_names())
    def test_cached_identical_across_backends(self, bg, backend, monkeypatch):
        if backend == "compiled" and not numba_available():
            # Pinned compiled without numba is a ServiceError by design;
            # exercise the cache path via the plain-Python kernel hook.
            monkeypatch.setenv(PURE_ENV, "1")
        async def run():
            async with ColoringService() as service:
                req = ColoringRequest(
                    graph=bg, algorithm="N1-N2", backend=backend, threads=2
                )
                fresh = await service.submit(req)
                hit = await service.submit(req)
                return fresh, hit

        fresh, hit = _run(run())
        assert hit.cached
        assert hit.backend == backend
        assert hit.result.colors.tobytes() == fresh.result.colors.tobytes()

    def test_concurrent_duplicates_coalesce(self, bg):
        async def run():
            async with ColoringService() as service:
                req = ColoringRequest(graph=bg, backend="sim")
                responses = await asyncio.gather(
                    *(service.submit(req) for _ in range(5))
                )
                return responses, service

        responses, service = _run(run())
        assert service.executed == 1
        assert sum(r.coalesced for r in responses) == 4
        blobs = {r.result.colors.tobytes() for r in responses}
        assert len(blobs) == 1
        for r in responses:
            if r.coalesced:
                assert all(v == 0 for v in r.work_metrics.values())

    def test_work_accounting(self, bg):
        async def run():
            async with ColoringService() as service:
                req = ColoringRequest(graph=bg, backend="sim")
                await service.submit(req)
                await service.submit(req)
                return service.stats()

        stats = _run(run())
        assert stats["requests"] == 2
        assert stats["executed"] == 1
        assert stats["cache"]["hits"] == 1
        assert stats["work_saved"] == stats["work_executed"]
        assert sum(stats["work_executed"].values()) > 0

    def test_backend_request_accounting(self, bg):
        # Every request is tallied under the backend that (would have)
        # served it — cached, coalesced or fresh — so size-based routing
        # decisions are observable per backend through stats().
        async def run():
            async with ColoringService() as service:
                pinned = ColoringRequest(graph=bg, backend="sim")
                await service.submit(pinned)
                await service.submit(pinned)  # cache hit, still counted
                await service.submit(ColoringRequest(graph=bg, backend="numpy"))
                await service.submit(ColoringRequest(graph=bg))  # routed
                return service.stats(), service.router.route(bg)

        stats, routed = _run(run())
        backends = stats["backends"]
        assert backends["sim"] == 2
        assert sum(backends.values()) == stats["requests"] == 4
        # The unpinned request lands on whatever the router chose for it.
        assert backends[routed] >= 1

    def test_invalid_requests_rejected(self, bg):
        async def run():
            async with ColoringService() as service:
                for req, pattern in (
                    (ColoringRequest(graph=bg, algorithm="W-W"), "schedule"),
                    (ColoringRequest(graph=bg, policy="B9"), "policy"),
                    (ColoringRequest(graph=bg, ordering="sorted"), "ordering"),
                    (ColoringRequest(graph=bg, threads=0), "threads"),
                    (ColoringRequest(graph="nope"), "BipartiteGraph"),
                ):
                    with pytest.raises(ServiceError, match=pattern):
                        await service.submit(req)

        _run(run())

    def test_submit_before_start_rejected(self, bg):
        async def run():
            service = ColoringService()
            with pytest.raises(ServiceError, match="not started"):
                await service.submit(ColoringRequest(graph=bg))

        _run(run())

    def test_router_used_when_backend_unpinned(self, bg):
        async def run():
            router = SizeRouter(edge_threshold=bg.num_edges + 1)
            async with ColoringService(router=router) as service:
                resp = await service.submit(ColoringRequest(graph=bg))
                return resp

        resp = _run(run())
        assert resp.backend == "numpy"

    def test_adaptive_algorithm_served(self, bg):
        async def run():
            # Small unpinned instance would route to numpy, but adaptive
            # needs a kernel-level backend: the router must pick sim.
            router = SizeRouter(edge_threshold=bg.num_edges + 1)
            async with ColoringService(router=router) as service:
                return await service.submit(
                    ColoringRequest(graph=bg, algorithm="adaptive")
                )

        resp = _run(run())
        assert resp.backend == "sim"
        assert resp.result.num_colors > 0

    def test_adaptive_threshold_normalized_in_cache_key(self, bg):
        async def run():
            async with ColoringService() as service:
                a = await service.submit(
                    ColoringRequest(graph=bg, algorithm="adaptive:0.10")
                )
                b = await service.submit(
                    ColoringRequest(graph=bg, algorithm="ADAPTIVE:0.1")
                )
                return a, b, service.stats()

        a, b, stats = _run(run())
        assert np.array_equal(a.result.colors, b.result.colors)
        assert stats["cache"]["hits"] >= 1

    def test_malformed_adaptive_rejected(self, bg):
        async def run():
            async with ColoringService() as service:
                with pytest.raises(ServiceError, match="cannot parse adaptive"):
                    await service.submit(
                        ColoringRequest(graph=bg, algorithm="adaptive:nope")
                    )

        _run(run())

    def test_sequential_algorithm(self, bg):
        async def run():
            async with ColoringService() as service:
                resp = await service.submit(
                    ColoringRequest(graph=bg, algorithm="sequential")
                )
                return resp

        resp = _run(run())
        assert resp.result.num_colors >= 1


# -- wire protocol ----------------------------------------------------------


class TestProtocol:
    def test_parse_request_rejects_garbage(self):
        with pytest.raises(ServiceError, match="not valid JSON"):
            parse_request(b"{nope")
        with pytest.raises(ServiceError, match="JSON object"):
            parse_request(b"[1, 2]")
        with pytest.raises(ServiceError, match="unknown op"):
            parse_request(b'{"op": "fly"}')
        with pytest.raises(ServiceError, match="UTF-8"):
            parse_request(b"\xff\xfe")

    def test_graph_round_trip(self, bg):
        rebuilt = graph_from_wire(graph_to_wire(bg))
        assert graph_fingerprint(rebuilt) == graph_fingerprint(bg)

    def test_coo_form(self, bg):
        rebuilt = graph_from_wire({"format": "coo", "edges": EDGES})
        assert graph_fingerprint(rebuilt) == graph_fingerprint(bg)

    def test_bad_graphs_rejected(self):
        with pytest.raises(ServiceError, match="missing 'ptr'"):
            graph_from_wire({"format": "csr", "idx": [], "num_nets": 1})
        with pytest.raises(ServiceError, match="bad csr graph"):
            graph_from_wire(
                {"format": "csr", "ptr": [0, 1], "idx": [5], "num_nets": 2}
            )
        with pytest.raises(ServiceError, match="unknown graph format"):
            graph_from_wire({"format": "parquet"})
        with pytest.raises(ServiceError, match="JSON object"):
            graph_from_wire([1, 2])


# -- TCP server -------------------------------------------------------------


class TestServer:
    def _serve(self, bg, client_work, **service_kw):
        async def run():
            service = ColoringService(**service_kw)
            server = ColoringServer(service, host="127.0.0.1", port=0)
            await server.start()
            try:
                return await asyncio.to_thread(
                    client_work, server.host, server.port
                )
            finally:
                await server.close()

        return _run(run())

    def test_duplicate_request_hits_cache(self, bg):
        def work(host, port):
            with ServiceClient(host, port) as client:
                first = client.color(bg, backend="sim", id=1)
                second = client.color(bg, backend="sim", id=2)
                return first, second

        first, second = self._serve(bg, work)
        assert first["ok"] and not first["cached"]
        assert second["ok"] and second["cached"]
        assert second["colors"] == first["colors"]
        assert all(v == 0 for v in second["work_metrics"].values())
        assert second["id"] == 2

    def test_malformed_line_answered_not_dropped(self, bg):
        def work(host, port):
            with ServiceClient(host, port) as client:
                bad = client.raw_request(b"{not json")
                alive = client.ping()
                return bad, alive

        bad, alive = self._serve(bg, work)
        assert bad["ok"] is False and "JSON" in bad["error"]
        assert alive["ok"] and alive["pong"]

    def test_color_error_paths(self, bg):
        def work(host, port):
            with ServiceClient(host, port) as client:
                missing = client.request({"op": "color", "id": 9})
                bad_alg = client.color(bg, algorithm="W-W")
                bad_threads = client.color(bg, threads="many")
                return missing, bad_alg, bad_threads

        missing, bad_alg, bad_threads = self._serve(bg, work)
        assert missing["ok"] is False and "graph" in missing["error"]
        assert missing["id"] == 9
        assert bad_alg["ok"] is False
        assert bad_threads["ok"] is False and "integer" in bad_threads["error"]

    def test_stats_and_shutdown(self, bg):
        async def run():
            service = ColoringService()
            server = ColoringServer(service, host="127.0.0.1", port=0)
            await server.start()

            def work(host, port):
                with ServiceClient(host, port) as client:
                    client.color(bg, backend="sim")
                    stats = client.stats()
                    ack = client.shutdown()
                    return stats, ack

            stats, ack = await asyncio.to_thread(
                work, server.host, server.port
            )
            await asyncio.wait_for(server.serve_until_shutdown(), timeout=10)
            return stats, ack

        stats, ack = _run(run())
        assert ack["ok"] and ack["shutting_down"]
        assert stats["stats"]["requests"] == 1
        # The stats op surfaces the per-backend request tally.
        assert stats["stats"]["backends"] == {"sim": 1}


# -- delta op: incremental recoloring over the service ----------------------


class TestDeltaOp:
    """The service `delta` path (docs/incremental.md).

    Regression bar: empty and delete-only deltas must short-circuit
    without dispatching a batch — `executed` stays flat and the charged
    work is zero.
    """

    CONFIG = dict(algorithm="V-V", backend="sim", threads=2)

    def _delta_req(self, fingerprint, delta):
        return DeltaRequest(fingerprint=fingerprint, delta=delta, **self.CONFIG)

    def test_empty_delta_is_pure_cache_hit(self, bg):
        async def run():
            async with ColoringService() as service:
                base = await service.submit(
                    ColoringRequest(graph=bg, **self.CONFIG)
                )
                resp = await service.submit_delta(
                    self._delta_req(graph_fingerprint(bg), GraphDelta())
                )
                return base, resp, service

        base, resp, service = _run(run())
        assert resp.cached and resp.frontier_size == 0
        assert service.executed == 1  # regression: nothing dispatched
        assert resp.result.colors.tobytes() == base.result.colors.tobytes()

    def test_delete_only_short_circuits_and_recaches(self, bg):
        async def run():
            async with ColoringService() as service:
                base = await service.submit(
                    ColoringRequest(graph=bg, **self.CONFIG)
                )
                delta = GraphDelta(delete=[(2, 3)])
                first = await service.submit_delta(
                    self._delta_req(graph_fingerprint(bg), delta)
                )
                repeat = await service.submit_delta(
                    self._delta_req(graph_fingerprint(bg), delta)
                )
                return base, first, repeat, service

        base, first, repeat, service = _run(run())
        assert service.executed == 1  # regression: no batch for deletions
        assert not first.cached and first.frontier_size == 0
        assert all(v == 0 for v in first.work_metrics.values())
        assert first.key != base.key  # cached under the mutated fingerprint
        assert first.result.colors.tobytes() == base.result.colors.tobytes()
        assert repeat.cached  # the synchronous result was re-cached

    def test_insert_delta_runs_incrementally_and_chains(self, bg):
        async def run():
            async with ColoringService() as service:
                base = await service.submit(
                    ColoringRequest(graph=bg, **self.CONFIG)
                )
                fwd = await service.submit_delta(
                    self._delta_req(
                        graph_fingerprint(bg), GraphDelta(insert=[(0, 1)])
                    )
                )
                back = await service.submit_delta(
                    self._delta_req(
                        fwd.key.split(":", 1)[0],
                        GraphDelta(delete=[(0, 1)]),
                    )
                )
                return base, fwd, back, service

        base, fwd, back, service = _run(run())
        assert service.executed == 2 and service.delta_requests == 2
        assert fwd.frontier_size > 0
        assert sum(fwd.work_metrics.values()) > 0
        work = lambda m: m.get("probes", 0) + m.get("conflict_checks", 0)
        assert work(fwd.work_metrics) < work(base.work_metrics)
        # deleting the inserted edge chains back to the base fingerprint
        assert back.key.split(":", 1)[0] == graph_fingerprint(bg)
        assert service.stats()["graphs_remembered"] >= 2

    def test_unknown_fingerprint_and_config_mismatch(self, bg):
        async def run():
            async with ColoringService() as service:
                with pytest.raises(ServiceError, match="unknown graph"):
                    await service.submit_delta(
                        self._delta_req("feedbeef", GraphDelta(insert=[(0, 1)]))
                    )
                # base colored under V-V; ask the delta under N1-N2
                await service.submit(ColoringRequest(graph=bg, **self.CONFIG))
                with pytest.raises(ServiceError, match="no cached coloring"):
                    await service.submit_delta(
                        DeltaRequest(
                            fingerprint=graph_fingerprint(bg),
                            delta=GraphDelta(insert=[(0, 1)]),
                            algorithm="N1-N2", backend="sim", threads=2,
                        )
                    )

        _run(run())

    def test_sequential_and_bad_delta_rejected(self, bg):
        async def run():
            async with ColoringService() as service:
                await service.submit(ColoringRequest(graph=bg, **self.CONFIG))
                with pytest.raises(ServiceError, match="sequential"):
                    await service.submit_delta(
                        DeltaRequest(
                            fingerprint=graph_fingerprint(bg),
                            delta=GraphDelta(insert=[(0, 1)]),
                            algorithm="sequential",
                        )
                    )
                with pytest.raises(ServiceError, match="GraphDelta"):
                    await service.submit_delta(
                        DeltaRequest(
                            fingerprint=graph_fingerprint(bg),
                            delta={"insert": [[0, 1]]},
                        )
                    )
                # a phantom deletion surfaces as a ServiceError, not a crash
                with pytest.raises(ServiceError, match="missing edge"):
                    await service.submit_delta(
                        self._delta_req(
                            graph_fingerprint(bg), GraphDelta(delete=[(0, 1)])
                        )
                    )

        _run(run())

    def test_numpy_request_rerouted_to_resumable_backend(self, bg):
        async def run():
            async with ColoringService() as service:
                await service.submit(ColoringRequest(graph=bg, **self.CONFIG))
                resp = await service.submit_delta(
                    DeltaRequest(
                        fingerprint=graph_fingerprint(bg),
                        delta=GraphDelta(insert=[(0, 1)]),
                        algorithm="V-V", backend="numpy", threads=2,
                    )
                )
                return resp

        resp = _run(run())
        assert resp.backend == "sim"  # numpy cannot resume partial colorings

    def test_sharded_tier_delta_runs_on_resumable_backend(self):
        from repro.core.backends import get_backend
        from repro.core.validate import validate_bgpc
        from repro.datasets.registry import load_dataset
        from repro.graph.delta import apply_delta

        graph = load_dataset("channel", "tiny")
        delta = GraphDelta(insert=[(0, graph.num_nets)])
        router = SizeRouter(edge_threshold=0, sharded_threshold=0)

        async def run():
            async with ColoringService(router=router) as service:
                unpinned = ColoringRequest(graph=graph, algorithm="V-V", threads=2)
                colored = await service.submit(unpinned)
                # The delta resumes on the first resumable tier; its base
                # must be cached under that backend.
                unpinned.backend = "process"
                await service.submit(unpinned)
                resp = await service.submit_delta(
                    DeltaRequest(
                        fingerprint=graph_fingerprint(graph), delta=delta,
                        algorithm="V-V", threads=2,
                    )
                )
                return colored, resp

        colored, resp = _run(run())
        assert colored.backend == "sharded"
        assert resp.backend == "process"
        assert get_backend(resp.backend).capabilities.resume
        validate_bgpc(apply_delta(graph, delta), resp.result.colors)

    def test_adaptive_delta_runs(self, bg):
        from repro.core.validate import validate_bgpc
        from repro.graph.delta import apply_delta

        config = dict(algorithm="adaptive", backend="sim", threads=2)
        delta = GraphDelta(insert=[(0, 1)])

        async def run():
            async with ColoringService() as service:
                await service.submit(ColoringRequest(graph=bg, **config))
                return await service.submit_delta(
                    DeltaRequest(
                        fingerprint=graph_fingerprint(bg), delta=delta, **config
                    )
                )

        resp = _run(run())
        assert resp.result.algorithm == "adaptive"
        assert resp.frontier_size > 0
        validate_bgpc(apply_delta(bg, delta), resp.result.colors)

    def test_delta_from_wire_validation(self):
        delta = delta_from_wire({"insert": [[0, 1]], "delete": [[2, 3]]})
        assert isinstance(delta, GraphDelta)
        assert delta.num_insertions == delta.num_deletions == 1
        for bad, pattern in (
            ([["not", "a", "dict"]], "JSON object"),
            ({"insert": [[0, 1]], "bogus": 1}, "unknown delta fields"),
            ({"insert": [[0, 1, 2]]}, "bad delta"),
            ({"insert": [[0, 1]], "delete": [[0, 1]]}, "bad delta"),
        ):
            with pytest.raises(ServiceError, match=pattern):
                delta_from_wire(bad)

    def test_base_sent_with_unsorted_rows(self):
        # The wire CSR form accepts unsorted rows; vertex 0 lists nets
        # [2, 0].  Deltas against such a base must see both edges.
        wire = {"format": "csr", "ptr": [0, 2, 3, 4], "idx": [2, 0, 1, 2],
                "num_nets": 3}
        graph = graph_from_wire(wire)
        sorted_twin = bipartite_from_edges(
            [(0, 0), (0, 2), (1, 1), (2, 2)], num_vertices=3, num_nets=3
        )

        async def run():
            async with ColoringService() as service:
                await service.submit(ColoringRequest(graph=graph, **self.CONFIG))
                fp = graph_fingerprint(graph)
                out = {}
                for edge in ((0, 0), (0, 2)):
                    out[edge] = await service.submit_delta(
                        self._delta_req(fp, GraphDelta(delete=[edge]))
                    )
                with pytest.raises(ServiceError, match=r"existing edge \(0, 0\)"):
                    await service.submit_delta(
                        self._delta_req(fp, GraphDelta(insert=[(0, 0)]))
                    )
                out["insert"] = await service.submit_delta(
                    self._delta_req(fp, GraphDelta(insert=[(0, 1)]))
                )
                return out

        out = _run(run())
        assert graph_fingerprint(graph) == graph_fingerprint(sorted_twin)
        for edge in ((0, 0), (0, 2)):
            expected = apply_delta(sorted_twin, GraphDelta(delete=[edge]))
            assert out[edge].key.split(":", 1)[0] == graph_fingerprint(expected)
        mutated = apply_delta(sorted_twin, GraphDelta(insert=[(0, 1)]))
        assert out["insert"].key.split(":", 1)[0] == graph_fingerprint(mutated)
        validate_bgpc(mutated, out["insert"].result.colors)

    def test_delta_leaves_no_two_hop_for_the_mutated_graph(self, bg):
        from repro.graph import twohop

        async def run():
            async with ColoringService() as service:
                await service.submit(ColoringRequest(graph=bg, **self.CONFIG))
                resp = await service.submit_delta(
                    self._delta_req(
                        graph_fingerprint(bg), GraphDelta(insert=[(0, 1)])
                    )
                )
                return resp, service._graphs[resp.key.split(":", 1)[0]]

        resp, mutated = _run(run())
        assert resp.frontier_size > 0 and sum(resp.work_metrics.values()) > 0
        assert mutated not in twohop._bgpc_cache

    def test_wire_round_trip(self, bg):
        def work(host, port):
            with ServiceClient(host, port) as client:
                base = client.color(bg, **self.CONFIG)
                fwd = client.delta(
                    base["fingerprint"], insert=[(0, 1)], **self.CONFIG
                )
                back = client.delta(
                    fwd["fingerprint"], delete=[(0, 1)], **self.CONFIG
                )
                missing = client.request({"op": "delta", "id": 5})
                no_delta = client.request(
                    {"op": "delta", "fingerprint": "ab", "id": 6}
                )
                bad_field = client.request(
                    {"op": "delta", "fingerprint": base["fingerprint"],
                     "delta": {"bogus": []}, "id": 7}
                )
                return base, fwd, back, missing, no_delta, bad_field

        async def run():
            service = ColoringService()
            server = ColoringServer(service, host="127.0.0.1", port=0)
            await server.start()
            try:
                return await asyncio.to_thread(work, server.host, server.port)
            finally:
                await server.close()

        base, fwd, back, missing, no_delta, bad_field = _run(run())
        assert base["ok"] and "fingerprint" in base
        assert fwd["ok"] and fwd["frontier_size"] > 0
        assert fwd["fingerprint"] != base["fingerprint"]
        assert fwd["num_colors"] >= 1 and len(fwd["colors"]) == len(base["colors"])
        assert back["ok"] and back["fingerprint"] == base["fingerprint"]
        assert missing["ok"] is False and "fingerprint" in missing["error"]
        assert missing["id"] == 5
        assert no_delta["ok"] is False and "delta" in no_delta["error"]
        assert (
            bad_field["ok"] is False
            and "unknown delta fields" in bad_field["error"]
        )


# -- python -m repro.serve --------------------------------------------------


class TestServeCli:
    def test_bad_flags_exit_2(self, capsys):
        from repro.serve import main

        for argv in (
            ["--threads", "0"],
            ["--cache-size", "-1"],
            ["--max-batch", "0"],
            ["--edge-threshold", "-5"],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1

    def test_unwritable_trace_exits_2(self, capsys):
        from repro.serve import main

        assert main(["--trace", "/nonexistent/dir/t.jsonl"]) == 2
        assert "cannot write trace" in capsys.readouterr().err

    def test_bind_failure_exits_2(self, capsys):
        from repro.serve import main

        # Occupy a port, then ask the server to bind it.
        with socket.socket() as blocker:
            blocker.bind(("127.0.0.1", 0))
            port = blocker.getsockname()[1]
            assert main(["--port", str(port)]) == 2
        assert "cannot bind" in capsys.readouterr().err

    def test_subprocess_round_trip(self, bg, tmp_path):
        env_path = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--backend", "sim", "--trace", str(tmp_path / "serve.jsonl")],
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=env_path),
        )
        try:
            banner = proc.stdout.readline()
            assert banner.startswith("serving on 127.0.0.1:"), banner
            port = int(banner.rsplit(":", 1)[1])
            with ServiceClient("127.0.0.1", port) as client:
                first = client.color(bg)
                second = client.color(bg)
                client.shutdown()
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert second["cached"] and second["colors"] == first["colors"]
        assert "served 2 requests" in out
        trace = (tmp_path / "serve.jsonl").read_text()
        names = [json.loads(line)["name"] for line in trace.splitlines()]
        assert "cache.hit" in names


# -- serve bench experiment -------------------------------------------------


class TestServeExperiment:
    def test_replay_reports_hit_rate(self):
        from repro.bench.experiments.serve import REQUEST_MIX, run

        experiment = run(scale="tiny", threads=2)
        assert experiment.id == "serve"
        assert len(experiment.rows) == len(REQUEST_MIX)
        served = [row[3] for row in experiment.rows]
        assert served.count("cache") == 7  # 12 requests, 5 distinct
        for row in experiment.rows:
            if row[3] == "cache":
                assert row[5] == 0
            else:
                assert row[5] > 0
        assert "hit rate 7/12" in experiment.notes
        stats = experiment.data["stats"]
        assert stats["executed"] == 5
