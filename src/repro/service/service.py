"""The in-process coloring service: dedup, batching, cache, accounting.

:class:`ColoringService` is the asyncio front end over the execution-backend
registry that the NDJSON server (:mod:`repro.service.server`) — and any
in-process caller — submits coloring requests to.  The request path:

1. **Resolve** — the request's schedule is canonicalized, the backend is
   chosen (explicit pin, else the :class:`~repro.service.router.SizeRouter`)
   and the full cache key is computed
   (:func:`~repro.service.fingerprint.request_key`).
2. **Cache** — a key already in the :class:`~repro.service.cache.ColoringCache`
   is served immediately: zero backend work, the request's own
   ``work_metrics`` are all zero, and the saved work is banked in the
   service's accounting.
3. **Coalesce** — a key currently *in flight* attaches to the running
   computation's future instead of starting a second one: concurrent
   duplicates cost one backend run.
4. **Batch** — fresh keys are queued; a dispatcher drains up to
   ``max_batch`` requests at a time and runs them concurrently on worker
   threads (each coloring call releases the event loop via
   ``asyncio.to_thread``), populating the cache on completion.

Per-request cost accounting rides on the ``work_metrics`` of each
:class:`~repro.types.ColoringResult`: every response carries
the deterministic work *this* request caused (zeros for hits and coalesced
joins), and :meth:`ColoringService.stats` totals executed vs saved work.
Counter events (``cache.*``, ``service.request``, ``service.batch``) flow
through the standard :class:`~repro.obs.tracer.Tracer` protocol.

**Delta requests** (:meth:`ColoringService.submit_delta`) extend the
economy to evolving graphs: the service remembers the graphs it has
colored (a bounded fingerprint → graph store), so a client can send just
an edge delta against a cached fingerprint instead of re-uploading and
re-coloring the whole graph.  The mutated graph is fingerprinted (the
base's fingerprint is the request's own, so one hash per delta), the
frontier is recolored incrementally
(:func:`repro.core.incremental.recolor_incremental`), and the result is
cached under the *new* key — the next epoch chains off it.  Empty deltas
are pure cache hits and delete-only deltas (empty frontier) are answered
synchronously at zero kernel work; neither dispatches a batch.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.adaptive import is_adaptive_name, parse_adaptive
from repro.core.backends import backend_names, missing_capability
from repro.core.bgpc import color_bgpc
from repro.core.driver import SEQUENTIAL
from repro.core.incremental import recolor_incremental
from repro.core.plan import normalize_schedule_name
from repro.core.policies import POLICIES, get_policy
from repro.errors import GraphError, ReproError, ServiceError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.delta import GraphDelta, apply_delta, delta_frontier
from repro.obs.tracer import ensure_tracer
from repro.obs.work import WORK_METRICS, WorkCounters
from repro.order import ORDERINGS, get_ordering
from repro.service.cache import ColoringCache
from repro.service.fingerprint import request_key
from repro.service.router import SizeRouter
from repro.types import ColoringResult

__all__ = [
    "ColoringRequest",
    "ColoringService",
    "DeltaRequest",
    "ServiceResponse",
]


def _zero_work() -> dict[str, int]:
    return {metric: 0 for metric in WORK_METRICS}


def _canonical(algorithm: str) -> tuple[str, list[str]]:
    """Canonical name of ``algorithm`` and the capabilities it needs."""
    if algorithm == SEQUENTIAL:
        return algorithm, ["sequential"]
    adaptive = is_adaptive_name(algorithm)
    try:
        # Adaptive names normalize through their own grammar
        # ("adaptive[:threshold]"); everything else through the schedule
        # grammar.
        name = (
            parse_adaptive(algorithm).name
            if adaptive
            else normalize_schedule_name(algorithm)
        )
    except ReproError as exc:
        raise ServiceError(str(exc)) from None
    return name, ["controller"] if adaptive else []


@dataclass
class ColoringRequest:
    """One BGPC coloring request (the in-process twin of a ``color`` line).

    ``backend=None`` asks the router to choose; ``threads=None`` takes the
    service default.
    """

    graph: BipartiteGraph
    algorithm: str = "N1-N2"
    backend: str | None = None
    threads: int | None = None
    policy: str = "U"
    ordering: str = "natural"
    fastpath_mode: str = "exact"


@dataclass
class DeltaRequest:
    """One incremental-recoloring request (the twin of a ``delta`` line).

    ``fingerprint`` names a graph the service has colored before
    (:func:`~repro.service.fingerprint.graph_fingerprint` — returned in
    every color/delta response's ``key`` prefix); ``delta`` is the edge
    change set.  The configuration fields must match a cached base
    coloring; ordering is always ``natural`` and ``fastpath_mode`` always
    ``"exact"`` for delta requests.  Incremental runs resume kernel loops,
    so the router sends them only to backends whose capability record
    declares ``resume``; an explicit pin that lacks it (e.g. ``numpy``)
    is remapped to the deterministic ``sim``.
    """

    fingerprint: str
    delta: GraphDelta
    algorithm: str = "V-V"
    backend: str | None = None
    threads: int | None = None
    policy: str = "U"


@dataclass
class ServiceResponse:
    """What :meth:`ColoringService.submit` resolves to.

    ``work_metrics`` is the per-request cost: the run's deterministic
    counters for a fresh execution, all zeros when the response came from
    cache (``cached``) or attached to an in-flight duplicate
    (``coalesced``).  ``frontier_size`` is set on delta responses only:
    how many vertices the delta invalidated (0 for empty and delete-only
    deltas).
    """

    result: ColoringResult
    key: str
    backend: str
    threads: int
    cached: bool = False
    coalesced: bool = False
    work_metrics: dict[str, int] = field(default_factory=_zero_work)
    frontier_size: int | None = None


@dataclass
class _DeltaJob:
    """Internal queue entry for a fresh incremental run."""

    base: BipartiteGraph
    base_colors: object
    delta: GraphDelta
    algorithm: str
    policy: str
    mutated: BipartiteGraph


class ColoringService:
    """Async coloring front end with dedup, micro-batching and an LRU cache.

    Parameters
    ----------
    backend:
        Default backend for requests that do not pin one; ``None`` (default)
        routes by size (see :class:`~repro.service.router.SizeRouter`).
    threads:
        Default worker/thread count handed to the backend (default 1, the
        deterministic choice).
    cache_size:
        LRU capacity in results; 0 disables caching.
    max_batch:
        Most requests the dispatcher drains into one concurrent batch.
    router:
        Router override (default: a fresh ``SizeRouter``).
    tracer:
        Optional tracer receiving ``cache.*`` and ``service.*`` counters.
    max_iterations:
        Speculative-loop bound forwarded to the drivers.

    Use as an async context manager, or call :meth:`start` / :meth:`close`.
    """

    def __init__(
        self,
        *,
        backend: str | None = None,
        threads: int = 1,
        cache_size: int = 128,
        max_batch: int = 8,
        router: SizeRouter | None = None,
        tracer=None,
        max_iterations: int = 200,
    ):
        if threads < 1:
            raise ServiceError(f"threads must be >= 1, got {threads}")
        if max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {max_batch}")
        self.default_backend = backend
        self.default_threads = threads
        self.max_batch = max_batch
        self.max_iterations = max_iterations
        self.tracer = ensure_tracer(tracer)
        self.router = router if router is not None else SizeRouter()
        self.cache = ColoringCache(cache_size, tracer=tracer)
        self._inflight: dict[str, asyncio.Future] = {}
        self._queue: asyncio.Queue | None = None
        self._dispatcher: asyncio.Task | None = None
        # Fingerprint → graph store backing delta requests: every colored
        # graph is remembered (bounded LRU) so a client can send just an
        # edge delta against the fingerprint instead of the whole graph.
        self._graph_capacity = max(cache_size, 16)
        self._graphs: OrderedDict[str, BipartiteGraph] = OrderedDict()
        self.requests = 0
        self.executed = 0
        self.errors = 0
        self.coalesced = 0
        self.delta_requests = 0
        # Per-request chosen-backend counts: which backend the router (or
        # an explicit pin) selected, for every response — cached, coalesced
        # or fresh.  Makes size-based routing (e.g. sharded for huge
        # graphs) observable through the ``stats`` op.
        self.backend_requests: dict[str, int] = {}
        self.work_executed = WorkCounters()
        self.work_saved = WorkCounters()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> "ColoringService":
        """Start the dispatcher (idempotent); returns ``self``."""
        if self._dispatcher is None:
            self._queue = asyncio.Queue()
            self._dispatcher = asyncio.create_task(self._dispatch_loop())
        return self

    async def close(self) -> None:
        """Stop the dispatcher and fail any still-queued requests."""
        if self._dispatcher is None:
            return
        self._dispatcher.cancel()
        try:
            await self._dispatcher
        except asyncio.CancelledError:
            pass
        self._dispatcher = None
        while self._queue is not None and not self._queue.empty():
            _, _, _, _, fut = self._queue.get_nowait()
            if not fut.done():
                fut.set_exception(ServiceError("service closed"))
        self._inflight.clear()

    async def __aenter__(self) -> "ColoringService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.close()
        return False

    # -- request path -------------------------------------------------------

    def resolve(self, request: ColoringRequest) -> tuple[str, str, int]:
        """Validate ``request`` and return ``(key, backend, threads)``."""
        if not isinstance(request.graph, BipartiteGraph):
            raise ServiceError(
                "request.graph must be a BipartiteGraph, got "
                f"{type(request.graph).__name__}"
            )
        if request.policy not in POLICIES:
            raise ServiceError(
                f"unknown policy {request.policy!r}; choose from "
                f"{sorted(POLICIES)}"
            )
        if request.ordering not in ORDERINGS:
            raise ServiceError(
                f"unknown ordering {request.ordering!r}; choose from "
                f"{sorted(ORDERINGS)}"
            )
        if request.fastpath_mode not in ("exact", "speculative"):
            raise ServiceError(
                f"unknown fastpath_mode {request.fastpath_mode!r}; choose "
                "from ['exact', 'speculative']"
            )
        algorithm, needs = _canonical(request.algorithm)
        backend = self.router.route(
            request.graph,
            request.backend
            if request.backend is not None
            else self.default_backend,
            request.policy,
            needs,
        )
        threads = (
            request.threads
            if request.threads is not None
            else self.default_threads
        )
        if threads < 1:
            raise ServiceError(f"threads must be >= 1, got {threads}")
        key = request_key(
            request.graph,
            algorithm=algorithm,
            policy=request.policy,
            ordering=request.ordering,
            backend=backend,
            threads=threads,
            fastpath_mode=request.fastpath_mode,
        )
        return key, backend, threads

    async def submit(self, request: ColoringRequest) -> ServiceResponse:
        """Serve one request: cache hit, coalesced join, or fresh run.

        Raises :class:`~repro.errors.ServiceError` on invalid requests and
        on backend failures (one exception per waiter, cache untouched).
        """
        if self._dispatcher is None:
            raise ServiceError(
                "service is not started; use 'async with ColoringService(...)'"
            )
        self.requests += 1
        key, backend, threads = self.resolve(request)
        self._remember_graph(key.split(":", 1)[0], request.graph)

        cached = self.cache.get(key)
        if cached is not None:
            self.work_saved.merge(cached.work_metrics)
            self._emit_request(backend, cached=True, coalesced=False)
            return ServiceResponse(
                result=cached,
                key=key,
                backend=backend,
                threads=threads,
                cached=True,
            )

        inflight = self._inflight.get(key)
        if inflight is not None:
            self.coalesced += 1
            result = await asyncio.shield(inflight)
            self.work_saved.merge(result.work_metrics)
            self._emit_request(backend, cached=False, coalesced=True)
            return ServiceResponse(
                result=result,
                key=key,
                backend=backend,
                threads=threads,
                coalesced=True,
            )

        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        await self._queue.put((key, request, backend, threads, future))
        result = await asyncio.shield(future)
        self.work_executed.merge(result.work_metrics)
        self._emit_request(backend, cached=False, coalesced=False)
        return ServiceResponse(
            result=result,
            key=key,
            backend=backend,
            threads=threads,
            work_metrics=dict(result.work_metrics),
        )

    # -- delta path ---------------------------------------------------------

    def _remember_graph(self, fingerprint: str, graph: BipartiteGraph) -> None:
        """Register ``graph`` under its fingerprint (bounded LRU)."""
        if fingerprint in self._graphs:
            self._graphs.move_to_end(fingerprint)
        self._graphs[fingerprint] = graph
        while len(self._graphs) > self._graph_capacity:
            self._graphs.popitem(last=False)

    def resolve_delta(
        self, request: DeltaRequest
    ) -> tuple[BipartiteGraph, str, str, int]:
        """Validate ``request``; return ``(base, algorithm, backend, threads)``."""
        if not isinstance(request.delta, GraphDelta):
            raise ServiceError(
                "request.delta must be a GraphDelta, got "
                f"{type(request.delta).__name__}"
            )
        if not isinstance(request.fingerprint, str) or not request.fingerprint:
            raise ServiceError("request.fingerprint must be a non-empty string")
        if request.policy not in POLICIES:
            raise ServiceError(
                f"unknown policy {request.policy!r}; choose from "
                f"{sorted(POLICIES)}"
            )
        if request.algorithm == SEQUENTIAL:
            raise ServiceError(
                "delta requests cannot use 'sequential' (there is no "
                "speculative loop to resume); name a schedule such as V-V"
            )
        algorithm, needs = _canonical(request.algorithm)
        base = self._graphs.get(request.fingerprint)
        if base is None:
            raise ServiceError(
                f"unknown graph fingerprint {request.fingerprint[:12]}…; "
                "submit a color request for the base graph first (the "
                f"service remembers the last {self._graph_capacity} graphs)"
            )
        self._graphs.move_to_end(request.fingerprint)
        pinned = (
            request.backend
            if request.backend is not None
            else self.default_backend
        )
        if pinned in backend_names() and missing_capability(pinned, ["resume"]):
            # A pin that cannot resume a partial coloring is remapped to
            # the deterministic policy backend instead of erroring.
            pinned = self.router.policy_backend
        backend = self.router.route(
            base, pinned, request.policy, ["resume", *needs]
        )
        threads = (
            request.threads
            if request.threads is not None
            else self.default_threads
        )
        if threads < 1:
            raise ServiceError(f"threads must be >= 1, got {threads}")
        return base, algorithm, backend, threads

    def _delta_key(self, graph: BipartiteGraph | str, algorithm: str,
                   request: DeltaRequest, backend: str, threads: int) -> str:
        return request_key(
            graph,
            algorithm=algorithm,
            policy=request.policy,
            ordering="natural",
            backend=backend,
            threads=threads,
            fastpath_mode="exact",
        )

    async def submit_delta(self, request: DeltaRequest) -> ServiceResponse:
        """Recolor a remembered graph after an edge delta.

        Requires a cached base coloring under the same configuration
        (algorithm/policy/backend/threads); raises
        :class:`~repro.errors.ServiceError` otherwise.  Empty deltas are
        answered from cache and delete-only deltas synchronously at zero
        kernel work (the base coloring is still valid — deletions only
        remove constraints); only genuine insertions dispatch a frontier
        run, whose result is cached under the mutated graph's key.
        """
        if self._dispatcher is None:
            raise ServiceError(
                "service is not started; use 'async with ColoringService(...)'"
            )
        self.requests += 1
        self.delta_requests += 1
        base, algorithm, backend, threads = self.resolve_delta(request)
        # The store files every graph under its fingerprint, so the request
        # names the base's fingerprint: only the mutated graph is hashed.
        base_key = self._delta_key(
            request.fingerprint, algorithm, request, backend, threads
        )
        base_result = self.cache.get(base_key)
        if base_result is None:
            raise ServiceError(
                "no cached coloring for fingerprint "
                f"{request.fingerprint[:12]}… under "
                f"{base_key.split(':', 1)[1]!r}; submit a color request "
                "with the same algorithm/policy/backend/threads first"
            )
        delta = request.delta

        if delta.is_empty:
            # Short-circuit: the graph is unchanged, so this is a pure
            # cache hit — never dispatch a batch for it.
            self.work_saved.merge(base_result.work_metrics)
            self._emit_request(backend, cached=True, coalesced=False)
            return ServiceResponse(
                result=base_result,
                key=base_key,
                backend=backend,
                threads=threads,
                cached=True,
                frontier_size=0,
            )

        try:
            mutated = apply_delta(base, delta)
        except GraphError as exc:
            raise ServiceError(str(exc)) from None
        frontier_size = int(delta_frontier(mutated, delta).size)
        new_key = self._delta_key(mutated, algorithm, request, backend, threads)
        self._remember_graph(new_key.split(":", 1)[0], mutated)

        cached = self.cache.get(new_key)
        if cached is not None:
            self.work_saved.merge(cached.work_metrics)
            self._emit_request(backend, cached=True, coalesced=False)
            return ServiceResponse(
                result=cached,
                key=new_key,
                backend=backend,
                threads=threads,
                cached=True,
                frontier_size=frontier_size,
            )

        if delta.is_delete_only:
            # Frontier-empty fast return: deletions only remove
            # constraints, so the base colors are already valid on the
            # mutated graph.  Re-cache them under the new fingerprint
            # synchronously — no batch, no kernel work, full base work
            # banked as saved.
            result = ColoringResult(
                colors=base_result.colors.copy(),
                num_colors=base_result.num_colors,
                iterations=[],
                algorithm=base_result.algorithm,
                threads=threads,
                cycles=0.0,
                backend=backend,
                wall_seconds=0.0,
                work_metrics=_zero_work(),
            )
            self.cache.put(new_key, result)
            self.work_saved.merge(base_result.work_metrics)
            self._emit_request(backend, cached=False, coalesced=False)
            return ServiceResponse(
                result=result,
                key=new_key,
                backend=backend,
                threads=threads,
                frontier_size=0,
            )

        inflight = self._inflight.get(new_key)
        if inflight is not None:
            self.coalesced += 1
            result = await asyncio.shield(inflight)
            self.work_saved.merge(result.work_metrics)
            self._emit_request(backend, cached=False, coalesced=True)
            return ServiceResponse(
                result=result,
                key=new_key,
                backend=backend,
                threads=threads,
                coalesced=True,
                frontier_size=frontier_size,
            )

        job = _DeltaJob(
            base=base,
            base_colors=base_result.colors,
            delta=delta,
            algorithm=algorithm,
            policy=request.policy,
            mutated=mutated,
        )
        future = asyncio.get_running_loop().create_future()
        self._inflight[new_key] = future
        await self._queue.put((new_key, job, backend, threads, future))
        result = await asyncio.shield(future)
        self.work_executed.merge(result.work_metrics)
        self._emit_request(backend, cached=False, coalesced=False)
        return ServiceResponse(
            result=result,
            key=new_key,
            backend=backend,
            threads=threads,
            work_metrics=dict(result.work_metrics),
            frontier_size=frontier_size,
        )

    # -- dispatcher ---------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            item = await self._queue.get()
            batch = [item]
            while len(batch) < self.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            if self.tracer.enabled:
                self.tracer.counter("service.batch", len(batch))
            await asyncio.gather(
                *(self._run_one(*entry) for entry in batch)
            )

    async def _run_one(self, key, request, backend, threads, future) -> None:
        try:
            result = await asyncio.to_thread(
                self._execute, request, backend, threads
            )
        except ReproError as exc:
            self.errors += 1
            if not future.done():
                future.set_exception(ServiceError(str(exc)))
        else:
            self.executed += 1
            self.cache.put(key, result)
            if not future.done():
                future.set_result(result)
        finally:
            self._inflight.pop(key, None)

    def _execute(self, request, backend: str,
                 threads: int) -> ColoringResult:
        """Run one coloring on a worker thread (CPU-bound, loop released)."""
        if isinstance(request, _DeltaJob):
            # Base colors come from our own cache, so skip re-validating
            # them; the incremental result is still always validated.
            inc = recolor_incremental(
                request.base,
                request.base_colors,
                request.delta,
                algorithm=request.algorithm,
                threads=threads,
                backend=backend,
                policy=(
                    None if request.policy == "U" else get_policy(request.policy)
                ),
                max_iterations=self.max_iterations,
                validate=False,
                mutated=request.mutated,
            )
            return inc.result
        order = (
            None
            if request.ordering == "natural"
            else get_ordering(request.ordering)(request.graph)
        )
        policy = (
            None if request.policy == "U" else get_policy(request.policy)
        )
        return color_bgpc(
            request.graph,
            algorithm=request.algorithm,
            threads=threads,
            policy=policy,
            order=order,
            max_iterations=self.max_iterations,
            backend=backend,
            fastpath_mode=request.fastpath_mode,
        )

    # -- accounting ---------------------------------------------------------

    def _emit_request(self, backend: str, *, cached: bool,
                      coalesced: bool) -> None:
        self.backend_requests[backend] = self.backend_requests.get(backend, 0) + 1
        if self.tracer.enabled:
            self.tracer.counter(
                "service.request",
                1,
                backend=backend,
                cached=cached,
                coalesced=coalesced,
            )

    def stats(self) -> dict:
        """Counter snapshot: requests, cache, coalescing, work totals."""
        return {
            "requests": self.requests,
            "executed": self.executed,
            "errors": self.errors,
            "coalesced": self.coalesced,
            "delta_requests": self.delta_requests,
            "backends": dict(sorted(self.backend_requests.items())),
            "graphs_remembered": len(self._graphs),
            "cache": self.cache.stats(),
            "work_executed": self.work_executed.as_dict(),
            "work_saved": self.work_saved.as_dict(),
        }
