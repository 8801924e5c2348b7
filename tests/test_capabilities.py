"""Capability conformance: every backend's record matches what it runs.

Each registered backend declares one
:class:`~repro.core.backends.Capabilities` record.  For every backend and
every capability a caller can ask for, the library either returns a valid
coloring (the record has it) or raises the record's one
:class:`~repro.errors.ColoringError` message (it does not) — and the
service router gives the same answer for the same pair.
"""

import pytest

from repro.core.backends import backend_names, get_backend, missing_capability
from repro.core.bgpc import color_bgpc
from repro.core.compiled import PURE_ENV, numba_available
from repro.core.incremental import recolor_incremental
from repro.core.policies import B1Policy
from repro.core.validate import validate_bgpc
from repro.datasets.synthetic import random_bipartite
from repro.errors import ColoringError, ServiceError
from repro.graph.delta import GraphDelta, apply_delta
from repro.service.router import SizeRouter

#: request -> (capability field, router arguments)
REQUESTS = {
    "resume": ("resume", dict(needs=["resume"])),
    "adaptive": ("controller", dict(needs=["controller"])),
    "B1": ("policies", dict(policy="B1")),
    "sequential": ("sequential", dict(needs=["sequential"])),
}


@pytest.fixture(scope="module")
def bg():
    return random_bipartite(12, 40, density=0.1, seed=5)


def _run(request: str, bg, backend: str):
    """Run ``request`` on ``backend``; return (graph, colors) to validate."""
    if request == "resume":
        # A new net over three vertices: every inserted edge is fresh.
        delta = GraphDelta(insert=[(v, bg.num_nets) for v in range(3)])
        base = color_bgpc(bg, algorithm="V-V", threads=2)
        inc = recolor_incremental(
            bg, base.colors, delta, algorithm="V-V", threads=2, backend=backend
        )
        return apply_delta(bg, delta), inc.colors
    if request == "adaptive":
        result = color_bgpc(bg, algorithm="adaptive", threads=2, backend=backend)
    elif request == "B1":
        result = color_bgpc(
            bg, algorithm="V-V", policy=B1Policy(), threads=2, backend=backend
        )
    else:
        result = color_bgpc(bg, algorithm="sequential", backend=backend)
    return bg, result.colors


@pytest.mark.parametrize("request_kind", sorted(REQUESTS))
@pytest.mark.parametrize("backend", backend_names())
def test_record_matches_behaviour(bg, backend, request_kind, monkeypatch):
    if backend == "compiled" and not numba_available():
        monkeypatch.setenv(PURE_ENV, "1")
    field, route_args = REQUESTS[request_kind]
    router = SizeRouter()
    if getattr(get_backend(backend).capabilities, field):
        graph, colors = _run(request_kind, bg, backend)
        validate_bgpc(graph, colors)
        assert router.route(bg, backend=backend, **route_args) == backend
    else:
        message = missing_capability(backend, [field])
        assert message is not None and backend in message
        with pytest.raises(ColoringError) as exc:
            _run(request_kind, bg, backend)
        assert str(exc.value) == message
        with pytest.raises(ServiceError) as exc:
            router.route(bg, backend=backend, **route_args)
        assert str(exc.value) == message


@pytest.mark.parametrize("request_kind", sorted(REQUESTS))
def test_unpinned_route_has_the_capability(bg, request_kind):
    field, route_args = REQUESTS[request_kind]
    for router in (
        SizeRouter(),
        SizeRouter(edge_threshold=0),
        SizeRouter(edge_threshold=0, sharded_threshold=0),
    ):
        chosen = router.route(bg, **route_args)
        assert getattr(get_backend(chosen).capabilities, field), (
            request_kind, chosen,
        )
