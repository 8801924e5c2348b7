"""Size-threshold backend routing for unpinned requests.

A request may pin its backend explicitly; when it does not, the router
picks from the :mod:`repro.core.backends` registry by instance size:

* **small** graphs go to the vectorized ``numpy`` fast path — per-request
  process-pool setup would dwarf the coloring itself;
* **large** graphs (at least ``edge_threshold`` bipartite edges) go to the
  shared-memory ``process`` pool, where true parallelism pays for its
  setup;
* **huge** graphs (at least ``sharded_threshold`` edges) go to the
  partitioned ``sharded`` backend (see ``docs/sharding.md``), whose
  interior/boundary split keeps cross-worker traffic to the frontier;
* requests using a balancing policy other than plain first-fit fall back
  to the deterministic ``sim`` backend — the numpy and sharded engines
  support only first-fit, and routing must never change what a request
  computes;
* requests that need a capability (resume a partial coloring, run an
  adaptive controller, run ``sequential`` — see
  :class:`~repro.core.backends.Capabilities`) take the first tier of
  their size class whose backend declares it, falling back to the
  policy backend.  A pinned backend that lacks one is rejected with the
  driver's own message.

Backends with optional dependencies (``compiled`` needs numba) declare an
``available()`` probe and a ``fallback`` name; a size-routed pick that is
unavailable degrades to its fallback (e.g. ``compiled`` → ``numpy``), but
a request that *pins* an unavailable backend fails with a
:class:`~repro.errors.ServiceError` — the router never silently changes
an explicit choice.

The decision is pure (graph size + request parameters + registry state
in, backend name out), so routed keys stay deterministic and cacheable.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.backends import backend_names, get_backend, missing_capability
from repro.errors import ServiceError
from repro.graph.bipartite import BipartiteGraph

__all__ = ["DEFAULT_EDGE_THRESHOLD", "DEFAULT_SHARDED_THRESHOLD", "SizeRouter"]

#: Default boundary between "small" (numpy) and "large" (process) graphs,
#: in bipartite edges.
DEFAULT_EDGE_THRESHOLD = 50_000

#: Default boundary between "large" (process) and "huge" (sharded) graphs,
#: in bipartite edges.
DEFAULT_SHARDED_THRESHOLD = 500_000


class SizeRouter:
    """Route a request to a registered backend by instance size.

    Parameters
    ----------
    edge_threshold:
        Requests on graphs with at least this many edges route to
        ``large_backend``; smaller ones to ``small_backend``.
    sharded_threshold:
        Requests on graphs with at least this many edges route to
        ``huge_backend`` (must be >= ``edge_threshold``).
    small_backend / large_backend / huge_backend:
        Registered backend names for the three size classes.
    policy_backend:
        Backend for non-first-fit policies (``B1``/``B2``), which the
        vectorized fast path cannot run.
    """

    def __init__(
        self,
        edge_threshold: int = DEFAULT_EDGE_THRESHOLD,
        small_backend: str = "numpy",
        large_backend: str = "process",
        policy_backend: str = "sim",
        sharded_threshold: int = DEFAULT_SHARDED_THRESHOLD,
        huge_backend: str = "sharded",
    ):
        if edge_threshold < 0:
            raise ValueError(
                f"edge_threshold must be >= 0, got {edge_threshold}"
            )
        if sharded_threshold < edge_threshold:
            raise ValueError(
                f"sharded_threshold ({sharded_threshold}) must be >= "
                f"edge_threshold ({edge_threshold})"
            )
        self.edge_threshold = edge_threshold
        self.sharded_threshold = sharded_threshold
        self.small_backend = small_backend
        self.large_backend = large_backend
        self.huge_backend = huge_backend
        self.policy_backend = policy_backend

    def route(
        self,
        bg: BipartiteGraph,
        backend: str | None = None,
        policy: str = "U",
        needs: Iterable[str] = (),
    ) -> str:
        """The backend name a request should run on.

        ``needs`` names the :class:`~repro.core.backends.Capabilities` the
        request requires beyond a fresh first-fit schedule (``"resume"``,
        ``"controller"``, ``"sequential"``); a non-``"U"`` ``policy`` adds
        ``"policies"``.  An explicit ``backend`` wins (validated against the
        registry and those needs); otherwise the size/policy rules above
        decide, skipping tiers that lack a needed capability — an adaptive
        or resuming request never lands on the sharded tier.
        """
        needs = list(needs) + (["policies"] if policy != "U" else [])
        if backend is not None:
            if backend not in backend_names():
                raise ServiceError(
                    f"unknown backend {backend!r}; choose from "
                    f"{list(backend_names())}"
                )
            if not _is_available(backend):
                raise ServiceError(
                    f"backend {backend!r} is not available on this host "
                    "(missing optional dependency); unpin the backend or "
                    "install it"
                )
            message = missing_capability(backend, needs)
            if message is not None:
                raise ServiceError(message)
            return backend
        if policy != "U":
            return self.policy_backend
        if bg.num_edges >= self.sharded_threshold:
            tiers = (self.huge_backend, self.large_backend)
        elif bg.num_edges >= self.edge_threshold:
            tiers = (self.large_backend,)
        else:
            tiers = (self.small_backend,)
        for name in tiers:
            name = self._degrade(name)
            if missing_capability(name, needs) is None:
                return name
        return self.policy_backend

    @staticmethod
    def _degrade(name: str) -> str:
        """Follow ``fallback`` links until an available backend is found."""
        seen = set()
        while not _is_available(name):
            seen.add(name)
            name = getattr(get_backend(name), "fallback", None)
            if name is None or name in seen:
                raise ServiceError(
                    "no available backend in the fallback chain "
                    f"{sorted(seen)}"
                )
        return name


def _is_available(name: str) -> bool:
    """A backend is available unless it declares ``available() -> False``."""
    probe = getattr(get_backend(name), "available", None)
    return True if probe is None else bool(probe())
