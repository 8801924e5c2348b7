"""repro — reproduction of "Greed is Good: Parallel Algorithms for
Bipartite-Graph Partial Coloring on Multicore Architectures" (ICPP 2017).

Quickstart
----------
>>> import numpy as np
>>> from repro import bipartite_from_dense, color_bgpc, validate_bgpc
>>> pattern = np.array([[1, 1, 0], [0, 1, 1]])
>>> bg = bipartite_from_dense(pattern)
>>> result = color_bgpc(bg, algorithm="N1-N2", threads=4)
>>> validate_bgpc(bg, result.colors)   # raises on an invalid coloring

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.graph import (
    CSR,
    BipartiteGraph,
    Graph,
    GraphDelta,
    apply_delta,
    delta_frontier,
    bipartite_from_dense,
    bipartite_from_edges,
    bipartite_from_scipy,
    graph_from_dense,
    graph_from_edges,
    graph_from_scipy,
    read_matrix_market,
    write_matrix_market,
)
from repro.core import (
    PAPER_SCHEDULES,
    ScheduleSpec,
    backend_names,
    get_backend,
    normalize_schedule_name,
    register_backend,
    BGPC_ALGORITHMS,
    FASTPATH_MODES,
    fastpath_color_bgpc,
    fastpath_color_d2gc,
    color_distk,
    sequential_distk,
    validate_distk,
    jones_plassmann_bgpc,
    jones_plassmann_d2gc,
    rebalance_shuffle,
    reduce_colors,
    recolor_incremental,
    IncrementalResult,
    D2GC_ALGORITHMS,
    B1Policy,
    B2Policy,
    FirstFit,
    color_bgpc,
    color_d2gc,
    color_stats,
    get_policy,
    is_valid_bgpc,
    is_valid_d2gc,
    sequential_bgpc,
    sequential_d2gc,
    validate_bgpc,
    validate_d2gc,
)
from repro.machine import CostModel, Machine
from repro.obs import (
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    TraceEvent,
    profile_table,
)
from repro.order import (
    natural_order,
    smallest_last_order,
    largest_first_order,
    random_order,
    get_ordering,
)
from repro.types import ColoringResult, ColorStats, UNCOLORED

__version__ = "1.0.0"

__all__ = [
    "CSR",
    "BipartiteGraph",
    "Graph",
    "GraphDelta",
    "apply_delta",
    "delta_frontier",
    "bipartite_from_dense",
    "bipartite_from_edges",
    "bipartite_from_scipy",
    "graph_from_dense",
    "graph_from_edges",
    "graph_from_scipy",
    "read_matrix_market",
    "write_matrix_market",
    "BGPC_ALGORITHMS",
    "D2GC_ALGORITHMS",
    "PAPER_SCHEDULES",
    "ScheduleSpec",
    "normalize_schedule_name",
    "backend_names",
    "get_backend",
    "register_backend",
    "B1Policy",
    "B2Policy",
    "FirstFit",
    "color_bgpc",
    "color_d2gc",
    "color_stats",
    "get_policy",
    "is_valid_bgpc",
    "is_valid_d2gc",
    "sequential_bgpc",
    "sequential_d2gc",
    "validate_bgpc",
    "validate_d2gc",
    "CostModel",
    "Machine",
    "natural_order",
    "smallest_last_order",
    "largest_first_order",
    "random_order",
    "get_ordering",
    "ColoringResult",
    "ColorStats",
    "UNCOLORED",
    "color_distk",
    "sequential_distk",
    "validate_distk",
    "jones_plassmann_bgpc",
    "jones_plassmann_d2gc",
    "rebalance_shuffle",
    "reduce_colors",
    "recolor_incremental",
    "IncrementalResult",
    "FASTPATH_MODES",
    "fastpath_color_bgpc",
    "fastpath_color_d2gc",
    "TraceEvent",
    "NullTracer",
    "RecordingTracer",
    "JsonlTracer",
    "profile_table",
    "__version__",
]
