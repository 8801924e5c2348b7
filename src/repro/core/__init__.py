"""The paper's contribution: parallel BGPC and D2GC algorithms.

Public entry points:

* :func:`repro.core.bgpc.color_bgpc` / :func:`repro.core.bgpc.sequential_bgpc`
* :func:`repro.core.d2gc.color_d2gc` / :func:`repro.core.d2gc.sequential_d2gc`
* :func:`repro.core.validate.validate_bgpc` / ``validate_d2gc``
* :func:`repro.core.metrics.color_stats`
* balancing policies in :mod:`repro.core.policies` (``B1Policy``, ``B2Policy``)
* schedule specs in :mod:`repro.core.plan` (``ScheduleSpec``,
  ``normalize_schedule_name``) — the paper's ``X-Y`` grammar, parsed
* execution backends in :mod:`repro.core.backends`
  (``register_backend``/``get_backend``; ``sim``, ``numpy``, ``process``)
* the vectorized NumPy backend in :mod:`repro.core.fastpath`
  (``fastpath_color_bgpc``, ``fastpath_color_d2gc``, ``run_fastpath``)
"""

from repro.core.backends import (
    ExecutionBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.core.plan import (
    PAPER_SCHEDULES,
    ScheduleSpec,
    normalize_schedule_name,
)
from repro.core.bgpc import color_bgpc, sequential_bgpc, BGPC_ALGORITHMS
from repro.core.d2gc import color_d2gc, sequential_d2gc, D2GC_ALGORITHMS
from repro.core.validate import (
    validate_bgpc,
    validate_d2gc,
    is_valid_bgpc,
    is_valid_d2gc,
    count_bgpc_conflict_vertices,
    count_d2gc_conflict_vertices,
)
from repro.core.metrics import color_stats, color_cardinalities
from repro.core.policies import FirstFit, B1Policy, B2Policy, POLICIES, get_policy
from repro.core.distk import (
    color_distk,
    sequential_distk,
    validate_distk,
    is_valid_distk,
)
from repro.core.balance import rebalance_shuffle, ShuffleResult
from repro.core.jp import jones_plassmann_bgpc, jones_plassmann_d2gc
from repro.core.incremental import IncrementalResult, recolor_incremental
from repro.core.recolor import reduce_colors, RecolorResult
from repro.core.fastpath import (
    FASTPATH_MODES,
    d2gc_groups_csr,
    fastpath_color_bgpc,
    fastpath_color_d2gc,
    run_fastpath,
)

__all__ = [
    "ScheduleSpec",
    "PAPER_SCHEDULES",
    "normalize_schedule_name",
    "ExecutionBackend",
    "backend_names",
    "get_backend",
    "register_backend",
    "color_bgpc",
    "sequential_bgpc",
    "BGPC_ALGORITHMS",
    "color_d2gc",
    "sequential_d2gc",
    "D2GC_ALGORITHMS",
    "validate_bgpc",
    "validate_d2gc",
    "is_valid_bgpc",
    "is_valid_d2gc",
    "count_bgpc_conflict_vertices",
    "count_d2gc_conflict_vertices",
    "color_stats",
    "color_cardinalities",
    "FirstFit",
    "B1Policy",
    "B2Policy",
    "POLICIES",
    "get_policy",
    "color_distk",
    "sequential_distk",
    "validate_distk",
    "is_valid_distk",
    "rebalance_shuffle",
    "ShuffleResult",
    "jones_plassmann_bgpc",
    "jones_plassmann_d2gc",
    "reduce_colors",
    "RecolorResult",
    "recolor_incremental",
    "IncrementalResult",
    "FASTPATH_MODES",
    "fastpath_color_bgpc",
    "fastpath_color_d2gc",
    "d2gc_groups_csr",
    "run_fastpath",
]
