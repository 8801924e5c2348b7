"""Profile — per-iteration observability breakdown on both backends.

Not a paper table, but the measurement behind the paper's headline claim:
Figure 1 shows 78–89% of BGPC runtime concentrated in the first one or two
iterations, which is what justifies the hybrid ``V-N1``/``N1-N2`` kernel
schedules.  This experiment renders the :mod:`repro.obs` per-iteration
breakdown for a vertex-based baseline and the paper's winner on the
coPapers-like instance — on the simulator (cycles), on the NumPy fast
path, and on the worker-process pool (both in measured wall milliseconds)
— so the iteration-dominance shape can be eyeballed in one table.
"""

from __future__ import annotations

from repro.bench.runner import iteration_report, run_algorithm
from repro.bench.tables import Experiment

__all__ = ["run", "PROFILE_ALGS"]

#: (algorithm, backend, fastpath mode) combinations profiled.  Wall-clock
#: backends (numpy, process) report measured milliseconds per round.
PROFILE_ALGS = (
    ("V-V-64D", "sim", "exact"),
    ("N1-N2", "sim", "exact"),
    ("N1-N2", "numpy", "speculative"),
    ("V-V-64D", "process", "exact"),
)


def run(scale: str = "small", threads: int = 16, dataset: str = "copapers") -> Experiment:
    """Render the per-iteration breakdown table for the profile matrix."""
    header = [
        "run",
        "iter",
        "|W|",
        "conflicts",
        "colors+",
        "cost (cycles | wall ms)",
        "share",
    ]
    rows: list[tuple] = []
    first_share: dict[str, float] = {}
    combos = PROFILE_ALGS
    from repro.core.compiled import numba_available

    if numba_available():
        # Profile the numba-JIT twin next to numpy where it can run.
        combos = combos + (("N1-N2", "compiled", "speculative"),)
    for alg, backend, mode in combos:
        result = run_algorithm(
            dataset, alg, threads, scale, backend=backend, fastpath_mode=mode
        )
        label = f"{alg}/{backend}"
        for row in iteration_report(result, label=label):
            if backend == "sim":
                # Collapse the per-phase cycle columns into one cost cell.
                label_, it, w, conflicts, colors, _c, _r, cyc, share = row
                rows.append((label_, it, w, conflicts, colors, cyc, share))
            else:
                label_, it, w, conflicts, colors, ms, share = row
                rows.append((label_, it, w, conflicts, colors, round(ms, 3), share))
        total = result.cycles if backend == "sim" else result.wall_seconds
        if result.iterations and total > 0:
            first = result.iterations[0]
            first_cost = (
                first.cycles if backend == "sim" else first.wall_seconds
            )
            first_share[label] = first_cost / total
    notes_bits = ", ".join(
        f"{label}: {share:.0%}" for label, share in first_share.items()
    )
    notes = (
        f"first-iteration share of total cost — {notes_bits} "
        "(paper Figure 1: 78% of V-V runtime in round 1, 89% in rounds 1-2)."
    )
    return Experiment(
        id="profile",
        title=f"per-iteration observability breakdown on {dataset} "
        f"({threads} simulated threads)",
        header=header,
        rows=rows,
        notes=notes,
    )
