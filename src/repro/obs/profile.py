"""Per-iteration breakdown tables — the shape of the paper's Figure 1.

A :class:`~repro.types.ColoringResult` already carries one
:class:`~repro.types.IterationRecord` per speculative round; this module
turns that list into the breakdown the paper leads with: how much of the
run each round costs, split into coloring and conflict removal, alongside
the conflict and palette-growth counters.  The CLI's ``--profile`` flag and
the bench harness's ``profile`` experiment both render these rows.

The per-iteration totals are guaranteed to sum to the end-to-end figure of
the run: simulated ``cycles`` for ``backend="sim"`` (phase timings include
every barrier and auxiliary sweep), measured ``wall_seconds`` for every
wall-clock backend — ``numpy``, ``process`` and ``sharded`` — with a
trailing *setup/overhead* row carrying everything outside the rounds
(layout build, kernel construction, worker pool spin-up).
"""

from __future__ import annotations

from repro.types import ColoringResult

__all__ = ["iteration_breakdown", "profile_table"]


def _share(part: float, total: float) -> float:
    return part / total if total > 0 else 0.0


def iteration_breakdown(result: ColoringResult) -> tuple[list[str], list[tuple]]:
    """``(header, rows)`` of the per-iteration breakdown of ``result``.

    Simulator runs (``backend="sim"``) report simulated cycles per phase;
    wall-clock backends (``numpy``, ``process``) report measured wall
    milliseconds per round.  The final ``total`` row sums exactly to
    ``result.cycles`` / ``result.wall_seconds`` respectively; wall-clock
    runs additionally get a ``setup`` row for the time spent outside the
    rounds (group-layout build, permutations, pool spin-up).
    """
    if result.backend != "sim":
        header = ["iter", "|W|", "conflicts", "colors+", "wall ms", "share"]
        rows: list[tuple] = []
        rounds_wall = 0.0
        for rec in result.iterations:
            rounds_wall += rec.wall_seconds
        total = result.wall_seconds if result.wall_seconds > 0 else rounds_wall
        for rec in result.iterations:
            rows.append(
                (
                    rec.index,
                    rec.queue_size,
                    rec.conflicts,
                    max(rec.colors_introduced, 0),
                    rec.wall_seconds * 1e3,
                    f"{_share(rec.wall_seconds, total):.1%}",
                )
            )
        setup = max(total - rounds_wall, 0.0)
        rows.append(
            ("setup", "-", "-", "-", setup * 1e3, f"{_share(setup, total):.1%}")
        )
        rows.append(
            (
                "total",
                "-",
                result.total_conflicts,
                result.num_colors,
                total * 1e3,
                "100.0%",
            )
        )
        return header, rows

    header = [
        "iter",
        "|W|",
        "conflicts",
        "colors+",
        "color cycles",
        "remove cycles",
        "cycles",
        "share",
    ]
    rows = []
    total = float(result.cycles)
    color_sum = remove_sum = 0.0
    for rec in result.iterations:
        color = rec.color_timing.cycles if rec.color_timing else 0.0
        remove = rec.remove_timing.cycles if rec.remove_timing else 0.0
        color_sum += color
        remove_sum += remove
        rows.append(
            (
                rec.index,
                rec.queue_size,
                rec.conflicts,
                max(rec.colors_introduced, 0),
                int(color),
                int(remove),
                int(rec.cycles),
                f"{_share(rec.cycles, total):.1%}",
            )
        )
    rows.append(
        (
            "total",
            "-",
            result.total_conflicts,
            result.num_colors,
            int(color_sum),
            int(remove_sum),
            int(color_sum + remove_sum),
            "100.0%",
        )
    )
    return header, rows


def profile_table(result: ColoringResult) -> str:
    """Rendered per-iteration breakdown (fixed-width ASCII table).

    The shape of the paper's Figure 1: one row per speculative round with
    its queue size, conflicts, palette growth, and cost split — plus a
    closing ``total`` row that matches the end-to-end ``cycles`` /
    ``wall_seconds`` of the run.
    """
    from repro.bench.tables import render_table

    header, rows = iteration_breakdown(result)
    unit = "simulated cycles" if result.backend == "sim" else "wall ms (measured)"
    title = (
        f"per-iteration breakdown — {result.algorithm}, backend "
        f"{result.backend}, {unit}"
    )
    return title + "\n" + render_table(header, rows)
