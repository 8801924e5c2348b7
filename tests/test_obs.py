"""Tests for the observability layer (:mod:`repro.obs`).

Covers the three tracers (null / recording / jsonl), the agreement between
emitted events and the per-round :class:`~repro.types.IterationRecord`
counters on both backends, and the profile tables whose per-iteration
totals must sum to the end-to-end figures.
"""

import json

import numpy as np
import pytest

from repro import color_bgpc, color_d2gc, sequential_bgpc
from repro.datasets import random_bipartite, random_graph
from repro.obs import (
    NULL_TRACER,
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    TraceEvent,
    ensure_tracer,
    iteration_breakdown,
    profile_table,
    read_jsonl_trace,
)


@pytest.fixture(scope="module")
def bg():
    return random_bipartite(30, 50, density=0.1, seed=61)


@pytest.fixture(scope="module")
def g():
    return random_graph(40, 120, seed=7)


class TestNullTracer:
    def test_disabled_and_silent(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        assert tracer.counter("x", 1.0, foo=1) is None
        assert tracer.event("span", "x", 1.0) is None

    def test_span_is_shared_noop(self):
        tracer = NullTracer()
        span_a = tracer.span("a", k=1)
        span_b = tracer.span("b")
        assert span_a is span_b  # one shared singleton, no allocation
        with span_a as s:
            s.set(anything="ignored")  # still a no-op

    def test_ensure_tracer_defaults_to_shared_null(self):
        assert ensure_tracer(None) is NULL_TRACER
        tracer = RecordingTracer()
        assert ensure_tracer(tracer) is tracer

    def test_null_tracer_does_not_change_results(self, bg):
        base = color_bgpc(bg, algorithm="N1-N2", threads=8)
        nulled = color_bgpc(bg, algorithm="N1-N2", threads=8, tracer=NullTracer())
        assert np.array_equal(base.colors, nulled.colors)
        assert base.cycles == nulled.cycles

    def test_recording_tracer_does_not_change_results(self, bg):
        base = color_bgpc(bg, algorithm="V-N2", threads=8)
        traced = color_bgpc(bg, algorithm="V-N2", threads=8, tracer=RecordingTracer())
        assert np.array_equal(base.colors, traced.colors)
        assert base.cycles == traced.cycles


class TestRecordingTracerSim:
    @pytest.fixture(scope="class")
    def traced(self, bg):
        tracer = RecordingTracer()
        result = color_bgpc(bg, algorithm="N1-N2", threads=8, tracer=tracer)
        return tracer, result

    def test_one_iteration_span_per_record(self, traced):
        tracer, result = traced
        spans = tracer.spans("iteration")
        assert len(spans) == result.num_iterations
        assert [s.attrs["iteration"] for s in spans] == [
            rec.index for rec in result.iterations
        ]

    def test_iteration_attrs_match_records(self, traced):
        tracer, result = traced
        for span, rec in zip(tracer.spans("iteration"), result.iterations):
            assert span.attrs["queue_size"] == rec.queue_size
            assert span.attrs["conflicts"] == rec.conflicts
            assert span.attrs["colors_introduced"] == rec.colors_introduced
            assert span.attrs["cycles"] == rec.cycles

    def test_phase_spans_carry_kind_and_cycles(self, traced):
        tracer, result = traced
        phases = tracer.spans("phase")
        assert len(phases) == 2 * result.num_iterations
        # N1-N2: net coloring in round 0, vertex afterwards; net removal
        # for two rounds.
        assert phases[0].attrs["kind"] == "net"
        for span, rec in zip(phases[0::2], result.iterations):
            assert span.attrs["phase"] == "color"
            assert span.attrs["cycles"] == rec.color_timing.cycles
        for span, rec in zip(phases[1::2], result.iterations):
            assert span.attrs["phase"] == "remove"
            assert span.attrs["cycles"] == rec.remove_timing.cycles

    def test_machine_counters_sum_to_total_cycles(self, traced):
        tracer, result = traced
        assert tracer.total("machine.phase_cycles") == result.cycles

    def test_run_span_totals(self, traced):
        tracer, result = traced
        (run,) = tracer.spans("run")
        assert run.attrs["cycles"] == result.cycles
        assert run.attrs["num_colors"] == result.num_colors
        assert run.attrs["iterations"] == result.num_iterations

    def test_event_ordering_phases_inside_iterations(self, traced):
        tracer, _ = traced
        names = [e.name for e in tracer.events if e.type == "span"]
        # Per round: color phase, remove phase, then the enclosing iteration
        # span closes; the run span closes last.
        assert names[-1] == "run"
        per_round = names[:-1]
        assert all(
            per_round[i : i + 3] == ["phase", "phase", "iteration"]
            for i in range(0, len(per_round), 3)
        )

    def test_sequential_run_traced(self, bg):
        tracer = RecordingTracer()
        result = sequential_bgpc(bg, tracer=tracer)
        (run,) = tracer.spans("run")
        assert run.attrs["algorithm"] == "sequential"
        assert run.attrs["cycles"] == result.cycles
        assert len(tracer.spans("phase")) == 1
        assert result.iterations[0].colors_introduced == result.num_colors


class TestRecordingTracerFastpath:
    @pytest.mark.parametrize("mode", ["exact", "speculative"])
    def test_round_events_match_records_bgpc(self, bg, mode):
        tracer = RecordingTracer()
        result = color_bgpc(bg, backend="numpy", fastpath_mode=mode, tracer=tracer)
        rounds = tracer.spans("round")
        assert len(rounds) == result.num_iterations
        for event, rec in zip(rounds, result.iterations):
            assert event.attrs["mode"] == mode
            assert event.attrs["iteration"] == rec.index
            assert event.attrs["queue_size"] == rec.queue_size
            assert event.attrs["conflicts"] == rec.conflicts
            assert event.attrs["colors_introduced"] == rec.colors_introduced
            assert event.value == rec.wall_seconds
        (setup,) = tracer.spans("setup")
        assert setup.attrs["vertices"] == bg.num_vertices
        assert setup.attrs["groups"] == bg.num_nets

    @pytest.mark.parametrize("mode", ["exact", "speculative"])
    def test_round_events_match_records_d2gc(self, g, mode):
        tracer = RecordingTracer()
        result = color_d2gc(g, backend="numpy", fastpath_mode=mode, tracer=tracer)
        rounds = tracer.spans("round")
        assert len(rounds) == result.num_iterations
        for event, rec in zip(rounds, result.iterations):
            assert event.attrs["conflicts"] == rec.conflicts
            assert event.value == rec.wall_seconds

    def test_colors_introduced_sums_to_palette(self, bg):
        for mode in ("exact", "speculative"):
            result = color_bgpc(bg, backend="numpy", fastpath_mode=mode)
            assert (
                sum(rec.colors_introduced for rec in result.iterations)
                == result.num_colors
            )

    def test_sim_colors_introduced_reaches_palette(self, bg):
        # The simulator counter tracks the palette high-water mark, which a
        # net-based removal can overshoot (reset colors are not retired).
        result = color_bgpc(bg, algorithm="N1-N2", threads=8)
        assert (
            sum(rec.colors_introduced for rec in result.iterations)
            >= result.num_colors
        )

    def test_round_walls_bounded_by_total(self, bg):
        result = color_bgpc(bg, backend="numpy")
        rounds_wall = sum(rec.wall_seconds for rec in result.iterations)
        assert 0 < rounds_wall <= result.wall_seconds


class TestJsonlTracer:
    def test_round_trips_valid_json_lines(self, bg, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTracer(path) as tracer:
            color_bgpc(bg, algorithm="V-N2", threads=4, tracer=tracer)
        lines = path.read_text().splitlines()
        assert lines
        for line in lines:
            payload = json.loads(line)  # every line is valid JSON
            assert set(payload) == {"type", "name", "value", "attrs"}
        events = list(read_jsonl_trace(path))
        assert len(events) == len(lines)
        assert all(isinstance(e, TraceEvent) for e in events)
        assert events[-1].name == "run"

    def test_matches_recording_tracer(self, bg, tmp_path):
        path = tmp_path / "trace.jsonl"
        recorder = RecordingTracer()
        with JsonlTracer(path) as tracer:
            color_bgpc(bg, backend="numpy", tracer=tracer)
        color_bgpc(bg, backend="numpy", tracer=recorder)
        streamed = list(read_jsonl_trace(path))
        assert [(e.type, e.name) for e in streamed] == [
            (e.type, e.name) for e in recorder.events
        ]
        # Deterministic attributes agree event-by-event (walls differ).
        for a, b in zip(streamed, recorder.events):
            for key in ("iteration", "queue_size", "conflicts", "colors_introduced"):
                assert a.attrs.get(key) == b.attrs.get(key)

    def test_failing_run_leaves_parseable_trace(self, bg, tmp_path, monkeypatch):
        # Per-event flush: a run that dies mid-flight (here: a worker
        # process killed by fault injection) must still leave a trace whose
        # every line parses — no truncated tail, no leaked handle.
        from repro.errors import ColoringError

        monkeypatch.setenv("REPRO_PROCESS_FAULT", "kill")
        path = tmp_path / "crash.jsonl"
        with pytest.raises(ColoringError, match="worker process died"):
            with JsonlTracer(path) as tracer:
                color_bgpc(
                    bg,
                    algorithm="V-V-64D",
                    threads=2,
                    backend="process",
                    tracer=tracer,
                )
        lines = path.read_text().splitlines()
        assert lines  # open spans emit on the exception path
        for line in lines:
            payload = json.loads(line)
            assert set(payload) == {"type", "name", "value", "attrs"}

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = JsonlTracer(path)
        tracer.counter("x", 1.0)
        tracer.close()
        tracer.close()  # second close is a no-op, not an error
        assert json.loads(path.read_text())["name"] == "x"

    def test_borrowed_file_object_left_open(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            tracer = JsonlTracer(fh)
            tracer.counter("x", 2.0)
            tracer.close()
            assert not fh.closed  # borrowed handles are not closed
        assert json.loads(path.read_text())["value"] == 2.0


class TestProfileTables:
    def test_sim_breakdown_sums_to_cycles(self, bg):
        result = color_bgpc(bg, algorithm="N1-N2", threads=8)
        header, rows = iteration_breakdown(result)
        assert rows[-1][0] == "total"
        total_cycles = rows[-1][header.index("cycles")]
        assert total_cycles == int(result.cycles)
        per_round = sum(row[header.index("cycles")] for row in rows[:-1])
        assert per_round == total_cycles

    def test_numpy_breakdown_sums_to_wall(self, bg):
        result = color_bgpc(bg, backend="numpy")
        header, rows = iteration_breakdown(result)
        assert rows[-2][0] == "setup" and rows[-1][0] == "total"
        col = header.index("wall ms")
        assert sum(row[col] for row in rows[:-1]) == pytest.approx(rows[-1][col])
        assert rows[-1][col] == pytest.approx(result.wall_seconds * 1e3)

    def test_rendered_table_mentions_backend(self, bg):
        sim = profile_table(color_bgpc(bg, threads=4))
        fast = profile_table(color_bgpc(bg, backend="numpy"))
        assert "backend sim" in sim and "simulated cycles" in sim
        assert "backend numpy" in fast and "wall ms" in fast

    def test_bench_iteration_report_labels_rows(self, bg):
        from repro.bench.runner import iteration_report

        result = color_bgpc(bg, threads=4)
        rows = iteration_report(result, label="N1-N2/sim")
        assert all(row[0] == "N1-N2/sim" for row in rows)
        assert len(rows) == result.num_iterations + 1  # + total row


class TestWorkMetrics:
    """``work.<metric>`` counters and ``ColoringResult.work_metrics``."""

    def test_sim_counters_match_result_totals(self, bg):
        from repro.obs import WORK_METRICS

        tracer = RecordingTracer()
        result = color_bgpc(bg, algorithm="N1-N2", threads=8, tracer=tracer)
        assert set(result.work_metrics) == set(WORK_METRICS)
        for metric in WORK_METRICS:
            assert tracer.total(f"work.{metric}") == result.work_metrics[metric]
        # A speculative run always does real work in these buckets.
        assert result.work_metrics["tasks"] > 0
        assert result.work_metrics["probes"] > 0
        assert result.work_metrics["scans"] > 0
        assert result.work_metrics["conflict_checks"] > 0
        assert result.work_metrics["color_writes"] >= result.colors.size

    def test_work_events_carry_phase_attrs(self, bg):
        tracer = RecordingTracer()
        color_bgpc(bg, algorithm="N1-N2", threads=8, tracer=tracer)
        events = tracer.counters("work.tasks")
        assert events, "no work.tasks counters emitted"
        for ev in events:
            assert ev.attrs["phase"] in ("color", "remove")
            assert ev.attrs["kind"] in ("vertex", "net")
            assert ev.attrs["iteration"] >= 0

    def test_numpy_backend_attaches_work_metrics(self, bg):
        from repro.obs import WORK_METRICS
        from repro.obs.work import FASTPATH_METRICS

        tracer = RecordingTracer()
        result = color_bgpc(
            bg, backend="numpy", fastpath_mode="speculative", tracer=tracer
        )
        # The work vocabulary plus the speculative engine's bitset
        # structure extras (see FASTPATH_METRICS).
        assert set(result.work_metrics) == set(WORK_METRICS) | set(
            FASTPATH_METRICS
        )
        assert result.work_metrics["tasks"] >= result.colors.size
        for metric in WORK_METRICS:
            assert tracer.total(f"work.{metric}") == result.work_metrics[metric]

    def test_sequential_baseline_counts_work(self, bg):
        result = sequential_bgpc(bg)
        assert result.work_metrics["tasks"] == bg.num_vertices
        assert result.work_metrics["color_writes"] == bg.num_vertices
        assert result.work_metrics["conflict_checks"] == 0

    def test_d2gc_counters(self, g):
        tracer = RecordingTracer()
        result = color_d2gc(g, algorithm="N1-N2", threads=8, tracer=tracer)
        assert result.work_metrics["scans"] > 0
        assert tracer.total("work.scans") == result.work_metrics["scans"]

    def test_process_single_worker_matches_sim(self, bg):
        """A one-worker process run follows the same schedule as the
        simulator's task order, so its work totals must agree with a
        single-thread sim run."""
        sim = color_bgpc(bg, algorithm="N1-N2", threads=1).work_metrics
        proc = color_bgpc(bg, algorithm="N1-N2", threads=1, backend="process").work_metrics
        assert proc == sim
