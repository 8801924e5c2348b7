"""Tests for the ``python -m repro`` coloring CLI."""

import numpy as np
import pytest

from repro.cli import main
from repro.graph import bipartite_from_dense, write_matrix_market


#: The summary's ``problem :`` clause per backend at ``--threads 2``.
PROBLEM_CLAUSES = {
    "sim": "2 simulated threads",
    "numpy": "numpy backend (exact mode)",
    "compiled": "compiled backend (numba, exact mode)",
    "process": "2 worker processes (process backend, shared memory)",
    "sharded": "2 shards (sharded backend, bfs partition)",
}


@pytest.fixture
def mtx_file(tmp_path, rng):
    pattern = (rng.random((20, 30)) < 0.15).astype(int)
    bg = bipartite_from_dense(pattern)
    path = tmp_path / "instance.mtx"
    write_matrix_market(bg, path)
    return path


@pytest.fixture
def symmetric_mtx(tmp_path, rng):
    base = (rng.random((25, 25)) < 0.1).astype(int)
    sym = ((base + base.T + np.eye(25, dtype=int)) > 0).astype(int)
    bg = bipartite_from_dense(sym)
    path = tmp_path / "sym.mtx"
    write_matrix_market(bg, path)
    return path


class TestCli:
    def test_default_bgpc(self, mtx_file, capsys):
        assert main([str(mtx_file)]) == 0
        out = capsys.readouterr().out
        assert "colors" in out
        assert "N1-N2" in out

    def test_sequential(self, mtx_file, capsys):
        assert main([str(mtx_file), "--algorithm", "sequential"]) == 0
        assert "sequential" in capsys.readouterr().out

    def test_d2gc_problem(self, symmetric_mtx, capsys):
        assert main([str(symmetric_mtx), "--problem", "d2gc"]) == 0
        assert "d2gc" in capsys.readouterr().out

    def test_ordering_and_policy(self, mtx_file, capsys):
        code = main(
            [str(mtx_file), "--ordering", "smallest-last", "--policy", "B2"]
        )
        assert code == 0

    def test_output_file(self, mtx_file, tmp_path, capsys):
        out_path = tmp_path / "colors.txt"
        assert main([str(mtx_file), "--output", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 30
        assert all(int(line) >= 0 for line in lines)

    def test_unknown_algorithm_rejected(self, mtx_file, capsys):
        # Free-form --algo strings go through the schedule parser; a bad
        # name is a graceful error listing the valid schedules, not a
        # bare KeyError or argparse SystemExit.
        assert main([str(mtx_file), "--algorithm", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown BGPC algorithm 'bogus'" in err
        assert "V-V" in err

    def test_algorithm_alias_accepted(self, mtx_file, capsys):
        # Aliases normalize through the grammar: '--algo v-n∞' is V-Ninf.
        assert main([str(mtx_file), "--algo", "v-n∞"]) == 0
        assert "V-Ninf" in capsys.readouterr().out

    def test_schedule_alias_flag(self, mtx_file, capsys):
        # --schedule is an alias of --algorithm; switched specs run too.
        assert main([str(mtx_file), "--schedule", "V-V-64D-B1@2"]) == 0
        assert "V-V-64D-B1@2" in capsys.readouterr().out

    def test_schedule_adaptive(self, mtx_file, capsys):
        assert main([str(mtx_file), "--schedule", "adaptive"]) == 0
        assert "adaptive" in capsys.readouterr().out

    def test_schedule_adaptive_threshold(self, mtx_file, capsys):
        assert main([str(mtx_file), "--schedule", "adaptive:0.2"]) == 0
        assert "adaptive:0.2" in capsys.readouterr().out

    def test_malformed_switch_segment_exits_2(self, mtx_file, capsys):
        assert main([str(mtx_file), "--schedule", "V-V-B1@"]) == 2
        err = capsys.readouterr().err
        assert "bad switch segment" in err

    def test_malformed_adaptive_exits_2(self, mtx_file, capsys):
        assert main([str(mtx_file), "--schedule", "adaptive:nope"]) == 2
        assert "cannot parse adaptive" in capsys.readouterr().err

    def test_adaptive_on_numpy_backend_exits_2(self, mtx_file, capsys):
        args = [str(mtx_file), "--schedule", "adaptive", "--backend", "numpy"]
        assert main(args) == 2
        assert "cannot run adaptive" in capsys.readouterr().err

    def test_threads_flag(self, mtx_file, capsys):
        assert main([str(mtx_file), "--threads", "4"]) == 0
        assert "4 simulated threads" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", sorted(PROBLEM_CLAUSES))
    def test_problem_line_per_backend(self, mtx_file, capsys, monkeypatch, backend):
        from repro.core.compiled import PURE_ENV

        monkeypatch.setenv(PURE_ENV, "1")  # compiled runs without numba
        args = [str(mtx_file), "--backend", backend, "--threads", "2",
                "--algorithm", "V-V-64D"]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == (
            f"problem  : bgpc, algorithm V-V-64D, {PROBLEM_CLAUSES[backend]}, "
            "ordering natural, policy U"
        )

    def test_process_backend(self, mtx_file, capsys):
        # End-to-end on the worker pool: validated coloring, wall-clock
        # line, and no shared-memory segment left behind.
        import glob

        before = set(glob.glob("/dev/shm/repro_shm_*"))
        code = main(
            [str(mtx_file), "--backend", "process", "--threads", "2",
             "--algorithm", "V-V-64D"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 worker processes (process backend, shared memory)" in out
        assert "wall" in out
        assert set(glob.glob("/dev/shm/repro_shm_*")) == before


class TestCliObservability:
    def test_profile_sim(self, mtx_file, capsys):
        assert main([str(mtx_file), "--profile"]) == 0
        out = capsys.readouterr().out
        assert "per-iteration breakdown" in out
        assert "backend sim" in out
        assert "total" in out

    def test_profile_numpy(self, mtx_file, capsys):
        assert main([str(mtx_file), "--backend", "numpy", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "backend numpy" in out
        assert "wall ms" in out
        assert "setup" in out

    def test_trace_writes_jsonl(self, mtx_file, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        assert main([str(mtx_file), "--trace", str(trace)]) == 0
        assert f"trace written to {trace}" in capsys.readouterr().out
        lines = trace.read_text().splitlines()
        assert lines
        assert all(json.loads(line)["name"] for line in lines)
        assert json.loads(lines[-1])["name"] == "run"

    def test_trace_with_sequential(self, mtx_file, tmp_path):
        trace = tmp_path / "seq.jsonl"
        code = main(
            [str(mtx_file), "--algorithm", "sequential", "--trace", str(trace)]
        )
        assert code == 0
        assert trace.exists() and trace.read_text().strip()


class TestCliErrors:
    def test_missing_file_graceful(self, capsys):
        assert main(["/nonexistent/never.mtx"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_d2gc_on_rectangular_graceful(self, mtx_file, capsys):
        # The 20x30 pattern cannot be symmetrized into a D2GC instance.
        assert main([str(mtx_file), "--problem", "d2gc"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_mtx_graceful(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("not a matrix market file\n")
        assert main([str(bad)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unreadable_path_graceful(self, tmp_path, capsys):
        # A directory path raises IsADirectoryError — an OSError like
        # ENOENT: one line, exit 2 (chmod tricks don't work under root).
        assert main([str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert len(err.strip().splitlines()) == 1

    def test_unwritable_output_graceful(self, mtx_file, capsys):
        code = main(
            [str(mtx_file), "--output", "/nonexistent/dir/colors.txt"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error" in err and len(err.strip().splitlines()) == 1

    def test_unwritable_trace_graceful(self, mtx_file, capsys):
        code = main(
            [str(mtx_file), "--trace", "/nonexistent/dir/trace.jsonl"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot write trace" in err
        assert len(err.strip().splitlines()) == 1

    def test_killed_worker_graceful(self, mtx_file, capsys, monkeypatch):
        # A worker crash surfaces as a one-line coloring error, exit 2 —
        # and the parent reclaims every shared segment on the way out.
        import glob

        monkeypatch.setenv("REPRO_PROCESS_FAULT", "kill")
        before = set(glob.glob("/dev/shm/repro_shm_*"))
        code = main(
            [str(mtx_file), "--backend", "process", "--threads", "2",
             "--algorithm", "V-V-64D"]
        )
        assert code == 2
        assert "worker process died" in capsys.readouterr().err
        assert set(glob.glob("/dev/shm/repro_shm_*")) == before


class TestCliDelta:
    """``--delta``: incremental recoloring from the CLI (docs/incremental.md)."""

    @pytest.fixture
    def delta_file(self, mtx_file, tmp_path):
        import json

        from repro.graph.mmio import read_matrix_market

        bg = read_matrix_market(mtx_file)
        existing = {
            (u, int(n)) for u in range(bg.num_vertices) for n in bg.nets(u)
        }
        delete = sorted(existing)[0]
        insert = next(
            (u, n)
            for u in range(bg.num_vertices)
            for n in range(bg.num_nets)
            if (u, n) not in existing
        )
        path = tmp_path / "delta.json"
        path.write_text(
            json.dumps({"insert": [list(insert)], "delete": [list(delete)]})
        )
        return path

    def test_delta_run_prints_savings(self, mtx_file, delta_file, tmp_path, capsys):
        out_path = tmp_path / "colors.txt"
        code = main(
            [str(mtx_file), "--algo", "V-V", "--delta", str(delta_file),
             "--output", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "delta    :" in out
        assert "frontier" in out
        assert "recolor  :" in out
        assert "saved    :" in out
        # --output writes the incremental colors of the mutated graph
        lines = out_path.read_text().splitlines()
        assert len(lines) == 30
        assert all(int(line) >= 0 for line in lines)

    def test_delete_only_zero_work_path(self, mtx_file, delta_file, tmp_path, capsys):
        import json

        payload = json.loads(delta_file.read_text())
        delta = tmp_path / "del.json"
        delta.write_text(json.dumps({"delete": payload["delete"]}))
        assert main([str(mtx_file), "--algo", "V-V", "--delta", str(delta)]) == 0
        assert "zero-work fast path" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, pattern",
        [
            (["--backend", "numpy"], "numpy"),
            (["--algorithm", "sequential"], "sequential"),
            (["--problem", "d2gc"], "bgpc"),
            (["--ordering", "smallest-last"], "natural"),
        ],
    )
    def test_incompatible_flags_exit_2(
        self, mtx_file, delta_file, capsys, flags, pattern
    ):
        code = main([str(mtx_file), "--delta", str(delta_file), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and pattern in err

    def test_bad_delta_files_exit_2(self, mtx_file, tmp_path, capsys):
        missing = main([str(mtx_file), "--delta", str(tmp_path / "nope.json")])
        assert missing == 2
        assert "cannot read delta" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text('{"bogus": []}')
        assert main([str(mtx_file), "--delta", str(bad)]) == 2
        assert "unknown delta fields" in capsys.readouterr().err
        phantom = tmp_path / "phantom.json"
        phantom.write_text('{"insert": [[0, 0], [0, 0]]}')
        # duplicate pairs canonicalize; inserting an existing edge is the
        # graceful ReproError path through _run
        code = main([str(mtx_file), "--delta", str(phantom)])
        assert code in (0, 2)
