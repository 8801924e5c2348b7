"""Tests for the perf-regression gate (:mod:`repro.bench.regress`).

The two contract-level properties from the gate's spec are pinned here:
an injected 2x probe-count inflation must be flagged as a regression, and
two consecutive collections on the same revision must serialize to
byte-for-byte identical JSON.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.regress import (
    BenchCase,
    collect,
    compare,
    default_suite,
    load,
    save,
    select_cases,
)
from repro.bench.regress.compare import inject, parse_injection
from repro.bench.regress.store import RegressError, dumps


# One fast case per backend family keeps this module well under a second.
FAST_CASES = [
    BenchCase("t/sim", "bgpc", "bip-small", "N1-N2", threads=4),
    BenchCase(
        "t/numpy", "bgpc", "bip-small", "N1-N2",
        backend="numpy", threads=1, fastpath_mode="speculative",
    ),
    BenchCase(
        "t/process", "bgpc", "bip-small", "N1-N2",
        backend="process", threads=1,
    ),
]


@pytest.fixture(scope="module")
def baseline():
    payload, advisory = collect(FAST_CASES, repeats=2)
    assert set(advisory) == {c.id for c in FAST_CASES}
    return payload


class TestStore:
    def test_rerun_is_byte_identical(self, baseline):
        again, _ = collect(FAST_CASES, repeats=1)
        assert dumps(again) == dumps(baseline)

    def test_save_load_roundtrip(self, baseline, tmp_path):
        path = tmp_path / "BENCH_x.json"
        save(baseline, path)
        assert load(path) == baseline
        # canonical form: trailing newline, sorted keys
        text = path.read_text()
        assert text.endswith("\n")
        assert text == json.dumps(baseline, indent=2, sort_keys=True) + "\n"

    def test_load_rejects_missing_and_malformed(self, tmp_path):
        with pytest.raises(RegressError, match="does not exist"):
            load(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(RegressError, match="not valid JSON"):
            load(bad)
        schemaless = tmp_path / "schemaless.json"
        schemaless.write_text('{"cases": {}, "schema": 99}')
        with pytest.raises(RegressError, match="schema"):
            load(schemaless)

    def test_metrics_include_behavior_and_sim_cycles(self, baseline):
        sim = baseline["cases"]["t/sim"]["metrics"]
        assert sim["num_colors"] > 0 and sim["iterations"] > 0
        assert sim["cycles"] > 0
        assert "cycles" not in baseline["cases"]["t/numpy"]["metrics"]


class TestCompare:
    def test_identical_runs_pass(self, baseline):
        report = compare(baseline, baseline)
        assert report.ok
        assert not report.failures
        assert "OK" in report.render()

    def test_injected_probe_inflation_is_flagged(self, baseline):
        current = json.loads(dumps(baseline))  # deep copy
        touched = inject(current, "probes", 2.0)
        assert touched == len(FAST_CASES)
        report = compare(baseline, current)
        assert not report.ok
        flagged = {(d.case, d.metric) for d in report.failures}
        # numpy's fastpath keeps probes at 0 (0 * 2 == 0): no false alarm.
        assert ("t/sim", "probes") in flagged
        assert ("t/process", "probes") in flagged
        assert ("t/numpy", "probes") not in flagged
        assert "FAIL" in report.render()
        assert "+100.0%" in report.render()

    def test_small_drift_within_band_passes(self, baseline):
        current = json.loads(dumps(baseline))
        scans = current["cases"]["t/sim"]["metrics"]["scans"]
        current["cases"]["t/sim"]["metrics"]["scans"] = int(scans * 1.01)
        assert compare(baseline, current, tolerance=0.02).ok
        assert not compare(baseline, current, tolerance=0.001).ok

    def test_improvement_passes_but_is_labelled(self, baseline):
        current = json.loads(dumps(baseline))
        current["cases"]["t/sim"]["metrics"]["probes"] //= 2
        report = compare(baseline, current)
        assert report.ok
        assert any(d.status == "improved" for d in report.deltas)
        assert "improved" in report.render()

    def test_exact_metrics_fail_in_both_directions(self, baseline):
        for delta in (+1, -1):
            current = json.loads(dumps(baseline))
            current["cases"]["t/sim"]["metrics"]["num_colors"] += delta
            report = compare(baseline, current)
            assert not report.ok
            assert any(d.status == "changed" for d in report.failures)

    def test_missing_case_fails_new_case_passes(self, baseline):
        current = json.loads(dumps(baseline))
        del current["cases"]["t/process"]
        current["cases"]["t/extra"] = {"metrics": {"tasks": 1}}
        report = compare(baseline, current)
        assert report.missing_cases == ["t/process"]
        assert report.new_cases == ["t/extra"]
        assert not report.ok

    def test_injection_parsing(self):
        assert parse_injection("probes=2") == ("probes", 2.0)
        assert parse_injection("scans=1.5") == ("scans", 1.5)
        with pytest.raises(RegressError):
            parse_injection("probes")
        with pytest.raises(RegressError):
            parse_injection("probes=lots")

    def test_injecting_unknown_metric_raises(self, baseline):
        current = json.loads(dumps(baseline))
        with pytest.raises(RegressError, match="matched no case"):
            inject(current, "typo_metric", 2.0)


class TestSuite:
    def test_default_suite_ids_unique_and_backends_covered(self):
        suite = default_suite()
        ids = [c.id for c in suite]
        assert len(ids) == len(set(ids))
        assert {c.backend for c in suite} == {
            "sim", "numpy", "process", "sharded"
        }
        # Real-parallel backends must be pinned to one worker (determinism).
        # Sharded is exempt: supersteps commit at barriers, so it is
        # deterministic at any shard count (see docs/sharding.md).
        for case in suite:
            if case.backend == "process":
                assert case.threads == 1, case.id

    def test_select_cases_glob(self):
        suite = default_suite()
        assert select_cases(suite, []) == suite
        bgpc = select_cases(suite, ["bgpc/*"])
        assert bgpc and all(c.id.startswith("bgpc/") for c in bgpc)
        assert select_cases(suite, ["nope*"]) == []

    def test_nondeterminism_is_an_error(self, monkeypatch):
        case = FAST_CASES[0]
        real_run = BenchCase.run
        calls = {"n": 0}

        def flaky_run(self, tracer=None):
            result = real_run(self, tracer)
            calls["n"] += 1
            if calls["n"] == 2:
                result.work_metrics["probes"] += 1
            return result

        monkeypatch.setattr(BenchCase, "run", flaky_run)
        with pytest.raises(RegressError, match="nondeterministic"):
            collect([case], repeats=2)


class TestCli:
    """Exit codes and wiring of ``python -m repro.bench regress``."""

    def _main(self, *argv):
        from repro.bench.regress.cli import main

        return main(list(argv))

    def test_list_and_usage_errors(self, capsys):
        assert self._main("--list") == 0
        out = capsys.readouterr().out
        assert "bgpc/N1-N2/sim16" in out
        assert self._main("--cases", "zzz*") == 2
        assert self._main() == 2  # neither --baseline nor --write

    def test_write_then_compare_roundtrip(self, tmp_path, capsys):
        base = tmp_path / "BENCH_base.json"
        head = tmp_path / "BENCH_head.json"
        args = ("--cases", "bgpc/N1-N2/sim16", "--repeats", "2")
        assert self._main("--write", str(base), *args) == 0
        assert self._main("--baseline", str(base), "--write", str(head), *args) == 0
        assert base.read_bytes() == head.read_bytes()
        assert "OK: no work-metric regressions" in capsys.readouterr().out

    def test_inject_trips_gate_with_exit_1(self, tmp_path, capsys):
        base = tmp_path / "BENCH_base.json"
        args = ("--cases", "bgpc/N1-N2/sim16", "--repeats", "1")
        assert self._main("--write", str(base), *args) == 0
        assert (
            self._main("--baseline", str(base), "--inject", "probes=2", *args)
            == 1
        )
        out = capsys.readouterr().out
        assert "regressed" in out and "FAIL" in out

    def test_inject_unknown_metric_fails_fast_with_exit_2(self, capsys):
        # Validated before the expensive collection runs: one line on
        # stderr listing the valid names, exit 2, no traceback.
        assert (
            self._main(
                "--baseline", "unused.json", "--inject", "typo_metric=2",
                "--cases", "bgpc/N1-N2/sim16",
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "unknown metric 'typo_metric'" in err
        assert "'probes'" in err and "'num_colors'" in err
        assert err.count("\n") == 1

    def test_inject_bad_spec_is_usage_error(self, capsys):
        assert (
            self._main(
                "--baseline", "unused.json", "--inject", "probes",
                "--cases", "bgpc/N1-N2/sim16",
            )
            == 2
        )
        assert "METRIC=FACTOR" in capsys.readouterr().err

    def test_missing_baseline_is_usage_error(self, tmp_path):
        assert (
            self._main(
                "--baseline", str(tmp_path / "nope.json"),
                "--cases", "bgpc/N1-N2/sim16", "--repeats", "1",
            )
            == 2
        )

    def test_bench_main_dispatches_regress(self, capsys):
        from repro.bench.__main__ import main as bench_main

        assert bench_main(["regress", "--list"]) == 0
        assert "bgpc/numpy-exact" in capsys.readouterr().out


class TestCommittedBaseline:
    """The repo-root BENCH_baseline.json must stay in sync with the code."""

    def test_committed_baseline_matches_current_code(self):
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "BENCH_baseline.json"
        baseline = load(path)
        current, _ = collect(default_suite(), repeats=1)
        report = compare(baseline, current)
        assert report.ok, (
            "committed BENCH_baseline.json disagrees with the current code:\n"
            + report.render()
            + "\nif the change is intentional, regenerate with "
            "`python -m repro.bench regress --write BENCH_baseline.json`"
        )
