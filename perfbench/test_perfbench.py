"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, instances, offline  # noqa: E402

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def test_metric_names_and_units_are_well_formed():
    names = list(harness.END_TO_END) + list(harness.PER_LAYER)
    assert len(names) == len(set(names))
    for name, (unit, better) in {**harness.END_TO_END, **harness.PER_LAYER}.items():
        assert harness.NAME_RE.fullmatch(name), name
        assert harness.UNIT_RE.fullmatch(unit), (name, unit)
        assert better in ("higher", "lower")


def test_benchmark_json_matches_the_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert list(e2e) == list(harness.END_TO_END)
    for name, (unit, better) in harness.END_TO_END.items():
        assert (e2e[name]["unit"], e2e[name]["better"]) == (unit, better)
        assert 0 < e2e[name]["bound"] <= 0.25
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layers == harness.PER_LAYER


def test_tail_percentile_needs_ten_samples_beyond():
    assert harness.samples_for(95) == 200
    with pytest.raises(harness.InsufficientSamples):
        harness.tail_percentile(list(range(199)), 95)
    assert harness.tail_percentile(list(range(1, 201)), 95) == 190
    with pytest.raises(harness.InsufficientSamples):
        harness.tail_percentile(list(range(10)), 50)


@pytest.mark.parametrize("build", [
    instances.fastpath_instances,
    instances.sim_instances,
    instances.parallel_instances,
    lambda seed: [i for group in instances.service_graphs(seed).values()
                  for i in group],
])
def test_same_seed_gives_identical_inputs(build):
    first = [instances.fingerprint(i.graph) for i in build(3)]
    again = [instances.fingerprint(i.graph) for i in build(3)]
    other = [instances.fingerprint(i.graph) for i in build(4)]
    assert first == again
    assert first != other


def test_relabelling_and_insertions_follow_the_seed():
    bg = instances.service_graphs(1)["fresh"][0].graph
    a = instances.relabel(bg, np.random.default_rng(7))
    b = instances.relabel(bg, np.random.default_rng(7))
    assert instances.fingerprint(a) == instances.fingerprint(b)
    ins = instances.random_insertions(bg, 3, np.random.default_rng(7))
    assert ins == instances.random_insertions(bg, 3, np.random.default_rng(7))
    assert all(v not in bg.nets(u) for u, v in ins)


def test_invalid_coloring_counts_as_a_failure():
    inst = instances.Instance("tiny", "bgpc", instances.synthetic.channel_mesh(4, 4, 4))
    case = offline.Case("tiny/exact", inst, "fastpath", lambda tr: None)
    good = np.arange(inst.graph.num_vertices)
    tally = harness.Tally(attempted=3)
    offline.validate_outputs(
        [(case, good, 0, 0.0), (case, np.zeros_like(good), 0, 0.0),
         (case, np.zeros_like(good), 0, 0.0)], tally)
    assert tally.failed == 2
    assert tally.error_rate == pytest.approx(2 / 3)


def test_injected_invalid_coloring_fails_the_run():
    proc = subprocess.run(
        RUN + ["--workload", "sim", "--seed", "1", "--seconds", "0.1",
               "--inject-invalid"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert set(result["metrics"]) == set(harness.END_TO_END)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fastpath",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reaps_orphaned_grandchildren():
    # A child exits and leaves its own child running: the benchmark adopts
    # the orphan and waits for it, so nothing outlives the run.
    script = f"""
import os, subprocess, sys
sys.path.insert(0, {str(ROOT)!r})
from perfbench import harness
harness.adopt_orphans()
out = subprocess.run([sys.executable, "-c",
    "import subprocess; print(subprocess.Popen(['sleep', '0.5']).pid)"],
    capture_output=True, text=True, check=True).stdout
orphan = int(out)
harness.reap_children()
print(os.path.exists(f"/proc/{{orphan}}"))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "False"
