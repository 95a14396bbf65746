"""Self-test of the benchmark.

Run from the repository root (about two minutes on one core):

    python3 -m pytest perfbench/test_counts.py

Two traced runs of each workload, on different seeds, must report the same
exact counts; self times under solver.step must add up to its total time;
the metric names must match BENCHMARK.json; and without the hallmhd sources
the benchmark must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

COUNT_UNITS = ("count", "bytes", "fields/rhs", "ratio")


def _traced(workload, seed):
    subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, check=True, capture_output=True,
    )
    with open(os.path.join(ROOT, ".perfbench", "results", f"{workload}-seed{seed}-trace1.json")) as fh:
        return json.load(fh)


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_counts_repeat_exactly(workload):
    first, second = _traced(workload, 1), _traced(workload, 2)
    assert first["failed"] == second["failed"] == 0
    units = run.per_layer_units()
    counts = {k: v["value"] for k, v in first["metrics"].items() if units[k] in COUNT_UNITS}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    for result in (first, second):
        extras = result["extras"]
        total, selfs = extras["solver.step.s"]["value"], extras["solver.step.subtree_self_s"]["value"]
        assert abs(total - selfs) <= 1e-9 * max(total, 1.0)


def test_names_match_benchmark_json():
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [m["name"] for m in bench["end_to_end"]] == ["setup_s", "wall_norm_s", "peak_rss_mb"]


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        _bench()["command"] + ["--workload", "beltrami32", "--seed", "1", "--seconds", "1",
                               "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
