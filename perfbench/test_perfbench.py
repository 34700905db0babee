"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Runs each workload's traced run twice at one seed, so it takes about three
minutes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import structmc  # noqa: E402
from structmc import bench, estimators  # noqa: E402
from tracing import TRACED, Tracer, layer_metrics, leftover_wrappers  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# counts a change may cite as exact: two traced runs at one seed must agree
REPEATING = ("linalg.pinv.calls", "linalg.lstsq.calls", "estimators.bcd.sweeps",
             "estimators.exact.pairs", "rates.covering_bounds.calls", "bench.tasks")


def traced_run(workload, seed=3):
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.fixture(scope="module")
def traced_pairs():
    return {w["name"]: (traced_run(w["name"]), traced_run(w["name"])) for w in SPEC["workloads"]}


def test_traced_counts_repeat_exactly(traced_pairs):
    for workload, (first, second) in traced_pairs.items():
        assert {k: first[k] for k in REPEATING} == {k: second[k] for k in REPEATING}, workload


def test_traced_runs_cover_their_layers(traced_pairs):
    runs = {w: first for w, (first, _) in traced_pairs.items()}
    assert runs["sbm_grid"]["bench.tasks"] == 60 and runs["sbm_grid"]["bench.failed"] == 0
    assert runs["sbm_grid"]["cli.self_s"] > 0
    assert runs["masked_completion"]["linalg.lstsq.calls"] > 0
    assert runs["adaptive_interval"]["estimators.adaptive.calls"] == 2
    # three units, each enumerating 3^n x 3^n pairs at n = 4 and n = 5
    assert runs["certify"]["estimators.exact.pairs"] == 3 * ((3 ** 4) ** 2 + (3 ** 5) ** 2)
    assert runs["certify"]["rates.covering_bounds.calls"] > 10_000
    for metrics in runs.values():
        assert metrics["estimators.bcd.sweeps"] > 0 and metrics["linalg.pinv.calls"] > 0


def test_per_layer_names_match_the_tracer():
    names = set(layer_metrics([])) | {"trace.untraced_throughput_per_s",
                                      "trace.traced_throughput_per_s", "trace.overhead_frac"}
    assert names == {m["name"] for m in SPEC["per_layer"]}


def test_wrappers_cover_every_binding_and_are_removed():
    originals = {(mod, attr): getattr(sys.modules[mod] if mod in sys.modules
                                      else __import__(mod, fromlist=[attr]), attr)
                 for mod, attr, _ in TRACED}
    tracer = Tracer()
    with tracer:
        # bench and the package namespace bound the estimator by name
        assert bench.block_coordinate_ls is not originals[("structmc.estimators", "block_coordinate_ls")]
        assert structmc.block_coordinate_ls is bench.block_coordinate_ls
        assert np.linalg.pinv is not originals[("numpy.linalg", "pinv")]
        assert leftover_wrappers()
        tracer.unit = 0
        obs = structmc.Observation(y=np.eye(3), mask=np.ones((3, 3)), p=1.0)
        estimators.solve_b_given_xz(obs, np.eye(3), np.eye(3))
    assert leftover_wrappers() == []
    for (mod, attr), original in originals.items():
        assert getattr(sys.modules[mod], attr) is original
    assert bench.block_coordinate_ls is originals[("structmc.estimators", "block_coordinate_ls")]
    names = [rec[0] for rec in tracer.spans]
    assert names.count("estimators.solve_b") == 1 and names.count("linalg.pinv") == 2
    pinv = [rec for rec in tracer.spans if rec[0] == "linalg.pinv"]
    assert all(rec[3][0] == "estimators.solve_b" for rec in pinv)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
