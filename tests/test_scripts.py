"""Smoke runs of the experiment scripts, and the committed rate-scaling config."""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

from structmc import BenchConfig, NoiseKind, SolverConfig
from structmc.bench import bench_config_from_obj

ROOT = Path(__file__).resolve().parents[1]


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv", [
    ("selection_penalty", ["--n", "8", "--k", "2", "--s", "1", "--replicas", "1"]),
    ("threshold_events", ["--n", "12", "--replicas", "3"]),
])
def test_script_runs_on_tiny_arguments(name, argv, capsys):
    assert load_script(name).main(argv) == 0
    assert capsys.readouterr().out


def test_bench_layers_writes_one_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))    # the script prepends its --src
    out = tmp_path / "layers.json"
    assert load_script("bench_layers").main(["--repeat", "1", "--out", str(out)]) == 0
    run = json.loads(out.read_text())["runs"]["change"]
    assert len(run["min_s"]) == 9 and set(run["output"]) == set(run["min_s"])


def test_rate_scaling_config_matches_the_readme_and_the_former_script():
    obj = json.loads((ROOT / "scripts" / "rate_scaling.json").read_text())
    # the BenchConfig that scripts/rate_scaling.py built from its default arguments
    assert bench_config_from_obj(obj) == BenchConfig(
        family="sbm", grid=((20, 3), (40, 3), (80, 3)), p_values=(1.0,),
        noise=NoiseKind.gaussian(1.0), method="bcd", solver=SolverConfig(restarts=5),
        replicas=50, seed=1)
    readme = (ROOT / "README.md").read_text()
    assert json.loads(re.search(r"Config shape.*?```json\n(.*?)```", readme, re.S)[1]) == obj
    assert "structmc bench --config scripts/rate_scaling.json --out rows.csv" in readme
