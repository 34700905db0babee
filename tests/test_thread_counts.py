"""The same seed gives the same bytes at one and at two BLAS threads.

structmc bench with bcd (sbm and biclustering grids, p in {1, 0.5}) and
structmc packing (--kind code, tz and tb) run in one subprocess per thread
count, with OPENBLAS_NUM_THREADS and OMP_NUM_THREADS set to 1 and then 2;
every output file must be byte-identical across the two. svt is left out:
its SVD's last bits depend on the thread count at n = 320 (ROADMAP item 5).
"""

import json
import os
import subprocess
import sys
import time

BINARY = {"kind": "finite", "values": [0.0, 1.0]}
NOISE = {"kind": "gaussian", "sigma": 0.5}
BENCHES = {
    "sbm": {"family": "sbm", "grid": [[40, 3], [320, 4]], "p": [1.0, 0.5], "noise": NOISE,
            "method": "bcd", "solver": {"restarts": 2}, "replicas": 2, "seed": 1},
    "biclustering": {"family": "biclustering", "grid": [[24, 20, 2, 3], [240, 200, 3, 2]],
                     "p": [1.0, 0.5], "noise": NOISE, "method": "bcd",
                     "solver": {"restarts": 2}, "replicas": 2, "seed": 2},
}
SPECS = {
    "tz": {"n": 24, "m": 10, "k_n": 24, "k_m": 6, "s_n": 1, "s_m": 2,
           "alphabet_n": BINARY, "alphabet_m": BINARY, "b_max": 2.0, "theta_mx": 5.0,
           "bounded": True},
    "tb": {"n": 12, "m": 12, "k_n": 6, "k_m": 6, "s_n": 1, "s_m": 1,
           "alphabet_n": BINARY, "alphabet_m": BINARY, "b_max": 2.0, "theta_mx": 5.0,
           "bounded": True},
}
RUNNER = """
import json, sys
from structmc.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        sys.exit(f"exit {code}: {argv}")
"""


def invocations(inputs, out):
    calls = [["bench", "--config", str(inputs / f"{name}.json"), "--out", str(out / f"{name}.csv")]
             for name in BENCHES]
    calls.append(["packing", "--kind", "code", "--k", "24", "--s", "3", "--seed", "7",
                  "--out", str(out / "code.json")])
    calls.append(["packing", "--kind", "tz", "--spec", str(inputs / "tz.json"), "--p", "0.7",
                  "--c0", "0.5", "--cap", "8", "--seed", "7", "--out", str(out / "tz.json")])
    calls.append(["packing", "--kind", "tb", "--spec", str(inputs / "tb.json"), "--p", "0.7",
                  "--c0", "0.8", "--cap", "16", "--seed", "7", "--out", str(out / "tb.json")])
    return calls


def test_outputs_are_identical_at_one_and_two_blas_threads(tmp_path):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for name, obj in {**BENCHES, **SPECS}.items():
        (inputs / f"{name}.json").write_text(json.dumps(obj))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    start = time.perf_counter()
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-W", "ignore", "-c", RUNNER,
                        json.dumps(invocations(inputs, out))],
                       env=env, check=True, capture_output=True, timeout=120)
        outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert sorted(outputs["1"]) == ["biclustering.csv", "code.json", "sbm.csv", "tb.json", "tz.json"]
    for name, data in outputs["1"].items():
        assert data, name
        assert data == outputs["2"][name], f"{name} differs between 1 and 2 BLAS threads"
    assert time.perf_counter() - start < 20.0
