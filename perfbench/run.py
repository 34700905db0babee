"""structmc benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src. With
--trace 0 the workload runs a closed loop, one unit at a time, for S seconds
after set-up and one warm-up unit, and prints the end-to-end metrics of
BENCHMARK.json. With --trace 1 it runs a fixed number of units twice, first
plain and then with spans around every layer's public functions, and prints
the per-layer metrics plus the tracing overhead. Every unit's outputs are
checked; the last stdout line is the JSON result and the exit code is 1 when
any check failed. Results and spans are written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 4        # fresh interpreters timed for setup_s, plus this process
ENV_KEYS = ("SMC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# printed in the report; BENCHMARK.json bounds those whose spread a bound can hold
REPORT_UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms",
                "latency_p90_ms": "ms", "risk_ratio": "ratio", "fail_frac": "ratio",
                "peak_rss_mib": "MiB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time import + input set-up only and print the seconds")
    return ap.parse_args(argv)


def set_up(name, seed, workdir):
    """Import structmc and build the workload's inputs; returns (workload, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    workload = WORKLOADS[name](seed, workdir)
    return workload, time.perf_counter() - start


def probe_setup(name, seed) -> list[float]:
    """setup_s samples from fresh interpreters, which pay the import again."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def configuration() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "env": {k: os.environ.get(k) for k in ENV_KEYS},
    }


def config_differences(config) -> list[str]:
    with open(os.path.join(HERE, "expected_config.json")) as fh:
        expected = json.load(fh)
    return [f"{k}: expected {expected[k]!r}, got {config.get(k)!r}"
            for k in expected if config.get(k) != expected[k]]


def execute(workload, inp):
    """Run one unit (the only timed call); a unit that raises is kept as its exception."""
    start = time.perf_counter()
    try:
        out = workload.execute(inp)
    except Exception as exc:  # noqa: BLE001 - counted as a failed unit, the run goes on
        out = exc
    return time.perf_counter() - start, out


def run_unit(workload, unit):
    inp = workload.input(unit)
    seconds, out = execute(workload, inp)
    return seconds, workload.outcome(inp, out)


def timed_loop(workload, seconds):
    """The closed loop: units back to back until `seconds` of busy time."""
    busy, results, unit = 0.0, [], 0
    while busy < seconds or unit < workload.min_units:
        dt, res = run_unit(workload, unit)
        res.seconds = dt
        if res.latencies_ms is None:
            res.latencies_ms = [1e3 * dt] * res.units
        busy += dt
        results.append(res)
        unit += 1
    return busy, results


def end_to_end(workload, seconds, setup_samples):
    problems = workload.warm_up()
    busy, results = timed_loop(workload, seconds)
    problems += workload.finish()
    latencies = [x for r in results for x in r.latencies_ms]
    units = sum(r.units for r in results)
    risks = [x for r in results[:workload.min_units] for x in r.risks]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "throughput_per_s": units / busy,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "risk_ratio": statistics.fmean(risks) if risks else float("nan"),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"units": units, "latency_samples": len(latencies), "busy_s": busy,
              "unit_seconds": [r.seconds for r in results],
              "risk_samples": len(risks), "setup_samples": setup_samples}
    return metrics, results, problems, detail


def traced(workload, units):
    from tracing import Tracer, layer_metrics, leftover_wrappers
    problems = workload.warm_up()
    plain_runs = [run_unit(workload, u) for u in range(units)]
    plain = sum(seconds for seconds, _ in plain_runs)
    problems += [p for _, res in plain_runs for p in res.problems]
    tracer = Tracer()
    outputs = []
    busy = 0.0
    with tracer:
        for u in range(units):
            tracer.unit = u
            # rebuilt under the tracer, so the set-up layers show in the spans
            inp = workload.build(u)
            seconds, out = execute(workload, inp)
            busy += seconds
            outputs.append((inp, out))
    left = leftover_wrappers()
    if left:
        problems.append(f"wrappers left installed: {left}")
    results = [workload.outcome(inp, out) for inp, out in outputs]
    problems += workload.finish()
    done = sum(r.units for r in results)
    metrics = layer_metrics(tracer.spans)
    metrics["trace.untraced_throughput_per_s"] = done / plain
    metrics["trace.traced_throughput_per_s"] = done / busy
    metrics["trace.overhead_frac"] = 1.0 - plain / busy
    return metrics, results, problems, tracer, {"units": done, "spans": len(tracer.spans)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "structmc", "__init__.py")):
        print(f"error: no structmc package under {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # the program's own calibration warnings are expected on these sizes
    warnings.simplefilter("ignore")
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload, setup_seconds = set_up(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(setup_seconds)
            return 0
        config = configuration()
        flags = config_differences(config)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics, results, problems, tracer, detail = traced(workload, workload.trace_units)
            tracer.write(os.path.join(OUT, f"{tag}-spans.jsonl"))
            wanted = spec["per_layer"]
        else:
            setup_samples = [setup_seconds] + probe_setup(args.workload, args.seed)
            metrics, results, problems, detail = end_to_end(workload, args.seconds, setup_samples)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.units for r in results)
    failed = sum(r.failed for r in results)
    problems += [p for r in results for p in r.problems]
    correct = not problems and failed == 0
    metrics.setdefault("fail_frac", failed / attempted)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "config": config, "config_differs": flags,
              "problems": problems, "detail": detail,
              "all_metrics": metrics, "result": result}
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# config {json.dumps(config)}")
    if flags:
        print(f"# CONFIG DIFFERS from perfbench/expected_config.json: {'; '.join(flags)}")
    for p in problems:
        print(f"# CHECK FAILED: {p}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {json.dumps(detail)}")
    units = {**REPORT_UNITS, **{m["name"]: m["unit"] for m in wanted}}
    for name, value in metrics.items():
        print(f"#   {name} {value:.6g} {units[name]}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
