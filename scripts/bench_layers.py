#!/usr/bin/env python3
"""Per-layer timings of the B-solve and the oracle and theory paths.

Times four layers, each as the minimum over --repeat calls on fixed seeds:

    b_solve        solve_b_given_xz on a block model, n = m = 320, k = 10, p = 0.5
    exact          exact_least_squares on a block model, n = 5, k = 2, p = 0.8
    critical_radius  the covering surrogate's fixed point on a 32 x 24 bounded
                   class with interval alphabets, k = 3, s = 1, u = 0.5
    packing        sparse_binary_packing(24, 3)

and stores them under --label in the JSON file --out, next to what other
labels already hold there, with the core count, the BLAS thread environment
and a fingerprint of each layer's output. --src picks the structmc source
tree to import, so one script times two checkouts on one machine:

    python3 scripts/bench_layers.py --out BENCH.json --label change
    python3 scripts/bench_layers.py --out BENCH.json --label parent --src ../old/src

Only numpy and the standard library are used.
"""

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

_REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to create or update")
    ap.add_argument("--label", default="change", help="key for this run in the file")
    ap.add_argument("--src", default=_REPO_SRC, help="structmc source tree to import")
    ap.add_argument("--repeat", type=int, default=9, help="calls per layer; the minimum is kept")
    ap.add_argument("--seed", type=int, default=6)
    return ap.parse_args(argv)


def layers(seed):
    """name -> (zero-argument call, fingerprint of its output)."""
    from structmc import (
        Alphabet, NoiseKind, ModelFamily, SolverConfig, StructureSpec, assemble, critical_radius,
        covering_min_bound, exact_least_squares, generate, observe, sample_mask,
        sample_noise, solve_b_given_xz, sparse_binary_packing,
    )

    def observed(n, k, p):
        fact, spec = generate(ModelFamily.sbm(n, k), seed)
        noise = NoiseKind.gaussian(0.5)
        theta = assemble(fact)
        obs = observe(theta, sample_mask(n, n, p, seed), sample_noise(noise, n, n, seed), p,
                      sigma=noise.proxy_sigma, b=noise.bound)
        return fact, spec, obs

    fact, _, obs = observed(320, 10, 0.5)
    _, tiny_spec, tiny_obs = observed(5, 2, 0.8)
    exact_cfg = SolverConfig(exhaustive_limit=10 ** 7)
    interval = Alphabet.interval(-1.0, 1.0)
    radius_spec = StructureSpec(n=32, m=24, k_n=3, k_m=3, s_n=1, s_m=1,
                                alphabet_n=interval, alphabet_m=interval,
                                b_max=1.0, theta_mx=1.0, bounded=True)
    return {
        "b_solve": (lambda: solve_b_given_xz(obs, fact.x, fact.z),
                    lambda b: repr(float(np.sum(np.abs(b))))),
        "exact": (lambda: exact_least_squares(tiny_obs, tiny_spec, exact_cfg),
                  lambda res: repr(res.objective)),
        "critical_radius": (lambda: critical_radius(32 * 24, covering_min_bound(radius_spec, 0.5)),
                            repr),
        "packing": (lambda: sparse_binary_packing(24, 3, seed=seed),
                    lambda pk: f"{len(pk.codewords)} codewords"),
    }


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    run = {
        "repeat": args.repeat,
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "blas_threads_env": {v: os.environ.get(v) for v in _THREAD_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "min_s": {},
        "output": {},
    }
    for name, (call, fingerprint) in layers(args.seed).items():
        out = call()                                   # warm-up, and the output checked
        times = []
        for _ in range(args.repeat):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        run["min_s"][name] = min(times)
        run["output"][name] = fingerprint(out)
        print(f"{name:<16} min {min(times) * 1e3:9.3f} ms   {run['output'][name]}")

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.setdefault("runs", {})[args.label] = run
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote run {args.label!r} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
