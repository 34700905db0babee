#!/usr/bin/env python3
"""Per-layer timings of the B-solve, one bcd fit, and the oracle and theory paths.

Times nine layers, each as the minimum over --repeat calls on fixed seeds:

    b_solve        solve_b_given_xz on a block model, n = m = 320, k = 10, p = 0.5
                   (one-hot factors: the diagonal Gram)
    b_solve_dense  solve_b_given_xz on a mixed-membership model, n = m = 60,
                   k = 3, s = 2, p = 0.5 (2-sparse interval rows: the eigh path)
    bcd            block_coordinate_ls on a block model, n = m = 80, k = 3, p = 1,
                   5 restarts
    bcd_interval   block_coordinate_ls on the adaptive acceptance test's instance:
                   generic n = m = 30, k = 4, s = 2, interval [-1, 1], bounded,
                   sigma = 0.05, p = 1, 1 restart, at most 100 sweeps, tol 1e-6
                   (replica 0, the cell (2, 2))
    bcd_interval_masked  block_coordinate_ls on a mixed-membership model, n = m = 60,
                   k = 3, s = 2, p = 0.5, uniform noise b = 0.5, 2 restarts
                   (interval rows with per-row masks)
    exact          exact_least_squares on a block model, n = 5, k = 2, p = 0.8
    critical_radius  the covering surrogate's fixed point on a 32 x 24 bounded
                   class with interval alphabets, k = 3, s = 1, u = 0.5
    packing        sparse_binary_packing(24, 3)
    hypothesis_sets  build_t_z (cap 8) and build_t_b (cap 16) on bounded binary
                   classes, sigma = 1, p = 0.7: 24 x 10 with k = (24, 6),
                   s = (1, 2), and 12 x 12 with k = 6, s = 1

and stores them under --label in the JSON file --out, next to what other
labels already hold there, with the core count, the BLAS thread environment
and a fingerprint of each layer's output. Each layer is timed in a fresh
interpreter (the script runs itself with --layer), so no layer's minimum
depends on the allocator state an earlier layer left. --src picks the
structmc source tree to import, so one script times two checkouts on one
machine:

    python3 scripts/bench_layers.py --out BENCH.json --label change
    python3 scripts/bench_layers.py --out BENCH.json --label parent --src ../old/src

Only numpy and the standard library are used.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
import warnings

import numpy as np

_REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


LAYERS = ("b_solve", "b_solve_dense", "bcd", "bcd_interval", "bcd_interval_masked", "exact",
          "critical_radius", "packing", "hypothesis_sets")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="JSON file to create or update (required without --layer)")
    ap.add_argument("--layer", choices=LAYERS,
                    help="time this layer alone and print its result as JSON on stdout")
    ap.add_argument("--label", default="change", help="key for this run in the file")
    ap.add_argument("--src", default=_REPO_SRC, help="structmc source tree to import")
    ap.add_argument("--repeat", type=int, default=9, help="calls per layer; the minimum is kept")
    ap.add_argument("--seed", type=int, default=6)
    args = ap.parse_args(argv)
    if args.out is None and args.layer is None:
        ap.error("--out is required")
    return args


def layers(seed):
    """name -> (zero-argument call, fingerprint of its output)."""
    from structmc import (
        Alphabet, NoiseKind, ModelFamily, SolverConfig, StructureSpec, assemble,
        block_coordinate_ls, build_t_b, build_t_z, critical_radius, covering_min_bound,
        derive_seed, exact_least_squares, generate, observe, sample_mask, sample_noise,
        solve_b_given_xz, sparse_binary_packing,
    )

    def observed(family, p, noise=NoiseKind.gaussian(0.5)):
        fact, spec = generate(family, seed)
        theta = assemble(fact)
        n = len(theta)
        obs = observe(theta, sample_mask(n, n, p, seed), sample_noise(noise, n, n, seed), p,
                      sigma=noise.proxy_sigma, b=noise.bound)
        return fact, spec, obs

    fact, _, obs = observed(ModelFamily.sbm(320, 10), 0.5)
    dense_fact, _, dense_obs = observed(ModelFamily.mixed_membership(60, 3, 2), 0.5)
    _, masked_spec, masked_obs = observed(ModelFamily.mixed_membership(60, 3, 2), 0.5,
                                          NoiseKind.uniform_bounded(0.5))
    masked_cfg = SolverConfig(restarts=2)
    _, bcd_spec, bcd_obs = observed(ModelFamily.sbm(80, 3), 1.0)
    bcd_cfg = SolverConfig(restarts=5)
    interval = Alphabet.interval(-1.0, 1.0)
    canary_spec = StructureSpec(n=30, m=30, k_n=4, k_m=4, s_n=2, s_m=2, alphabet_n=interval,
                                alphabet_m=interval, b_max=1.0, theta_mx=1.0, bounded=True)
    canary_seed = derive_seed(5150, 0)
    canary_fact, _ = generate(ModelFamily.generic(canary_spec), canary_seed)
    canary_obs = observe(assemble(canary_fact), np.ones((30, 30)),
                         sample_noise(NoiseKind.gaussian(0.05), 30, 30, canary_seed), 1.0,
                         sigma=0.05)
    canary_cfg = SolverConfig(restarts=1, max_iterations=100, tol=1e-6)
    _, tiny_spec, tiny_obs = observed(ModelFamily.sbm(5, 2), 0.8)
    exact_cfg = SolverConfig(exhaustive_limit=10 ** 7)
    radius_spec = StructureSpec(n=32, m=24, k_n=3, k_m=3, s_n=1, s_m=1,
                                alphabet_n=interval, alphabet_m=interval,
                                b_max=1.0, theta_mx=1.0, bounded=True)
    binary = Alphabet.finite((0.0, 1.0))
    z_spec = StructureSpec(n=24, m=10, k_n=24, k_m=6, s_n=1, s_m=2, alphabet_n=binary,
                           alphabet_m=binary, b_max=2.0, theta_mx=5.0, bounded=True)
    b_spec = StructureSpec(n=12, m=12, k_n=6, k_m=6, s_n=1, s_m=1, alphabet_n=binary,
                           alphabet_m=binary, b_max=2.0, theta_mx=5.0, bounded=True)

    def hypothesis_sets():
        with warnings.catch_warnings():
            # the size gate and the embedding guarantee warn at these sizes
            warnings.simplefilter("ignore")
            return (build_t_z(z_spec, 1.0, 0.7, c0=0.5, seed=seed, cap=8),
                    build_t_b(b_spec, 1.0, 0.7, c0=0.8, seed=seed, cap=16))

    return {
        "b_solve": (lambda: solve_b_given_xz(obs, fact.x, fact.z),
                    lambda b: repr(float(np.sum(np.abs(b))))),
        "b_solve_dense": (lambda: solve_b_given_xz(dense_obs, dense_fact.x, dense_fact.z),
                          lambda b: repr(float(np.sum(np.abs(b))))),
        "bcd": (lambda: block_coordinate_ls(bcd_obs, bcd_spec, bcd_cfg, seed),
                lambda res: f"{res.objective!r} / {res.iterations} sweeps"),
        "bcd_interval": (lambda: block_coordinate_ls(canary_obs, canary_spec, canary_cfg,
                                                     canary_seed, path=(2, 2)),
                         lambda res: f"{res.objective!r} / {res.iterations} sweeps"),
        "bcd_interval_masked": (lambda: block_coordinate_ls(masked_obs, masked_spec, masked_cfg,
                                                            seed),
                                lambda res: f"{res.objective!r} / {res.iterations} sweeps"),
        "exact": (lambda: exact_least_squares(tiny_obs, tiny_spec, exact_cfg),
                  lambda res: repr(res.objective)),
        "critical_radius": (lambda: critical_radius(32 * 24, covering_min_bound(radius_spec, 0.5)),
                            repr),
        "packing": (lambda: sparse_binary_packing(24, 3, seed=seed),
                    lambda pk: f"{len(pk.codewords)} codewords"),
        "hypothesis_sets": (hypothesis_sets, lambda sets: " / ".join(
            f"{hs.kind} {hs.min_sq_distance!r} {hs.max_kl!r}" for hs in sets)),
    }


def time_layer(name, seed, repeat):
    """{"min_s", "output"} of one layer, timed in this process."""
    call, fingerprint = layers(seed)[name]
    out = call()                                       # warm-up, and the output checked
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return {"min_s": min(times), "output": fingerprint(out)}


def main(argv=None):
    args = parse_args(argv)
    src = os.path.abspath(args.src)
    if args.layer:
        sys.path.insert(0, src)
        print(json.dumps(time_layer(args.layer, args.seed, args.repeat)))
        return 0
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
    for name in LAYERS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--layer", name, "--src", src,
             "--repeat", str(args.repeat), "--seed", str(args.seed)],
            capture_output=True, text=True, check=True)
        got = json.loads(proc.stdout)
        run["min_s"][name] = got["min_s"]
        run["output"][name] = got["output"]
        print(f"{name:<20} min {got['min_s'] * 1e3:9.3f} ms   {got['output']}")

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
