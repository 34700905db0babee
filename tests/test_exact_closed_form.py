"""The exact search's closed-form ranking against a direct-residual search.

For one-sparse factors the exact search ranks (X, Z) pairs by the closed
form ||T_w||^2 - sum(rhs^2 / d) and scores only the near-least pairs by the
direct residual. reference_search below is the direct search itself: every
pair solved by _solve_b and scored by _masked_objs, the first least
objective in enumeration order kept. The two must agree byte for byte on
the objective, theta_hat, X, B and Z.
"""

import itertools

import numpy as np
import pytest

import structmc.estimators as est
from structmc import (
    Alphabet,
    ModelFamily,
    NoiseKind,
    SolverConfig,
    StructureSpec,
    assemble,
    exact_least_squares,
    generate,
    observe,
    sample_mask,
    sample_noise,
)

BINARY = Alphabet.finite((0.0, 1.0))
TERNARY = Alphabet.finite((-1.0, 0.0, 1.0))
CFG = SolverConfig(exhaustive_limit=10 ** 7)


def reference_search(obs, spec):
    """Direct search: every pair's B by _solve_b and residual by _masked_objs,
    one X at a time against every Z; strict < keeps the first least."""
    yp, mask = obs.y_rescaled, obs.mask

    def stack(rows_n, k, s, alphabet):
        if s == 0:
            return np.eye(rows_n)[None]
        rows = est._candidate_rows(k, s, alphabet)
        return np.array([rows[list(ix)] for ix in itertools.product(range(len(rows)), repeat=rows_n)])

    alph_x, alph_z = spec.entry_alphabets
    xs = stack(spec.n, spec.k_n, spec.s_n, alph_x)
    zs = stack(spec.m, spec.k_m, spec.s_m, alph_z)
    best = None
    for x in xs:
        b = est._solve_b(x[None], zs, mask, yp)
        objs = est._masked_objs(yp, mask, x[None], b, zs)
        c = int(np.argmin(objs))
        if best is None or objs[c] < best[0]:
            best = (float(objs[c]), x, b[c], zs[c])
    return best, len(xs) * len(zs)


def observed(family, seed, p, noise):
    fact, spec = generate(family, seed)
    theta = assemble(fact)
    n, m = theta.shape
    obs = observe(theta, sample_mask(n, m, p, seed), sample_noise(noise, n, m, seed), p,
                  sigma=noise.proxy_sigma)
    return obs, spec


NOISY = NoiseKind.gaussian(0.5)
CASES = {
    # noiseless, p = 1: the closed form cancels terms of size ||T||^2 to reach 0
    "sbm-noiseless-p1": (ModelFamily.sbm(5, 2), 3, 1.0, NoiseKind.none()),
    "sbm-noiseless-n4-k3": (ModelFamily.sbm(4, 3), 4, 1.0, NoiseKind.none()),
    "sbm-p05": (ModelFamily.sbm(5, 2), 5, 0.5, NOISY),
    "sbm-p1": (ModelFamily.sbm(4, 2), 6, 1.0, NOISY),
    # label swaps of X and Z tie under the direct residual
    "biclustering-p08": (ModelFamily.biclustering(5, 4, 2, 2), 7, 0.8, NOISY),
    "biclustering-noiseless": (ModelFamily.biclustering(4, 5, 2, 2), 8, 1.0, NoiseKind.none()),
    # Z is the identity (s_m = 0)
    "mixture-p08": (ModelFamily.mixture(5, 3, 2), 9, 0.8, NOISY),
    "mixture-noiseless": (ModelFamily.mixture(5, 3, 2), 10, 1.0, NoiseKind.none()),
    # one-sparse rows over a ternary alphabet: +-1 entries
    "generic-ternary": (ModelFamily.generic(StructureSpec(
        n=3, m=3, k_n=2, k_m=2, s_n=1, s_m=1, alphabet_n=TERNARY, alphabet_m=TERNARY)),
        11, 0.7, NOISY),
    # a 2-sparse side: not one-sparse, the general _solve_b path
    "generic-s2": (ModelFamily.generic(StructureSpec(
        n=3, m=3, k_n=2, k_m=2, s_n=1, s_m=2, alphabet_n=BINARY, alphabet_m=BINARY,
        theta_mx=2.0)), 12, 0.8, NOISY),
}


def assert_same_search(res, want, pairs):
    obj, x, b, z = want
    fact = res.factorization
    assert repr(res.objective) == repr(max(0.0, obj))
    assert res.iterations == pairs
    for got, ref in ((fact.x, x), (fact.b, b), (fact.z, z)):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    theta = x @ b @ z.T
    assert res.theta_hat.tobytes() == assemble(fact).tobytes() == theta.tobytes()


@pytest.mark.parametrize("name", list(CASES))
def test_exact_matches_direct_reference_search(name):
    family, seed, p, noise = CASES[name]
    obs, spec = observed(family, seed, p, noise)
    want, pairs = reference_search(obs, spec)
    assert_same_search(exact_least_squares(obs, spec, CFG), want, pairs)


@pytest.mark.parametrize("name, pairs_per_chunk", [
    ("sbm-p1", 1), ("sbm-noiseless-p1", 50), ("sbm-p05", 100), ("sbm-p05", 1000),
    ("biclustering-p08", 30), ("biclustering-p08", 400), ("mixture-p08", 1), ("mixture-p08", 10),
])
def test_chunked_search_matches_reference(monkeypatch, name, pairs_per_chunk):
    # small chunks: Z split into chunks against one X, or blocks of a few X, so
    # the least closed-form value seen so far carries across chunks
    family, seed, p, noise = CASES[name]
    obs, spec = observed(family, seed, p, noise)
    want, pairs = reference_search(obs, spec)
    kk = spec.k_n * spec.k_m
    monkeypatch.setattr(est, "_EXACT_CHUNK", pairs_per_chunk * (spec.n * spec.m + kk * kk))
    assert_same_search(exact_least_squares(obs, spec, CFG), want, pairs)


@pytest.mark.parametrize("name, one_sparse", [
    ("sbm-p05", True), ("mixture-p08", True), ("generic-ternary", True), ("generic-s2", False)])
def test_only_near_least_pairs_are_solved_directly(monkeypatch, name, one_sparse):
    family, seed, p, noise = CASES[name]
    obs, spec = observed(family, seed, p, noise)
    solved = []
    solve_b = est._solve_b

    def counting(x, z, mask, yp):
        solved.append(max(len(x), len(z)))
        return solve_b(x, z, mask, yp)
    monkeypatch.setattr(est, "_solve_b", counting)
    res = exact_least_squares(obs, spec, CFG)
    if one_sparse:
        assert sum(solved) < res.iterations / 20
    else:
        # the general path solves every pair
        assert sum(solved) == res.iterations


@pytest.mark.parametrize("seed, scale", [(25, 1e3), (28, 1e6), (34, 1e6), (22, 1e6)])
def test_large_noiseless_signal_keeps_the_direct_winner(seed, scale):
    # ||T||^2 is about 1e7 or 1e13 while the least objective is about 0, and the
    # closed form of the first of the tied label-swapped pairs lies above a
    # later one's by more than 1e-9 on the first three seeds: a tolerance
    # relative to the objective rather than ||T||^2 would drop that first pair
    fact, spec = generate(ModelFamily.sbm(5, 2), seed)
    theta = scale * assemble(fact)
    obs = observe(theta, np.ones(theta.shape), np.zeros(theta.shape), 1.0)
    want, pairs = reference_search(obs, spec)
    res = exact_least_squares(obs, spec, CFG)
    assert_same_search(res, want, pairs)


def test_tied_pairs_keep_the_first_in_enumeration_order():
    # noiseless sbm: (X, Z) and its label swap fit exactly, objective 0, and the
    # direct search keeps the first; the closed form must re-score both
    obs, spec = observed(ModelFamily.sbm(4, 2), 21, 1.0, NoiseKind.none())
    want, pairs = reference_search(obs, spec)
    res = exact_least_squares(obs, spec, CFG)
    assert_same_search(res, want, pairs)
    assert res.objective < 1e-20
