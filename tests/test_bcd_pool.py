"""bcd's init pool ranked by the closed form against a direct-scoring pool.

When both stacks of a pool are one-sparse, _least_draw ranks the draws by
the closed form ||T_w||^2 - 2 sum(B rhs) + sum(B^2 d) and scores only the
near-least ones by the direct residual. reference_least_draw below is the
direct pool itself: every draw's B by _solve_b, clipped under bounds, every
residual by _masked_objs, the first least kept. The two must agree byte for
byte, on a start and on whole fits.
"""

from dataclasses import replace

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
    block_coordinate_ls,
    generate,
    observe,
    sample_mask,
    sample_noise,
)

BINARY = Alphabet.finite((0.0, 1.0))
TERNARY = Alphabet.finite((-1.0, 0.0, 1.0))


def reference_least_draw(yp, mask, xs, zs, b_max, t_sq):
    """Direct scoring of every draw; np.argmin keeps the first least."""
    bs = est._solve_b(xs, zs, mask, yp)
    if b_max is not None:
        bs = np.clip(bs, -b_max, b_max)
    objs = est._masked_objs(yp, mask, xs, bs, zs)
    j = int(np.argmin(objs))
    return (xs[j if len(xs) > 1 else 0].copy(), bs[j].copy(),
            zs[j if len(zs) > 1 else 0].copy(), objs[j])


NOISY = NoiseKind.gaussian(0.5)
# name -> (family, seed, p, noise, scale, b_max): the signal is multiplied by
# scale, and b_max, when set, bounds the class
CASES = {
    # 32 draws from 3^3 rows per side: draws repeat, and label swaps tie exactly
    "sbm-tiny": (ModelFamily.sbm(3, 2), 1, 1.0, NOISY, 1.0, None),
    # ||T||^2 about 1e12 with an exact fit: the closed form cancels terms of that size
    "sbm-tiny-large-noiseless": (ModelFamily.sbm(4, 2), 2, 1.0, NoiseKind.none(), 1e6, None),
    "sbm-p05": (ModelFamily.sbm(8, 2), 3, 0.5, NOISY, 1.0, None),
    "biclustering-p07": (ModelFamily.biclustering(7, 6, 2, 3), 4, 0.7, NOISY, 1.0, None),
    # b_max below the block means: the pool's B is clipped
    "sbm-bounded-clipped": (ModelFamily.sbm(6, 2), 5, 1.0, NOISY, 3.0, 0.4),
    "biclustering-p05-bounded-clipped": (ModelFamily.biclustering(6, 5, 2, 2), 6, 0.5, NOISY,
                                         3.0, 0.3),
    # Z is the identity (s_m = 0): a batch of one shared by every draw
    "mixture": (ModelFamily.mixture(6, 3, 2), 7, 0.8, NOISY, 1.0, None),
    # one-sparse rows over +-1 entries
    "generic-ternary": (ModelFamily.generic(StructureSpec(
        n=4, m=3, k_n=2, k_m=2, s_n=1, s_m=1, alphabet_n=TERNARY, alphabet_m=TERNARY)),
        8, 0.8, NOISY, 1.0, None),
    # a 2-sparse finite side: not one-sparse, every draw is scored directly
    "generic-s2": (ModelFamily.generic(StructureSpec(
        n=4, m=4, k_n=2, k_m=2, s_n=1, s_m=2, alphabet_n=BINARY, alphabet_m=BINARY,
        theta_mx=2.0)), 9, 0.8, NOISY, 1.0, None),
}


def build(name):
    """(target, weights, spec) of a named case, the target being Y / p."""
    family, seed, p, noise, scale, b_max = CASES[name]
    fact, spec = generate(family, seed)
    theta = scale * assemble(fact)
    n, m = theta.shape
    obs = observe(theta, sample_mask(n, m, p, seed), sample_noise(noise, n, m, seed), p,
                  sigma=noise.proxy_sigma)
    if b_max is not None:
        spec = replace(spec, bounded=True, b_max=b_max, theta_mx=1e12)
    return obs, spec


def draw_pools(spec, seed, count=12, size=32):
    """Pools of draws shaped as _bcd forms them: finite candidate rows per
    side, an identity side as a batch of one. Every other pool repeats its draws with
    the labels of both sides swapped, before the originals, so that exact
    ties between different draws are certain."""
    rng = np.random.default_rng(seed)
    sides = []
    alph_x, alph_z = spec.entry_alphabets
    for rows, k, s, alph in ((spec.n, spec.k_n, spec.s_n, alph_x),
                             (spec.m, spec.k_m, spec.s_m, alph_z)):
        sides.append(None if s == 0 else (rows, est._candidate_rows(k, s, alph)))
    for pool in range(count):
        stacks = [np.eye(spec.n)[None] if side is None and i == 0 else
                  np.eye(spec.m)[None] if side is None else
                  side[1][rng.integers(0, len(side[1]), size=(size, side[0]))]
                  for i, side in enumerate(sides)]
        if pool % 2:
            stacks = [f if len(f) == 1 else np.concatenate([f[:size // 2, :, ::-1], f[:size // 2]])
                      for f in stacks]
        yield stacks


def same_start(got, want):
    for a, b in zip(got[:3], want[:3]):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert repr(got[3]) == repr(want[3])


@pytest.mark.parametrize("name", list(CASES))
def test_least_draw_matches_direct_pool(name):
    obs, spec = build(name)
    yp, mask = obs.y_rescaled, obs.mask
    b_max = spec.b_max if spec.bounded else None
    t_sq = float(np.sum(mask * yp * yp))
    ties = 0
    for xs, zs in draw_pools(spec, CASES[name][1]):
        want = reference_least_draw(yp, mask, xs, zs, b_max, t_sq)
        same_start(est._least_draw(yp, mask, xs, zs, b_max, t_sq), want)
        objs = est._masked_objs(yp, mask, xs, est._solve_b(xs, zs, mask, yp)
                                if b_max is None else
                                np.clip(est._solve_b(xs, zs, mask, yp), -b_max, b_max), zs)
        ties += int(np.sum(objs == objs.min()) > 1)
    # the swapped pools hold label swaps of the least draw, tied exactly
    assert ties >= 6


@pytest.mark.parametrize("seed, scale", [(22, 1e6), (24, 1e6), (26, 1e6), (27, 1e3), (32, 1e6)])
@pytest.mark.parametrize("first, second", [(3, 20), (20, 3)])
def test_large_noiseless_signal_keeps_the_first_exact_fit(seed, scale, first, second):
    # the exact fit and its label swap, both of objective about 0, sit in one
    # pool; ||T||^2 is about 1e7 or 1e13 and their closed forms differ by up
    # to 2e-3 on these seeds, so a tolerance relative to the objective rather
    # than ||T||^2 would drop whichever of them lies above
    fact, spec = generate(ModelFamily.sbm(5, 2), seed)
    theta = scale * assemble(fact)
    obs = observe(theta, np.ones(theta.shape), np.zeros(theta.shape), 1.0)
    yp, mask = obs.y_rescaled, obs.mask
    t_sq = float(np.sum(mask * yp * yp))
    xs, zs = next(draw_pools(spec, seed, count=1))
    xs[first], zs[first] = fact.x, fact.z
    xs[second], zs[second] = fact.x[:, ::-1], fact.z[:, ::-1]
    want = reference_least_draw(yp, mask, xs, zs, None, t_sq)
    assert want[3] < 1e-12 * t_sq
    same_start(est._least_draw(yp, mask, xs, zs, None, t_sq), want)


def test_clipped_cases_clip_the_pool():
    for name in ("sbm-bounded-clipped", "biclustering-p05-bounded-clipped"):
        obs, spec = build(name)
        for xs, zs in draw_pools(spec, 0, count=1):
            bs = est._solve_b(xs, zs, obs.mask, obs.y_rescaled)
            assert np.abs(bs).max() > spec.b_max


def fit(name, seed, restarts=3):
    obs, spec = build(name)
    trace = []
    res = block_coordinate_ls(obs, spec, SolverConfig(restarts=restarts), seed, trace=trace)
    return res, trace


@pytest.mark.parametrize("name", list(CASES))
def test_bcd_fits_match_a_direct_pool(monkeypatch, name):
    got = [fit(name, seed) for seed in range(4)]
    monkeypatch.setattr(est, "_least_draw", reference_least_draw)
    want = [fit(name, seed) for seed in range(4)]
    for (res, trace), (ref, ref_trace) in zip(got, want):
        assert repr(res.objective) == repr(ref.objective)
        assert res.iterations == ref.iterations and res.converged == ref.converged
        assert repr(trace) == repr(ref_trace)
        assert res.theta_hat.tobytes() == ref.theta_hat.tobytes()
        for a, b in ((res.factorization.x, ref.factorization.x),
                     (res.factorization.b, ref.factorization.b),
                     (res.factorization.z, ref.factorization.z)):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name, direct", [("sbm-p05", False), ("mixture", False),
                                          ("generic-s2", True)])
def test_only_near_least_draws_are_scored_directly(monkeypatch, name, direct):
    obs, spec = build(name)
    scored = []
    masked_objs = est._masked_objs

    def counting(yp, mask, x, b, z):
        scored.append(len(b))
        return masked_objs(yp, mask, x, b, z)
    monkeypatch.setattr(est, "_masked_objs", counting)
    yp, mask = obs.y_rescaled, obs.mask
    t_sq = float(np.sum(mask * yp * yp))
    for xs, zs in draw_pools(spec, 0, count=2):
        scored.clear()
        est._least_draw(yp, mask, xs, zs, None, t_sq)
        assert scored == [32] if direct else scored[0] < 32
