"""block_coordinate_ls outputs pinned bit for bit, and its trace contract.

The pinned values were recorded from the sequential-restart implementation;
the lockstep descent must reproduce them exactly, so every comparison here is
an equality.
"""

import hashlib
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

INTERVAL = Alphabet.interval(-1.0, 1.0)
WIDE = Alphabet.interval(-2.0, 2.0)
TERNARY = Alphabet.finite((-1.0, 0.0, 1.0))
BINARY = Alphabet.finite((0.0, 1.0))

# name -> (family, seed, p, bounded, restarts, max_iterations)
CASES = {
    "sbm-p1": (ModelFamily.sbm(20, 3), 11, 1.0, False, 4, 200),
    "sbm-p05-bounded": (ModelFamily.sbm(24, 3), 12, 0.5, True, 3, 200),
    "biclustering-p05": (ModelFamily.biclustering(16, 12, 3, 2), 13, 0.5, False, 3, 200),
    "biclustering-p1-bounded": (ModelFamily.biclustering(14, 10, 2, 3), 14, 1.0, True, 3, 200),
    "mixture-p1": (ModelFamily.mixture(12, 5, 3), 15, 1.0, False, 3, 200),
    "mixture-p05-bounded": (ModelFamily.mixture(12, 5, 3), 16, 0.5, True, 3, 200),
    "mixed-membership-p05": (ModelFamily.mixed_membership(8, 3, 2), 17, 0.5, False, 2, 200),
    "mixed-membership-p05-bounded": (ModelFamily.mixed_membership(8, 3, 2), 18, 0.5, True, 2,
                                     200),
    "generic-p1": (ModelFamily.generic(StructureSpec(
        n=7, m=6, k_n=3, k_m=2, s_n=2, s_m=1, alphabet_n=INTERVAL, alphabet_m=TERNARY)),
        19, 1.0, False, 3, 200),
    # 219 supports of size <= 5 out of 8 exceed the support limit: truncation path
    "generic-p1-bounded-truncated": (ModelFamily.generic(StructureSpec(
        n=6, m=5, k_n=8, k_m=2, s_n=5, s_m=1, alphabet_n=WIDE, alphabet_m=BINARY,
        theta_mx=4.0, bounded=True)), 20, 1.0, True, 2, 200),
    "dictionary-p1": (ModelFamily.dictionary(4, 6, 3, 2), 21, 1.0, False, 2, 200),
    "sbm-capped": (ModelFamily.sbm(40, 4), 22, 1.0, False, 3, 2),
    # restarts 0 and 3 end on the same objective after 7 and 4 sweeps
    "sbm-tied": (ModelFamily.sbm(12, 2), 40, 1.0, False, 4, 200),
}


def build(name):
    """(obs, spec, cfg, seed) of a named case: gaussian noise, sigma = 0.5."""
    family, seed, p, bounded, restarts, max_iterations = CASES[name]
    fact, spec = generate(family, seed)
    theta = assemble(fact)
    n, m = theta.shape
    noise = NoiseKind.gaussian(0.5)
    obs = observe(theta, sample_mask(n, m, p, seed), sample_noise(noise, n, m, seed), p,
                  sigma=noise.proxy_sigma)
    cfg = SolverConfig(restarts=restarts, max_iterations=max_iterations)
    return obs, replace(spec, bounded=bounded), cfg, seed


def fingerprint(res, trace):
    """(objective repr, iterations, converged, theta_hat sha256, trace length,
    trace sha256) of one fit."""
    def digest(a):
        return hashlib.sha256(np.asarray(a, dtype=float).tobytes()).hexdigest()[:16]

    return (repr(res.objective), res.iterations, res.converged, digest(res.theta_hat),
            len(trace), digest(trace))


def fit(name, restarts=None):
    obs, spec, cfg, seed = build(name)
    if restarts is not None:
        cfg = replace(cfg, restarts=restarts)
    trace = []
    res = block_coordinate_ls(obs, spec, cfg, seed, trace=trace)
    return res, trace


# recorded from the sequential-restart descent: name -> (objective repr,
# iterations, converged, theta_hat sha256, trace length, trace sha256)
PINNED = {
    "sbm-p1": ("85.20704524312062", 5, True, "c4a787cea11aa24c", 19, "8b9a83ce260d3657"),
    "sbm-p05-bounded": ("306.781814231021", 6, True, "be9f95597c37ba80", 16, "d14a2c8263775952"),
    "biclustering-p05": ("41.78794157956716", 6, True, "5fcc3ecbc32efed4", 17, "695e03b916bdcdd4"),
    "biclustering-p1-bounded": ("32.57098158319957", 6, True, "3fb90fb49d707c4c", 17, "ba19df5941677c21"),
    "mixture-p1": ("9.028577777123715", 3, True, "6c803e1650faf9d9", 9, "a9b527f5135f3dc3"),
    "mixture-p05-bounded": ("21.77180482747407", 3, True, "bb246659073072af", 13, "979d3eb755abcc62"),
    "mixed-membership-p05": ("2.345920243749437", 200, False, "c3a4d9c43d5b3cf9", 400, "e080f3a9f7eba2da"),
    "mixed-membership-p05-bounded": ("7.059402761988068", 13, True, "fa5de853958a3402", 28, "89f0bd141e05bb1e"),
    "generic-p1": ("3.411778363085527", 13, True, "f19e0c22852dce34", 45, "1e8bec4bbec9d1e2"),
    "generic-p1-bounded-truncated": ("6.653444264857205", 3, True, "037e3b7ce568a4a4", 6, "87610d9d6bf5b27b"),
    "dictionary-p1": ("0.2546094894953836", 94, True, "78c0cbfaea707980", 132, "8e5a618a7b9ad112"),
    "sbm-capped": ("427.46762162747393", 2, False, "41972b0fc5eb139a", 6, "f3ba7e70cb0e11fa"),
    "sbm-tied": ("36.05748136000399", 7, True, "b080da2346e1c473", 19, "ebee1fa9dfc91c59"),
}

# sweeps of each restart in restart order, recorded with PINNED
SEGMENTS = {
    "sbm-p1": [5, 5, 5, 4],
    "sbm-p05-bounded": [6, 4, 6],
    "biclustering-p05": [4, 7, 6],
    "biclustering-p1-bounded": [4, 6, 7],
    "mixture-p1": [3, 3, 3],
    "mixture-p05-bounded": [4, 6, 3],
    "mixed-membership-p05": [200, 200],
    "mixed-membership-p05-bounded": [13, 15],
    "generic-p1": [17, 15, 13],
    "generic-p1-bounded-truncated": [3, 3],
    "dictionary-p1": [38, 94],
    "sbm-capped": [2, 2, 2],
    "sbm-tied": [7, 4, 4, 4],
}


@pytest.mark.parametrize("name", list(CASES))
def test_bcd_output_is_pinned(name):
    assert fingerprint(*fit(name)) == PINNED[name]


def count_restart_sweeps(monkeypatch):
    """Patch the row updates to count rows of restarts they update: a finite
    update covers a batch of restarts, an interval update one restart."""
    counts = []
    finite, interval = est._update_rows_finite, est._update_rows_interval

    def counted_finite(my, base, mask, p_rows, cand):
        counts.append(len(p_rows))
        return finite(my, base, mask, p_rows, cand)

    def counted_interval(*args):
        counts.append(1)
        return interval(*args)

    monkeypatch.setattr(est, "_update_rows_finite", counted_finite)
    monkeypatch.setattr(est, "_update_rows_interval", counted_interval)
    return counts


@pytest.mark.parametrize("name", list(CASES))
def test_trace_is_each_restarts_segment_in_restart_order(name, monkeypatch):
    restarts, max_iterations = CASES[name][4:]
    _, spec, _, _ = build(name)
    counts = count_restart_sweeps(monkeypatch)
    res, trace = fit(name)
    sides = (spec.s_n > 0) + (spec.s_m > 0)
    assert len(trace) * sides == sum(counts)          # one entry per restart-sweep

    # restarts are independent, so the first r restarts give the first r segments
    prefixes = [fit(name, restarts=r)[1] for r in range(1, restarts)] + [trace]
    assert all(prefix == trace[:len(prefix)] for prefix in prefixes)
    ends = [len(prefix) for prefix in prefixes]
    segments = [trace[lo:hi] for lo, hi in zip([0] + ends, ends)]
    assert [len(seg) for seg in segments] == SEGMENTS[name]
    assert all(1 <= len(seg) <= max_iterations for seg in segments)
    for seg in segments:
        assert all(b <= a for a, b in zip(seg, seg[1:])), "a restart's objective rose"

    assert res.objective == min(trace)
    kept = next(seg for seg in segments if seg[-1] == min(trace))
    assert res.iterations == len(kept)
    assert res.converged == (len(kept) < max_iterations or kept[-2] - kept[-1]
                             <= SolverConfig().tol * kept[-2])


def test_restarts_stop_at_different_sweeps_and_one_is_capped():
    assert any(len(set(SEGMENTS[name])) > 1 for name in CASES)
    assert SEGMENTS["sbm-capped"] == [2, 2, 2] and PINNED["sbm-capped"][2] is False


def test_a_rise_in_one_restart_raises(monkeypatch):
    finite = est._update_rows_finite

    def worse_last_restart(my, base, mask, p_rows, cand):
        rows = finite(my, base, mask, p_rows, cand).copy()
        if len(rows) > 1:
            rows[-1] = 0.0                # the zero fit: every residual at its full energy
        return rows

    monkeypatch.setattr(est, "_update_rows_finite", worse_last_restart)
    with pytest.raises(RuntimeError, match="objective increased"):
        fit("sbm-p1")
