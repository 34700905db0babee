"""exact_least_squares outputs pinned bit for bit.

The pinned values were recorded from the B-solve that factors every Gram by
eigh. One-sparse enumerations now solve by the masked block mean and an s = 2
side still goes through eigh; both must reproduce the recorded values, so
every comparison here is an equality.
"""

import hashlib

import numpy as np
import pytest

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

# name -> (family, seed, p)
CASES = {
    "sbm-n4-p1": (ModelFamily.sbm(4, 2), 31, 1.0),
    "sbm-n4-p08": (ModelFamily.sbm(4, 2), 32, 0.8),
    "sbm-n4-p05": (ModelFamily.sbm(4, 2), 33, 0.5),
    "sbm-n5-p1": (ModelFamily.sbm(5, 2), 34, 1.0),
    "sbm-n5-p08": (ModelFamily.sbm(5, 2), 35, 0.8),
    "sbm-n5-p05": (ModelFamily.sbm(5, 2), 36, 0.5),
    "biclustering-p08": (ModelFamily.biclustering(5, 4, 2, 2), 37, 0.8),
    # Z is the identity: a shared side that is one-sparse
    "mixture-p08": (ModelFamily.mixture(5, 3, 2), 38, 0.8),
    "generic-ternary-p08": (ModelFamily.generic(StructureSpec(
        n=3, m=3, k_n=2, k_m=2, s_n=1, s_m=1, alphabet_n=TERNARY, alphabet_m=TERNARY)),
        39, 0.8),
    # every Z batch holds a 2-sparse row, so every B-solve goes through eigh
    "generic-s2-p08": (ModelFamily.generic(StructureSpec(
        n=3, m=3, k_n=2, k_m=2, s_n=1, s_m=2, alphabet_n=BINARY, alphabet_m=BINARY,
        theta_mx=2.0)), 40, 0.8),
}


def fit(name):
    """exact_least_squares on a named case: gaussian noise, sigma = 0.5."""
    family, seed, p = CASES[name]
    fact, spec = generate(family, seed)
    theta = assemble(fact)
    n, m = theta.shape
    noise = NoiseKind.gaussian(0.5)
    obs = observe(theta, sample_mask(n, m, p, seed), sample_noise(noise, n, m, seed), p,
                  sigma=noise.proxy_sigma)
    return exact_least_squares(obs, spec, SolverConfig(exhaustive_limit=10 ** 7))


def fingerprint(res):
    """(objective repr, pair count, theta_hat sha256) of one search."""
    digest = hashlib.sha256(np.asarray(res.theta_hat, dtype=float).tobytes()).hexdigest()[:16]
    return repr(res.objective), res.iterations, digest


# recorded from the all-eigh B-solve
PINNED = {
    "sbm-n4-p1": ("1.1565902728777027", 6561, "41b6fb1c50a93c20"),
    "sbm-n4-p08": ("1.1080858181205642", 6561, "c43df525ef6367c6"),
    "sbm-n4-p05": ("1.0373617063247524", 6561, "0d80c3e18898ff54"),
    "sbm-n5-p1": ("3.134675466097428", 59049, "3ab4ae822ae9bc59"),
    "sbm-n5-p08": ("3.4470886286015974", 59049, "5311f77cfc656525"),
    "sbm-n5-p05": ("3.6149146033151536", 59049, "0c82ad674ce5cb64"),
    "biclustering-p08": ("2.5994691562832064", 19683, "58b44c71f672bdee"),
    "mixture-p08": ("0.3850943818483399", 243, "fc00a686dd2fa44d"),
    "generic-ternary-p08": ("0.7107042772001068", 15625, "5e1a8705b9bd1863"),
    "generic-s2-p08": ("0.15792981142384094", 1728, "961ab5dabc2eff4d"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_exact_output_is_pinned(name):
    assert fingerprint(fit(name)) == PINNED[name]
