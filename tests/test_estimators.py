"""Least-squares solvers, spectral thresholding, and adaptive selection."""

import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structmc.estimators as est
from structmc import (
    Alphabet,
    EnumerationRefusal,
    Factorization,
    Observation,
    ParameterError,
    SolverConfig,
    StructureSpec,
    adaptive_penalized,
    assemble,
    block_coordinate_ls,
    derive_seed,
    exact_least_squares,
    hard_threshold,
    penalty,
    solve_b_given_xz,
    spectral_threshold,
)

from conftest import BINARY, SYMMETRIC, member_of, small_specs


def binary_spec(n=4, m=4, k=2, s=1, **kw):
    return StructureSpec(n=n, m=m, k_n=k, k_m=k, s_n=s, s_m=s,
                         alphabet_n=BINARY, alphabet_m=BINARY, **kw)


def full_obs(y, p=1.0, **kw):
    return Observation(y=np.asarray(y, float), mask=np.ones_like(np.asarray(y, float)),
                       p=p, **kw)


# ---- configuration -------------------------------------------------------- #

def test_solver_config_validation():
    for bad in (dict(restarts=0), dict(max_iterations=0), dict(tol=0.0),
                dict(exhaustive_limit=0)):
        with pytest.raises(ParameterError):
            SolverConfig(**bad)


def test_result_objective_never_negative():
    r = est.EstimateResult(theta_hat=np.zeros((2, 2)), objective=-1e-18)
    assert r.objective == 0.0


def test_result_nan_objective_is_a_defect_not_zero():
    # max(0.0, nan) is 0.0, which used to report a NaN fit as a perfect one
    with pytest.raises(RuntimeError, match="NaN"):
        est.EstimateResult(theta_hat=np.zeros((2, 2)), objective=float("nan"))


def test_row_candidate_count_hand_values():
    assert est._row_count(2, 1, BINARY) == 5      # 1 + C(2,1)*2
    assert est._row_count(3, 2, BINARY) == 19     # 1 + 6 + 12
    assert est._row_count(4, 0, BINARY) == 1


# ---- middle-factor solve --------------------------------------------------- #

def test_solve_b_full_mask_matches_normal_equations():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 2))
    z = rng.normal(size=(5, 2))
    b_true = rng.normal(size=(2, 2))
    obs = full_obs(x @ b_true @ z.T)
    np.testing.assert_allclose(solve_b_given_xz(obs, x, z), b_true, atol=1e-10)


def test_solve_b_masked_matches_kron_lstsq():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 2))
    z = rng.normal(size=(4, 2))
    y = rng.normal(size=(5, 4))
    mask = (rng.random((5, 4)) < 0.6).astype(float)
    obs = Observation(y=y * mask, mask=mask, p=1.0)
    got = solve_b_given_xz(obs, x, z)
    w = mask.astype(bool).ravel()
    design = np.kron(x, z)[w]                  # row-major vec convention
    coef, *_ = np.linalg.lstsq(design, y.ravel()[w], rcond=None)
    np.testing.assert_allclose(got.ravel(), coef, atol=1e-8)


def rank_deficient_factors(rng):
    """(X, Z, mask-restriction) triples whose masked design is rank deficient."""
    x = rng.normal(size=(7, 3))
    x[:, 2] = 0.0                                       # empty cluster
    z = rng.normal(size=(6, 3))
    yield "empty cluster", x, z, None
    x = rng.normal(size=(7, 3))
    z = rng.normal(size=(6, 3))
    z[:, 2] = 0.3 * z[:, 0] - 1.7 * z[:, 1]             # collinear columns
    yield "collinear columns", x, z, None
    labels_x, labels_z = np.arange(7) % 3, np.arange(6) % 2
    x = np.eye(3)[labels_x] * rng.uniform(0.5, 2.0, size=(7, 1))
    z = np.eye(2)[labels_z] * rng.uniform(0.5, 2.0, size=(6, 1))
    # block pair (0, 1) never observed
    yield "unobserved block pair", x, z, ~((labels_x[:, None] == 0) & (labels_z[None, :] == 1))


def test_solve_b_rank_deficient_matches_min_norm_lstsq():
    # near-null Gram directions carry rounding noise; a cutoff below the
    # Gram's precision keeps them and the solution leaves the minimum norm
    rng = np.random.default_rng(11)
    for p in (1.0, 0.6, 0.3):
        for trial in range(4):
            for label, x, z, keep in rank_deficient_factors(rng):
                mask = (rng.random((x.shape[0], z.shape[0])) < p).astype(float)
                if keep is not None:
                    mask *= keep
                y = rng.normal(size=mask.shape) * mask
                got = solve_b_given_xz(Observation(y=y, mask=mask, p=1.0), x, z)
                w = mask.astype(bool).ravel()
                coef, *_ = np.linalg.lstsq(np.kron(x, z)[w], y.ravel()[w], rcond=None)
                np.testing.assert_allclose(got.ravel(), coef, atol=1e-8,
                                           err_msg=f"{label}, p={p}, trial {trial}")


def psd_stacks(rng):
    """(label, designs) stacks of equal width; each Gram is design^T design."""
    yield "full rank, scales 1e-4..1e3", [rng.normal(size=(20, 6)) * c for c in (1e-4, 1.0, 1e3)]
    for p in (1.0, 0.5):
        by_width = {}
        for label, x, z, keep in rank_deficient_factors(rng):
            mask = rng.random((x.shape[0], z.shape[0])) < p
            if keep is not None:
                mask &= keep
            design = np.kron(x, z)[mask.ravel()]
            by_width.setdefault(design.shape[1], [rng.normal(size=design.shape)]).append(design)
        for width, designs in by_width.items():
            yield f"rank deficient, p={p}, width {width}", designs


def test_psd_solve_matches_pinv_and_min_norm_lstsq():
    # one call per stack, each Gram with its own cutoff: a full-rank Gram
    # next to rank-deficient ones whose near-null directions (rounding noise
    # ~1e-16 of the largest eigenvalue) must count as zero
    rng = np.random.default_rng(17)
    for label, designs in psd_stacks(rng):
        targets = [rng.normal(size=(len(d), 2)) for d in designs]
        g = np.array([d.T @ d for d in designs])
        rhs = np.array([d.T @ t for d, t in zip(designs, targets)])
        got = est._psd_solve(g, rhs)
        assert got.shape == rhs.shape
        for i, (d, t) in enumerate(zip(designs, targets)):
            want = np.linalg.pinv(g[i], rcond=1e-10) @ rhs[i]
            coef, *_ = np.linalg.lstsq(d, t, rcond=None)
            atol = 1e-8 * np.abs(want).max()
            np.testing.assert_allclose(got[i], want, rtol=0, atol=atol, err_msg=f"{label}, {i}")
            np.testing.assert_allclose(got[i], coef, rtol=0, atol=atol, err_msg=f"{label}, {i}")


def test_psd_solve_zero_and_negative_roundoff_grams():
    rng = np.random.default_rng(23)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    w = np.array([-3e-15, 0.25, 1.0, 30.0])            # a roundoff-negative eigenvalue
    g = np.array([np.zeros((4, 4)), (u * w) @ u.T])
    g[1] = 0.5 * (g[1] + g[1].T)
    assert np.linalg.eigvalsh(g[1])[0] < 0
    rhs = rng.normal(size=(2, 4, 1))
    got = est._psd_solve(g, rhs)
    np.testing.assert_array_equal(got[0], 0.0)             # all-zero Gram: B = 0
    np.testing.assert_allclose(got[1], np.linalg.pinv(g[1], rcond=1e-10) @ rhs[1],
                               rtol=1e-10, atol=1e-12)
    # the negative direction is dropped, not inverted
    assert abs(float(u[:, 0] @ got[1][:, 0])) < 1e-10


def test_solve_b_batches_x_and_z_like_single_solves():
    # one batched call over (X, Z) pairs equals one solve per pair, with a
    # batch of one broadcast against the other side; the empty-cluster pair
    # keeps the minimum-norm solution of its rank-deficient design
    rng = np.random.default_rng(5)
    for p in (1.0, 0.6):
        xs = rng.normal(size=(7, 8, 3))
        zs = rng.normal(size=(7, 6, 2))
        xs[6, :, 1] = 0.0                                   # empty cluster
        mask = (rng.random((8, 6)) < p).astype(float)
        obs = Observation(y=rng.normal(size=mask.shape) * mask, mask=mask, p=p)
        singles = np.array([solve_b_given_xz(obs, x, z) for x, z in zip(xs, zs)])
        got = est._solve_b(xs, zs, obs.mask, obs.y_rescaled)
        np.testing.assert_allclose(got, singles, rtol=1e-12, atol=1e-12, err_msg=f"p={p}")
        shared_x = est._solve_b(xs[:1], zs, obs.mask, obs.y_rescaled)
        np.testing.assert_allclose(
            shared_x, [solve_b_given_xz(obs, xs[0], z) for z in zs],
            rtol=1e-12, atol=1e-12, err_msg=f"shared X, p={p}")
        w = mask.astype(bool).ravel()
        coef, *_ = np.linalg.lstsq(np.kron(xs[6], zs[6])[w], obs.y_rescaled.ravel()[w],
                                   rcond=None)
        np.testing.assert_allclose(got[6].ravel(), coef, atol=1e-8, err_msg=f"p={p}")


def eigh_path(x, z, mask, yp):
    """B of every pair of a (c|1)-batch by _psd_solve on its Gram, assembled
    entry by entry as sum_ij E_ij kron(x_i x_i^T, z_j z_j^T)."""
    c, k_n, k_m = max(len(x), len(z)), x.shape[2], z.shape[2]
    g = np.array([np.einsum("ij,ia,ib,jc,jd->acbd", mask, x[i % len(x)], x[i % len(x)],
                            z[i % len(z)], z[i % len(z)]).reshape(k_n * k_m, k_n * k_m)
                  for i in range(c)])
    rhs = (x.transpose(0, 2, 1) @ yp) @ z
    return est._psd_solve(g, rhs.reshape(c, -1, 1)).reshape(c, k_n, k_m)


def one_sparse(rng, c, rows, k, values):
    """(c, rows, k) factors whose rows hold at most one entry from values."""
    out = np.zeros((c, rows, k))
    cols = rng.integers(0, k, size=(c, rows))
    vals = rng.choice(np.asarray(values, float), size=(c, rows))
    np.put_along_axis(out, cols[:, :, None], vals[:, :, None], axis=2)
    return out


def one_sparse_batches(rng, p):
    """(label, x, z, mask, exact) batches whose rows all have at most one
    nonzero; exact marks integer Grams, where eigh and the block mean agree
    to the bit."""
    n, m, c = 9, 7, 6
    mask = (rng.random((n, m)) < p).astype(float)
    yield "binary", one_sparse(rng, c, n, 3, (0, 1)), one_sparse(rng, c, m, 2, (0, 1)), mask, True
    yield "ternary", one_sparse(rng, c, n, 3, (-1, 0, 1)), one_sparse(rng, c, m, 2, (-1, 1)), mask, True
    # interval values, pair scales 1e-6..1e3: the cutoff is each pair's own
    scale = np.array([1e-6, 1e-3, 1.0, 1.0, 1e2, 1e3])[:, None, None]
    x = one_sparse(rng, c, n, 3, (1.0,)) * rng.uniform(-2.0, 2.0, size=(c, n, 1)) * scale
    z = one_sparse(rng, c, m, 2, (1.0,)) * rng.uniform(0.5, 2.0, size=(c, m, 1))
    yield "interval", x, z, mask, False
    x = one_sparse(rng, c, n, 3, (0, 1))
    x[:, :, 2] = 0.0                                       # empty cluster
    yield "empty cluster", x, one_sparse(rng, c, m, 2, (0, 1)), mask, True
    labels_x, labels_z = np.arange(n) % 3, np.arange(m) % 2
    x = np.broadcast_to(np.eye(3)[labels_x], (c, n, 3)) * rng.uniform(0.5, 2.0, size=(c, n, 1))
    z = np.eye(2)[labels_z][None]                          # shared by every pair
    unobserved = mask * ~((labels_x[:, None] == 0) & (labels_z[None, :] == 1))
    yield "unobserved block pair", x, z, unobserved, False
    yield "all-zero mask", one_sparse(rng, c, n, 3, (0, 1)), z, np.zeros((n, m)), True
    yield "identity side", one_sparse(rng, c, n, 3, (0, 1)), np.eye(m)[None], mask, True
    yield "shared x", one_sparse(rng, 1, n, 3, (-1, 1)), one_sparse(rng, c, m, 2, (0, 1)), mask, True


def test_solve_b_one_sparse_is_the_eigh_solution():
    # a diagonal Gram's eigenvalues are its diagonal, so the masked block
    # mean is what eigh returns: to the bit on integer Grams
    rng = np.random.default_rng(29)
    for p in (1.0, 0.6):
        for label, x, z, mask, exact in one_sparse_batches(rng, p):
            yp = rng.normal(size=mask.shape) * mask
            got = est._solve_b(x, z, mask, yp)
            want = eigh_path(x, z, mask, yp)
            if exact:
                np.testing.assert_array_equal(got, want, err_msg=f"{label}, p={p}")
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=f"{label}, p={p}")
            if not mask.any():
                np.testing.assert_array_equal(got, 0.0)
            w = mask.astype(bool).ravel()
            for i in range(len(got)):
                xi, zi = x[i % len(x)], z[i % len(z)]
                coef, *_ = np.linalg.lstsq(np.kron(xi, zi)[w], yp.ravel()[w], rcond=None)
                np.testing.assert_allclose(got[i].ravel(), coef, rtol=1e-9,
                                           atol=1e-9 * np.abs(coef).max(initial=0.0),
                                           err_msg=f"{label}, p={p}, pair {i}")


def test_solve_b_one_sparse_drops_near_empty_blocks():
    # a block whose weight is <= 1e-10 of its pair's largest counts as zero,
    # as eigh's cutoff has it, however large the rest of the batch
    rng = np.random.default_rng(31)
    n, m = 6, 5
    x = np.zeros((2, n, 2))
    x[:, 1:, 0] = 1.0
    x[:, 0, 1] = 1e-6                                      # cluster 1: one member, weight 1e-12
    x[1] *= 1e3
    z = np.eye(m)[None]
    mask = np.ones((n, m))
    yp = rng.normal(size=(n, m))
    got = est._solve_b(x, z, mask, yp)
    np.testing.assert_array_equal(got[:, 1], 0.0)
    np.testing.assert_allclose(got, eigh_path(x, z, mask, yp), rtol=1e-12, atol=0)


def test_solve_b_mixed_batch_takes_eigh_for_every_pair():
    # one 2-sparse row in one pair, on either side, makes the Gram of that
    # pair non-diagonal; every pair then matches eigh and the kron lstsq
    rng = np.random.default_rng(37)
    n, m, c = 8, 6, 4
    mask = (rng.random((n, m)) < 0.7).astype(float)
    yp = rng.normal(size=(n, m)) * mask
    w = mask.astype(bool).ravel()
    for side in ("x", "z"):
        x = one_sparse(rng, c, n, 3, (1.0,)) * rng.uniform(0.5, 2.0, size=(c, n, 1))
        z = one_sparse(rng, c, m, 2, (1.0,)) * rng.uniform(0.5, 2.0, size=(c, m, 1))
        dense = x if side == "x" else z
        dense[2, 0, :2] = (0.7, -1.3)
        dense[2, 1] = 0.0               # no more nonzeros than rows: counted row by row
        got = est._solve_b(x, z, mask, yp)
        np.testing.assert_allclose(got, eigh_path(x, z, mask, yp), rtol=1e-12, atol=0,
                                   err_msg=side)
        for i in range(c):
            coef, *_ = np.linalg.lstsq(np.kron(x[i], z[i])[w], yp.ravel()[w], rcond=None)
            np.testing.assert_allclose(got[i].ravel(), coef, atol=1e-9,
                                       err_msg=f"{side}, pair {i}")


def test_solve_b_rescales_by_p():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 2))
    z = rng.normal(size=(6, 2))
    y = rng.normal(size=(6, 6))
    b1 = solve_b_given_xz(full_obs(y, p=1.0), x, z)
    b2 = solve_b_given_xz(full_obs(y, p=0.5), x, z)
    np.testing.assert_allclose(b2, 2 * b1, atol=1e-10)


# ---- exact enumeration ----------------------------------------------------- #

def brute_force_min(yp, mask, spec):
    """Independent oracle: enumerate all row assignments, kron-design lstsq."""
    def rows_of(k, s, alph):
        pool = {(0.0,) * k}
        for supp in itertools.combinations(range(k), s):
            for vals in itertools.product(alph.values, repeat=s):
                row = [0.0] * k
                for j, v in zip(supp, vals):
                    row[j] = v
                pool.add(tuple(row))
        return [np.array(r) for r in sorted(pool)]

    w = mask.astype(bool).ravel()
    yv = yp.ravel()[w]
    best = np.inf
    for xs in itertools.product(rows_of(spec.k_n, spec.s_n, spec.alphabet_n),
                                repeat=spec.n):
        x = np.array(xs)
        for zs in itertools.product(rows_of(spec.k_m, spec.s_m, spec.alphabet_m),
                                    repeat=spec.m):
            z = np.array(zs)
            design = np.kron(x, z)[w]
            coef, *_ = np.linalg.lstsq(design, yv, rcond=None)
            r = yv - design @ coef
            best = min(best, float(r @ r))
    return best


@pytest.mark.parametrize("seed", range(4))
def test_exact_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    spec = binary_spec(n=3, m=3, k=2, s=1)
    y = rng.normal(size=(3, 3))
    mask = np.ones((3, 3)) if seed % 2 else (rng.random((3, 3)) < 0.7).astype(float)
    obs = Observation(y=y * mask, mask=mask, p=1.0)
    got = exact_least_squares(obs, spec, SolverConfig())
    want = brute_force_min(y, mask, spec)
    assert got.objective == pytest.approx(want, abs=1e-9)
    assert got.iterations > 0
    assert got.factorization is not None
    fit = assemble(got.factorization)
    np.testing.assert_allclose(fit, got.theta_hat)


def test_exact_refuses_oversized_enumerations():
    spec = binary_spec(n=4, m=4, k=2, s=1)
    obs = full_obs(np.zeros((4, 4)))
    with pytest.raises(EnumerationRefusal, match="block_coordinate_ls"):
        exact_least_squares(obs, spec, SolverConfig(exhaustive_limit=10))


def test_exact_rejects_interval_alphabets():
    spec = StructureSpec(n=2, m=2, k_n=2, k_m=2, s_n=1, s_m=1,
                         alphabet_n=SYMMETRIC, alphabet_m=BINARY)
    with pytest.raises(ParameterError):
        exact_least_squares(full_obs(np.zeros((2, 2))), spec, SolverConfig())


def test_exact_recovers_planted_member():
    rng = np.random.default_rng(5)
    spec = binary_spec(n=4, m=3, k=2, s=1)
    x, b, z = member_of(spec, rng)
    theta = x @ b @ z.T
    got = exact_least_squares(full_obs(theta), spec, SolverConfig())
    assert got.objective <= 1e-18
    np.testing.assert_allclose(got.theta_hat, theta, atol=1e-9)


# ---- block coordinate descent ---------------------------------------------- #

def test_bcd_objective_is_monotone_along_sweeps():
    rng = np.random.default_rng(3)
    spec = binary_spec(n=5, m=5, k=2, s=1)
    obs = full_obs(rng.normal(size=(5, 5)))
    trace: list = []
    # single restart: the trace is one descent path
    block_coordinate_ls(obs, spec, SolverConfig(restarts=1), seed=0, trace=trace)
    assert len(trace) >= 1
    assert all(b <= a + 1e-9 * (1 + abs(a)) for a, b in zip(trace, trace[1:]))


@settings(max_examples=15)
@given(small_specs(finite_only=True, max_dim=4), st.integers(0, 1000))
def test_bcd_never_beats_exact(spec, seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(spec.n, spec.m))
    obs = full_obs(y)
    cfg = SolverConfig(restarts=3)
    try:
        ex = exact_least_squares(obs, spec, cfg)
    except EnumerationRefusal:
        return                                 # instance too wide to enumerate
    bc = block_coordinate_ls(obs, spec, cfg, seed=seed)
    assert bc.objective >= ex.objective - 1e-9 * (1 + ex.objective)


def test_bcd_identity_pinning_at_zero_sparsity():
    spec = StructureSpec(n=4, m=4, k_n=4, k_m=2, s_n=0, s_m=1,
                         alphabet_n=BINARY, alphabet_m=BINARY)
    rng = np.random.default_rng(8)
    obs = full_obs(rng.normal(size=(4, 4)))
    got = block_coordinate_ls(obs, spec, SolverConfig(restarts=2), seed=1)
    np.testing.assert_array_equal(got.factorization.x, np.eye(4))


def test_bcd_interval_alphabet_descends():
    # nonconvex: exact recovery is not guaranteed at every seed, but the fit
    # must land far below the zero fit and stay inside the alphabet box
    spec = StructureSpec(n=6, m=6, k_n=2, k_m=2, s_n=1, s_m=1,
                         alphabet_n=SYMMETRIC, alphabet_m=SYMMETRIC)
    rng = np.random.default_rng(4)
    x, b, z = member_of(spec, rng)
    theta = x @ b @ z.T
    got = block_coordinate_ls(full_obs(theta), spec, SolverConfig(), seed=0)
    assert got.objective <= 0.25 * float(np.sum(theta * theta))
    assert np.abs(got.factorization.x).max() <= 1.0 + 1e-12
    assert np.abs(got.factorization.z).max() <= 1.0 + 1e-12


@pytest.mark.parametrize("full_mask", [True, False, "shared"])
@pytest.mark.parametrize("k,s", [(4, 2), (10, 5), (4, 4)])
def test_interval_row_update_matches_per_row_reference(full_mask, k, s):
    # reference: each row on its own, minimum-norm least squares per support
    # (or the truncated unrestricted solution past the support limit),
    # clipped, kept only if its direct masked residual decreases. full_mask
    # "shared" repeats one random mask row: every row shares its Gram, but
    # not that of the all-ones mask
    rng = np.random.default_rng(11)
    r, cols, lo, hi = 7, 12, -1.0, 1.0
    y = rng.normal(size=(r, cols)) * 2
    if full_mask == "shared":
        mask = np.tile(rng.random(cols) < 0.7, (r, 1)).astype(float)
    else:
        mask = np.ones((r, cols)) if full_mask else (rng.random((r, cols)) < 0.7).astype(float)
    p_rows = rng.normal(size=(k, cols))
    rows_cur = np.clip(rng.normal(size=(r, k)), lo, hi)

    def check(p_rows, rows_cur):
        got_rows, got_obj = est._update_rows_interval(y, mask, p_rows, rows_cur, s, lo, hi)
        supports = [sup for j in range(s + 1) for sup in itertools.combinations(range(k), j)]
        for i in range(r):
            def resid(v):
                return float(np.sum((mask[i] * (y[i] - v @ p_rows)) ** 2))
            design = (p_rows * mask[i]).T
            target = mask[i] * y[i]
            cands = []
            if len(supports) <= est._SUPPORT_LIMIT:
                for sup in supports:
                    v = np.zeros(k)
                    if sup:
                        idx = list(sup)
                        v[idx] = np.clip(np.linalg.lstsq(design[:, idx], target, rcond=None)[0], lo, hi)
                    cands.append(v)
            else:
                sol = np.linalg.lstsq(design, target, rcond=None)[0]
                keep = np.argsort(-np.abs(sol))[:s]
                v = np.zeros(k)
                v[keep] = np.clip(sol[keep], lo, hi)
                cands.append(v)
            best_v, best = rows_cur[i], resid(rows_cur[i])
            for v in cands:
                if resid(v) < best:
                    best_v, best = v, resid(v)
            np.testing.assert_allclose(got_rows[i], best_v, rtol=1e-9, atol=1e-9)
            assert got_obj[i] == pytest.approx(best, rel=1e-9, abs=1e-9)
        return got_rows, got_obj

    got_rows, got_obj = check(p_rows, rows_cur)
    # already optimal: the current row ties with its own candidate and is kept
    again_rows, again_obj = check(p_rows, got_rows)
    np.testing.assert_array_equal(again_rows, got_rows)
    np.testing.assert_array_equal(again_obj, got_obj)
    # a zero row of p_rows: a zero 1 x 1 Gram, whose solution is 0
    p_zero = p_rows.copy()
    p_zero[1] = 0.0
    check(p_zero, rows_cur)


@pytest.mark.parametrize("full_mask", [True, False, "shared"])
def test_interval_row_update_breaks_ties_like_sequential_offers(full_mask):
    # p_rows 0 and 1 are equal, so the supports {0} and {1} give distinct
    # rows of exactly equal objective: the first least candidate is taken,
    # and a current row that ties with a candidate is kept
    rng = np.random.default_rng(12)
    r, cols, k = 5, 9, 3
    p_rows = rng.normal(size=(k, cols))
    p_rows[1] = p_rows[0]
    y = 0.5 * p_rows[0] + 0.01 * rng.normal(size=(r, cols))
    if full_mask == "shared":
        mask = np.tile(rng.random(cols) < 0.7, (r, 1)).astype(float)
    else:
        mask = np.ones((r, cols)) if full_mask else (rng.random((r, cols)) < 0.7).astype(float)
    y = y * mask
    first, obj = est._update_rows_interval(y, mask, p_rows, np.zeros((r, k)), 1, -1.0, 1.0)
    assert np.all(first[:, 0] != 0) and np.all(first[:, 1:] == 0)
    swapped = first[:, [1, 0, 2]]
    kept, kept_obj = est._update_rows_interval(y, mask, p_rows, swapped, 1, -1.0, 1.0)
    np.testing.assert_array_equal(kept, swapped)
    np.testing.assert_array_equal(kept_obj, obj)


@pytest.mark.parametrize("full_mask", [True, False, "shared"])
def test_interval_row_update_offers_the_zero_row(full_mask):
    # every support's solution is negative and clips to 0.5, which is worse
    # than the zero row; so is the current row
    rng = np.random.default_rng(13)
    r, cols, k = 4, 8, 3
    if full_mask == "shared":
        mask = np.tile(rng.random(cols) < 0.7, (r, 1)).astype(float)
    else:
        mask = np.ones((r, cols)) if full_mask else (rng.random((r, cols)) < 0.7).astype(float)
    mask[:, :k] = 1.0                     # p_rows is observed
    rows, objs = est._update_rows_interval(-mask, mask, np.eye(k, cols), np.full((r, k), 0.7),
                                           2, 0.5, 1.0)
    np.testing.assert_array_equal(rows, np.zeros((r, k)))
    np.testing.assert_array_equal(objs, mask.sum(axis=1))


def test_one_by_one_closed_form_is_pinv_bit_for_bit():
    rng = np.random.default_rng(17)
    d = np.concatenate([
        [0.0, 0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-200, 1e-12,
         1.0, 3.0, 1e200, 1e300, 1.7976931348623157e308],
        10.0 ** rng.uniform(-8, 8, size=2000),
        np.where(rng.random(200) < 0.5, 0.0, rng.random(200)),
    ])
    with np.errstate(over="ignore"):      # 1/d overflows for subnormal d, in pinv too
        want = np.linalg.pinv(d[:, None, None], rcond=est._RCOND)[:, 0, 0]
        got = est._pinv_1x1(d)
    assert got.tobytes() == want.tobytes()


def test_bcd_respects_bounded_caps():
    spec = StructureSpec(n=5, m=5, k_n=2, k_m=2, s_n=1, s_m=1,
                         alphabet_n=SYMMETRIC, alphabet_m=SYMMETRIC,
                         b_max=0.3, theta_mx=10.0, bounded=True)
    rng = np.random.default_rng(6)
    obs = full_obs(rng.normal(size=(5, 5)) * 3)
    got = block_coordinate_ls(obs, spec, SolverConfig(restarts=2), seed=2)
    assert np.abs(got.factorization.b).max() <= 0.3 + 1e-12


def test_bcd_deterministic_in_seed():
    spec = binary_spec()
    rng = np.random.default_rng(9)
    obs = full_obs(rng.normal(size=(4, 4)))
    a = block_coordinate_ls(obs, spec, SolverConfig(restarts=2), seed=5)
    b = block_coordinate_ls(obs, spec, SolverConfig(restarts=2), seed=5)
    np.testing.assert_array_equal(a.theta_hat, b.theta_hat)
    assert a.objective == b.objective


def test_bcd_refuses_unenumerable_rows():
    # per-row candidate count guard, same ceiling as the exact path
    alph = Alphabet.finite(tuple(float(v) for v in range(10)))
    spec = StructureSpec(n=3, m=3, k_n=12, k_m=12, s_n=6, s_m=6,
                         alphabet_n=alph, alphabet_m=alph)
    with pytest.raises(EnumerationRefusal):
        block_coordinate_ls(full_obs(np.zeros((3, 3))), spec, SolverConfig(), seed=0)


# ---- spectral thresholding -------------------------------------------------- #

def test_hard_threshold_keeps_large_singular_values():
    rng = np.random.default_rng(11)
    y = rng.normal(size=(8, 6))
    sv = np.linalg.svd(y, compute_uv=False)
    lam = float(sv[2]) - 1e-9                             # keep exactly 3
    got = hard_threshold(full_obs(y), lam)
    kept = np.linalg.svd(got.theta_hat, compute_uv=False)
    assert np.linalg.matrix_rank(got.theta_hat, tol=1e-8) == 3
    np.testing.assert_allclose(kept[:3], sv[:3], atol=1e-9)
    assert got.objective == pytest.approx(float(np.sum(sv[3:] ** 2)), rel=1e-9)


def test_hard_threshold_extremes():
    rng = np.random.default_rng(12)
    y = rng.normal(size=(5, 5))
    full = hard_threshold(full_obs(y), 0.0)
    np.testing.assert_allclose(full.theta_hat, y, atol=1e-9)
    dead = hard_threshold(full_obs(y), 1e6)
    np.testing.assert_array_equal(dead.theta_hat, np.zeros((5, 5)))
    with pytest.raises(ParameterError):
        hard_threshold(full_obs(y), -0.1)


def test_hard_threshold_rescales_by_p():
    rng = np.random.default_rng(13)
    y = rng.normal(size=(5, 5))
    a = hard_threshold(full_obs(y, p=0.5), 0.0)
    np.testing.assert_allclose(a.theta_hat, 2 * y, atol=1e-9)


@given(st.integers(0, 10_000))
def test_hard_threshold_estimate_svs_are_a_subset(seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(6, 4))
    lam = float(rng.uniform(0.5, 4.0))
    got = hard_threshold(full_obs(y), lam)
    sv = np.linalg.svd(y, compute_uv=False)
    kept = np.linalg.svd(got.theta_hat, compute_uv=False)
    expect = np.where(sv >= lam, sv, 0.0)
    np.testing.assert_allclose(np.sort(kept), np.sort(expect), atol=1e-9)


def test_spectral_threshold_hand_values():
    assert spectral_threshold(3.0, 1.0, 60, 60, 0.3, c=3.0) == pytest.approx(
        169.7056274847714, rel=1e-12)
    assert spectral_threshold(3.0, 1.0, 60, 60, 1.0, c=3.0) == pytest.approx(
        92.95160030897802, rel=1e-12)
    with pytest.raises(ParameterError):
        spectral_threshold(3.0, 1.0, 60, 60, 0.0, c=3.0)


def test_spectral_threshold_warns_in_sparse_regime():
    # p below log(n+m)/max(n,m): the calibration is outside its guarantee
    with pytest.warns(UserWarning):
        spectral_threshold(1.0, 1.0, 20, 20, 0.01, c=1.0)


# ---- adaptive selection ------------------------------------------------------ #

def adaptive_case(n=8, sigma=0.1, seed=21):
    alph = SYMMETRIC
    base = StructureSpec(n=n, m=n, k_n=2, k_m=2, s_n=1, s_m=1,
                         alphabet_n=alph, alphabet_m=alph,
                         b_max=1.0, theta_mx=1.0, bounded=True)
    rng = np.random.default_rng(seed)
    x, b, z = member_of(base, rng)
    theta = x @ b @ z.T
    y = theta + sigma * rng.normal(size=theta.shape)
    return base, full_obs(y, sigma=sigma)


def test_adaptive_matches_grid_oracle():
    base, obs = adaptive_case()
    lam = 0.05
    cfg = SolverConfig(restarts=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = adaptive_penalized(obs, base, lam, cfg, seed=3)
    cells = {}
    for sn in range(1, base.k_n + 1):
        for sm in range(1, base.k_m + 1):
            cell = replace(base, s_n=sn, s_m=sm)
            r = block_coordinate_ls(obs, cell, cfg, seed=3, path=(sn, sm))
            cells[(sn, sm)] = r.objective + lam * penalty(sn, sm, base)
    best = min(cells.values())
    assert got.objective == pytest.approx(best, abs=1e-9)
    assert cells[got.selected_s] == pytest.approx(best, abs=1e-9)


def test_adaptive_prefers_small_support_under_heavy_penalty():
    base, obs = adaptive_case()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = adaptive_penalized(obs, base, 100.0, SolverConfig(restarts=1), seed=0)
    assert got.selected_s == (1, 1)


def test_adaptive_validation():
    base, obs = adaptive_case()
    with pytest.raises(ParameterError):
        adaptive_penalized(obs, base, 0.0, SolverConfig(), seed=0)


def test_adaptive_warns_when_penalty_alone_decides():
    # adaptive_case: ||Y||^2 = 0.74 and the smallest penalty gap to (1, 1) is 22.2
    base, obs = adaptive_case()
    cfg = SolverConfig(restarts=1)
    with pytest.warns(UserWarning, match="penalty alone"):
        adaptive_penalized(obs, base, 100.0, cfg, seed=0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        adaptive_penalized(obs, base, 0.01, cfg, seed=0)
    assert not [w for w in caught if "penalty alone" in str(w.message)]


def test_adaptive_warns_below_calibrated_regime():
    base, obs = adaptive_case(n=3)
    with pytest.warns(UserWarning):
        adaptive_penalized(obs, base, 1.0, SolverConfig(restarts=1), seed=0)


def test_adaptive_at_p_below_one_fits_the_unrescaled_masked_residual():
    # at p = 0.5 the cores must see Y over the mask, not Y' = Y/p: the selected
    # objective is the p = 1 grid oracle and the masked residual of Y itself
    base, full = adaptive_case()
    rng = np.random.default_rng(8)
    mask = (rng.random(full.shape) < 0.5).astype(float)
    obs = Observation(y=full.y * mask, mask=mask, p=0.5, sigma=full.sigma)
    lam = 0.05
    cfg = SolverConfig(restarts=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = adaptive_penalized(obs, base, lam, cfg, seed=3)
    unrescaled = Observation(y=obs.y, mask=obs.mask, p=1.0)
    best = min(block_coordinate_ls(unrescaled, replace(base, s_n=sn, s_m=sm), cfg, seed=3,
                                   path=(sn, sm)).objective + lam * penalty(sn, sm, base)
               for sn in range(1, base.k_n + 1) for sm in range(1, base.k_m + 1))
    assert got.objective == pytest.approx(best, rel=1e-9, abs=1e-9)
    residual = float(np.sum(obs.mask * (obs.y - got.theta_hat) ** 2))
    assert got.objective == pytest.approx(residual + lam * penalty(*got.selected_s, base),
                                          rel=0, abs=1e-9)
