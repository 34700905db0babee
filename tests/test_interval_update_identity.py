"""The interval row update against its two-branch form, byte for byte.

_update_rows_interval solves each support size once over a (k, k) Gram when
every row has the same mask, or over (r, k, k) per-row Grams otherwise, and
scores one (r, T, k) candidate stack with argmin. reference_update below is
the earlier form: a shared-mask branch (reference_shared, which already
scored one stack) and a per-row branch that offered the current row, the
zero row and each support's solution in turn, kept by strict <. Rows and
objectives must agree byte for byte.
"""

import numpy as np
import pytest

import structmc.estimators as est


def reference_update(y, mask, p_rows, rows_cur, s, lo, hi):
    r, k = rows_cur.shape
    c = np.einsum("kj,ij,ij->ik", p_rows, mask, y)
    base = np.sum(mask * y * y, axis=1)
    if np.all(mask == mask[0]):
        return reference_shared(p_rows, mask[:1], rows_cur, c, base, s, lo, hi)
    g = np.einsum("kj,ij,lj->ikl", p_rows, mask, p_rows)

    def quad_obj(v):
        return base - 2.0 * np.sum(v * c, axis=1) + np.einsum("ik,ikl,il->i", v, g, v)

    def solve(gs, cs):
        return np.einsum("itkl,itl->itk", np.linalg.pinv(gs, rcond=est._RCOND), cs)

    def offer(v):
        obj = quad_obj(v)
        take = obj < best_obj
        best_rows[take] = v[take]
        best_obj[take] = obj[take]

    best_rows = rows_cur.copy()
    best_obj = quad_obj(rows_cur)
    if est._row_count(k, s) <= est._SUPPORT_LIMIT:
        offer(np.zeros((r, k)))
        for sups in est._support_tables(k, s):
            sols = np.clip(solve(g[:, sups[:, :, None], sups[:, None, :]], c[:, sups]), lo, hi)
            for t, sup in enumerate(sups):
                v = np.zeros((r, k))
                v[:, sup] = sols[:, t]
                offer(v)
    else:
        offer(est._truncated(solve(g[:, None], c[:, None])[:, 0], s, lo, hi))
    return best_rows, best_obj


def reference_shared(p_rows, mask1, rows_cur, c, base, s, lo, hi):
    r, k = rows_cur.shape
    g = np.einsum("kj,ij,lj->ikl", p_rows, mask1, p_rows)[0]
    cands = [rows_cur[:, None]]
    if est._row_count(k, s) <= est._SUPPORT_LIMIT:
        cands.append(np.zeros((r, 1, k)))
        for sups in est._support_tables(k, s):
            t, j = sups.shape
            if j == 1:
                inv = est._pinv_1x1(np.diagonal(g))[:, None, None]
            else:
                inv = np.linalg.pinv(g[sups[:, :, None], sups[:, None, :]], rcond=est._RCOND)
            v = np.zeros((r, t, k))
            v[:, np.arange(t)[:, None], sups] = np.clip(
                np.einsum("tkl,itl->itk", inv, c[:, sups]), lo, hi)
            cands.append(v)
    else:
        sol = np.einsum("tkl,itl->itk", np.linalg.pinv(g[None], rcond=est._RCOND), c[:, None])[:, 0]
        cands.append(est._truncated(sol, s, lo, hi)[:, None])
    v = np.concatenate(cands, axis=1)
    objs = base[:, None] - 2.0 * np.sum(v * c[:, None], axis=2) + np.einsum("itk,kl,itl->it", v, g, v)
    first = np.argmin(objs, axis=1)
    rows = np.arange(r)
    return v[rows, first], objs[rows, first]


def instance(seed, mask_kind, r=9, cols=14, k=4, s=2):
    rng = np.random.default_rng(seed)
    if mask_kind == "ones":
        mask = np.ones((r, cols))
    elif mask_kind == "shared":
        mask = np.tile(rng.random(cols) < 0.6, (r, 1)).astype(float)
    else:
        mask = (rng.random((r, cols)) < 0.6).astype(float)
    y = mask * rng.normal(size=(r, cols)) * 2
    p_rows = rng.normal(size=(k, cols))
    rows_cur = np.clip(rng.normal(size=(r, k)), -1.0, 1.0)
    return y, mask, p_rows, rows_cur, s


def assert_same(y, mask, p_rows, rows_cur, s, lo=-1.0, hi=1.0):
    got = est._update_rows_interval(y, mask, p_rows, rows_cur, s, lo, hi)
    want = reference_update(y, mask, p_rows, rows_cur, s, lo, hi)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    return got


MASKS = ["ones", "shared", "rows"]


@pytest.mark.parametrize("mask_kind", MASKS)
@pytest.mark.parametrize("k,s", [(4, 2), (3, 1), (4, 4), (10, 5), (1, 1), (6, 3)])
def test_update_matches_two_branch_form(mask_kind, k, s):
    for seed in range(12):
        y, mask, p_rows, rows_cur, s = instance(seed, mask_kind, k=k, s=s)
        rows, _ = assert_same(y, mask, p_rows, rows_cur, s)
        # fed back: the current row ties with its own candidate
        assert_same(y, mask, p_rows, rows, s)
        # a tighter box clips more solutions
        assert_same(y, mask, p_rows, rows_cur, s, lo=-0.3, hi=0.2)


@pytest.mark.parametrize("mask_kind", MASKS)
def test_update_matches_with_a_zero_row_of_p_rows(mask_kind):
    for seed in range(8):
        y, mask, p_rows, rows_cur, s = instance(100 + seed, mask_kind)
        p_rows[seed % 4] = 0.0
        assert_same(y, mask, p_rows, rows_cur, s)


@pytest.mark.parametrize("mask_kind", MASKS)
def test_update_matches_on_exact_ties(mask_kind):
    # equal rows of p_rows give distinct candidates of exactly equal objective
    for seed in range(8):
        y, mask, p_rows, rows_cur, s = instance(200 + seed, mask_kind)
        p_rows[1] = p_rows[0]
        y = mask * (0.5 * p_rows[0] + 0.01 * y)
        for start in (np.zeros_like(rows_cur), rows_cur):
            rows, _ = assert_same(y, mask, p_rows, start, s)
            assert_same(y, mask, p_rows, rows[:, [1, 0, 2, 3]], s)


@pytest.mark.parametrize("mask_kind", MASKS)
def test_update_matches_across_scales(mask_kind):
    for seed, scale in enumerate([1e-8, 1e-3, 1e3, 1e8]):
        y, mask, p_rows, rows_cur, s = instance(300 + seed, mask_kind, k=5, s=3)
        assert_same(scale * y, mask, scale * p_rows, rows_cur, s)
