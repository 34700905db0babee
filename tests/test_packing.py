"""Greedy codeword packings, sign embeddings, and certified hypothesis sets."""

import itertools
import math
import warnings

import numpy as np
import pytest

from structmc import (
    Alphabet,
    ConstructionError,
    ParameterError,
    StructureSpec,
    build_t_b,
    build_t_z,
    kl_divergence,
    sign_embedding,
    sparse_binary_packing,
)
import structmc.packing as packing_mod
from structmc.packing import (
    _greedy_select, _min_separation, _pair_sq_distances, _weight_s_candidates,
)
from structmc.simulate import PURPOSE_PACKING, stream

from conftest import BINARY


def packing_spec(n=24, m=10, k_n=24, k_m=6, s_n=1, s_m=2, **kw):
    kw.setdefault("b_max", 2.0)
    kw.setdefault("theta_mx", 5.0)
    kw.setdefault("bounded", True)
    return StructureSpec(n=n, m=m, k_n=k_n, k_m=k_m, s_n=s_n, s_m=s_m,
                         alphabet_n=BINARY, alphabet_m=BINARY, **kw)


def pairwise(items):
    return itertools.combinations(range(len(items)), 2)


# ---- binary packings ------------------------------------------------------- #

def test_packing_invariants_recomputed():
    pack = sparse_binary_packing(k=12, s=3, seed=0)
    c1, c2, c3 = pack.constants
    codes = pack.codewords
    assert codes.ndim == 2 and codes.shape[1] == 12
    assert set(np.unique(codes)) <= {0.0, 1.0}
    weights = codes.sum(axis=1)
    assert np.all(weights <= 3) and np.all(weights >= c2 * 3)
    for i, j in pairwise(codes):
        assert np.sum(np.abs(codes[i] - codes[j])) >= c3 * 3
    assert math.log(len(codes)) >= c1 * 3 * math.log(math.e * 12 / 3) - 1e-12


def test_packing_deterministic_and_seed_sensitive():
    a = sparse_binary_packing(k=10, s=2, seed=4)
    b = sparse_binary_packing(k=10, s=2, seed=4)
    np.testing.assert_array_equal(a.codewords, b.codewords)
    c = sparse_binary_packing(k=10, s=2, seed=5)
    assert a.codewords.shape != c.codewords.shape or not np.array_equal(
        a.codewords, c.codewords)


def test_packing_parameter_validation():
    with pytest.raises(ParameterError):
        sparse_binary_packing(k=1, s=1)
    with pytest.raises(ParameterError):
        sparse_binary_packing(k=5, s=0)
    with pytest.raises(ParameterError):
        sparse_binary_packing(k=5, s=6)


def test_packing_fails_loud_on_impossible_targets():
    # separation above the max possible Hamming distance leaves one codeword
    with pytest.raises(ConstructionError):
        sparse_binary_packing(k=6, s=2, target_c=(0.5, 0.5, 3.0), seed=0)


# ---- sign embeddings -------------------------------------------------------- #

def test_sign_embedding_certifies_all_pairs():
    rng = np.random.default_rng(0)
    vectors = sparse_binary_packing(k=6, s=2, seed=1).codewords[:6]
    r = 48
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q = sign_embedding(r, vectors, seed=2)
    assert q.shape == (r, 6)
    assert set(np.unique(q)) <= {-1.0, 1.0}
    for i, j in pairwise(vectors):
        d = vectors[i] - vectors[j]
        dn = float(d @ d)
        qn = float(np.sum((q @ d) ** 2))
        assert r * dn / 2 - 1e-9 <= qn <= 3 * r * dn / 2 + 1e-9


def test_sign_embedding_deterministic():
    vectors = np.eye(4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = sign_embedding(32, vectors, seed=7)
        b = sign_embedding(32, vectors, seed=7)
    np.testing.assert_array_equal(a, b)


def test_sign_embedding_warns_when_rows_are_scarce():
    with pytest.warns(UserWarning):
        sign_embedding(16, np.eye(3), seed=0)


@pytest.mark.parametrize("r, max_resamples, name", [
    (0, 100, "r"), (-1, 100, "r"), (8, 0, "max_resamples"), (8, -2, "max_resamples")])
def test_sign_embedding_rejects_empty_draws_up_front(r, max_resamples, name):
    # r = 0 used to make 100 useless draws and report ratios in [nan, nan];
    # r < 0 and max_resamples = 0 died inside numpy and in the error message
    with pytest.raises(ParameterError, match=rf"^{name} must be >= 1"):
        sign_embedding(r, np.eye(3), seed=0, max_resamples=max_resamples)


def test_sign_embedding_gives_up_gracefully():
    # r = 2 rows cannot certify many well-spread pairs
    vectors = sparse_binary_packing(k=10, s=3, seed=3).codewords
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ConstructionError, match="resample|draw"):
            sign_embedding(2, vectors, seed=0, max_resamples=20)


# ---- row-assignment hypothesis sets ------------------------------------------ #

def test_t_z_certificates_hold_exhaustively():
    spec = packing_spec()
    sigma, p = 1.0, 0.7
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        hs = build_t_z(spec, sigma=sigma, p=p, c0=0.5, seed=0, cap=8)
    assert hs.kind == "t_z"
    assert len(hs.thetas) >= 2
    mind = min(float(np.sum((hs.thetas[i] - hs.thetas[j]) ** 2))
               for i, j in pairwise(hs.thetas))
    maxkl = max(kl_divergence(hs.thetas[i], hs.thetas[j], p, sigma)
                for i, j in pairwise(hs.thetas))
    assert mind >= hs.min_sq_distance - 1e-9
    assert maxkl <= hs.max_kl + 1e-9
    assert hs.delta > 0


def test_t_z_members_lie_in_the_class_shape():
    spec = packing_spec()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        hs = build_t_z(spec, sigma=0.5, p=1.0, c0=0.25, seed=3, cap=4)
    for theta in hs.thetas:
        assert theta.shape == (spec.n, spec.m)


def test_t_z_deterministic():
    spec = packing_spec()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = build_t_z(spec, sigma=1.0, p=0.5, c0=0.5, seed=11, cap=4)
        b = build_t_z(spec, sigma=1.0, p=0.5, c0=0.5, seed=11, cap=4)
    assert len(a.thetas) == len(b.thetas)
    for ta, tb in zip(a.thetas, b.thetas):
        np.testing.assert_array_equal(ta, tb)


def test_t_z_validation():
    spec = packing_spec()
    with pytest.raises(ParameterError):
        build_t_z(spec, sigma=0.0, p=0.5, c0=0.5)
    with pytest.raises(ParameterError):
        build_t_z(spec, sigma=1.0, p=1.5, c0=0.5)
    thin = packing_spec(k_m=1, s_m=1)
    with pytest.raises(ParameterError):
        build_t_z(thin, sigma=1.0, p=0.5, c0=0.5)


# ---- middle-factor hypothesis sets ------------------------------------------- #

def test_t_b_certificates_hold_exhaustively():
    spec = packing_spec(n=12, m=12, k_n=6, k_m=6, s_n=1, s_m=1)
    sigma, p = 1.0, 0.6
    hs = build_t_b(spec, sigma=sigma, p=p, c0=0.8, seed=0, cap=16)
    assert hs.kind == "t_b"
    assert len(hs.thetas) >= 2
    mind = min(float(np.sum((hs.thetas[i] - hs.thetas[j]) ** 2))
               for i, j in pairwise(hs.thetas))
    maxkl = max(kl_divergence(hs.thetas[i], hs.thetas[j], p, sigma)
                for i, j in pairwise(hs.thetas))
    assert mind >= hs.min_sq_distance - 1e-9
    assert maxkl <= hs.max_kl + 1e-9


def test_t_b_trivial_branch_on_tiny_grids():
    # r_n * r_m < 16: the set degenerates to {0, delta*E11}
    spec = packing_spec(n=3, m=3, k_n=2, k_m=2, s_n=1, s_m=1)
    hs = build_t_b(spec, sigma=1.0, p=1.0, c0=1.0, seed=0)
    assert len(hs.thetas) == 2
    diff = hs.thetas[1] - hs.thetas[0]
    assert np.count_nonzero(diff) == 1
    assert float(np.sum(diff ** 2)) == pytest.approx(hs.delta ** 2, rel=1e-12)
    assert hs.max_kl == pytest.approx(
        kl_divergence(hs.thetas[0], hs.thetas[1], 1.0, 1.0), rel=1e-9)


@pytest.mark.parametrize("build, spec, c0, cap", [
    (build_t_z, packing_spec(), 0.5, 8),
    (build_t_b, packing_spec(n=12, m=12, k_n=6, k_m=6, s_n=1, s_m=1), 0.8, 16),
    (build_t_b, packing_spec(n=3, m=3, k_n=2, k_m=2, s_n=1, s_m=1), 1.0, 64),
])
def test_certificates_are_the_pairwise_extremes_bit_for_bit(build, spec, c0, cap):
    # the largest KL is read off the largest squared distance; KL grows with
    # it, so that is the per-pair maximum exactly
    sigma, p = 1.3, 0.6
    for seed in (0, 1, 2):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            hs = build(spec, sigma=sigma, p=p, c0=c0, seed=seed, cap=cap)
        pairs = list(pairwise(hs.thetas))
        assert hs.min_sq_distance == min(float(np.sum((hs.thetas[i] - hs.thetas[j]) ** 2))
                                         for i, j in pairs)
        assert hs.max_kl == max(kl_divergence(hs.thetas[i], hs.thetas[j], p, sigma)
                                for i, j in pairs)


@pytest.mark.parametrize("build, spec", [
    (build_t_z, packing_spec()),
    (build_t_b, packing_spec(n=12, m=12, k_n=6, k_m=6, s_n=1, s_m=1)),
    (build_t_b, packing_spec(n=3, m=3, k_n=2, k_m=2, s_n=1, s_m=1)),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_sigma_and_c0_are_rejected_by_name(build, spec, bad):
    # a NaN passes both sigma <= 0 and delta^2 <= 0, and used to surface as a
    # membership refusal listing every non-finite entry of B
    with pytest.raises(ParameterError, match=r"^sigma must be positive and finite"):
        build(spec, sigma=bad, p=0.5, c0=0.5, seed=0, cap=4)
    with pytest.raises(ParameterError, match=r"^c0 must be finite"):
        build(spec, sigma=1.0, p=0.5, c0=bad, seed=0, cap=4)


def test_t_b_respects_cap():
    spec = packing_spec(n=12, m=12, k_n=6, k_m=6, s_n=1, s_m=1)
    hs = build_t_b(spec, sigma=1.0, p=1.0, c0=0.5, seed=0, cap=5)
    assert 2 <= len(hs.thetas) <= 5


@pytest.mark.parametrize("build", [build_t_z, build_t_b])
@pytest.mark.parametrize("spec", [packing_spec(),
                                  packing_spec(n=12, m=12, k_n=6, k_m=6, s_n=1, s_m=1),
                                  packing_spec(n=3, m=3, k_n=2, k_m=2, s_n=1, s_m=1)])
@pytest.mark.parametrize("cap", [1, 0, -3])
def test_cap_below_two_is_rejected_up_front(build, spec, cap):
    with pytest.raises(ParameterError, match="cap must be >= 2"):
        build(spec, sigma=1.0, p=0.5, c0=0.5, seed=0, cap=cap)


def test_t_b_deterministic():
    spec = packing_spec(n=12, m=12, k_n=6, k_m=6, s_n=1, s_m=1)
    a = build_t_b(spec, sigma=1.0, p=0.9, c0=0.5, seed=6, cap=8)
    b = build_t_b(spec, sigma=1.0, p=0.9, c0=0.5, seed=6, cap=8)
    for ta, tb in zip(a.thetas, b.thetas):
        np.testing.assert_array_equal(ta, tb)


# ---- the greedy against its sequential reference ------------------------------ #

def sequential_greedy(candidates, threshold, stop_at=None, cap=1 << 20):
    """Reference greedy: the L1 distance to every accepted vector, recomputed
    from scratch for each candidate."""
    accepted = []
    for examined, cand in enumerate(candidates, start=1):
        if examined > cap:
            break
        if accepted and np.min(np.sum(np.abs(np.array(accepted) - cand), axis=1)) < threshold:
            continue
        accepted.append(cand.astype(float))
        if stop_at is not None and len(accepted) >= stop_at:
            break
    return accepted


def rows_of(blocks):
    """The rows of a stream of row blocks, in order."""
    return (row for block in blocks for row in block)


def as_blocks(rows, sizes=(1, 100, 256, 300, 7)):
    """rows cut into consecutive blocks whose sizes cycle through sizes: a
    block smaller than, equal to and larger than the greedy's slices."""
    rows, lo = np.asarray(rows), 0
    for size in itertools.cycle(sizes):
        if lo >= len(rows):
            return
        yield rows[lo:lo + size]
        lo += size


def same_bytes(got, want):
    assert len(got) == len(want)
    assert all(np.asarray(g).tobytes() == np.asarray(w).tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("k, s, seed", [(24, 3, 1), (12, 3, 0), (20, 4, 9), (10, 2, 4)])
def test_packing_matches_sequential_greedy(k, s, seed):
    cands = rows_of(_weight_s_candidates(k, s, stream(seed, PURPOSE_PACKING, 0)))
    want = sequential_greedy(cands, threshold=0.5 * s)
    got = sparse_binary_packing(k, s, seed=seed).codewords
    same_bytes(got, want)
    assert got.shape == (len(want), k)


@pytest.mark.parametrize("k_n, k_m, seed, cap", [
    (4, 5, 0, 64),    # r_n r_m = 20: every 0/1 matrix enumerated in random order
    (4, 4, 3, 16),    # r_n r_m = 16: the smallest enumerated grid
    (6, 6, 2, 16),    # r_n r_m = 36: sampled candidates
    (5, 6, 7, 64),    # r_n r_m = 30: sampled, up to 64 hypotheses
    (5, 7, 1, 64),    # r_n r_m = 35: sampled in blocks of an odd row length
])
def test_t_b_matches_sequential_greedy(k_n, k_m, seed, cap):
    spec = packing_spec(n=12, m=12, k_n=k_n, k_m=k_m, s_n=1, s_m=1)
    sigma, p, c0 = 1.0, 0.7, 0.8
    hs = build_t_b(spec, sigma=sigma, p=p, c0=c0, seed=seed, cap=cap)
    dim = spec.r_n * spec.r_m
    rng = stream(seed, PURPOSE_PACKING, 2)
    if dim <= 20:
        cands = (((i >> np.arange(dim)) & 1).astype(float) for i in rng.permutation(1 << dim))
    else:
        cands = (rng.integers(0, 2, size=dim).astype(float) for _ in range(1 << 20))
    codes = sequential_greedy(cands, threshold=dim / 8.0, stop_at=cap)
    x0, z0 = np.eye(spec.n, spec.k_n), np.eye(spec.m, spec.k_m)
    want = []
    for code in codes:
        b = np.zeros((spec.k_n, spec.k_m))
        b[:spec.r_n, :spec.r_m] = hs.delta * code.reshape(spec.r_n, spec.r_m)
        want.append(x0 @ b @ z0.T)
    assert hs.delta == math.sqrt(c0 * sigma ** 2 / p)
    same_bytes(hs.thetas, want)


def test_greedy_select_stop_at_short_stream_and_growth():
    rng = np.random.default_rng(3)
    many = rng.integers(0, 2, size=(600, 9)).astype(float)
    # threshold 1 accepts every distinct vector: the buffer grows past 64, 128, 256
    same_bytes(_greedy_select(as_blocks(many), threshold=1.0), sequential_greedy(many, 1.0))
    unstopped = len(sequential_greedy(many, 2.0))
    for stop_at in (1, 5, 64, 65, unstopped, unstopped + 1):
        got = _greedy_select(as_blocks(many), threshold=2.0, stop_at=stop_at)
        same_bytes(got, sequential_greedy(many, 2.0, stop_at=stop_at))
        assert len(got) == min(stop_at, unstopped)
    few = many[:5]
    same_bytes(_greedy_select([few], threshold=3.0), sequential_greedy(few, 3.0))
    assert _greedy_select(iter(()), threshold=1.0).shape == (0, 0)
    # a single candidate is accepted unconditionally
    same_bytes(_greedy_select([many[:1]], threshold=100.0), [many[0]])
    # the codewords come back as one float64 array, whatever the block dtype
    got = _greedy_select(as_blocks(many.astype(np.uint8)), threshold=2.0)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    same_bytes(got, sequential_greedy(many, 2.0))


# ---- the float32 screen against the float64 reference ---------------------------- #

# Python floats, as callers pass them: a float32 array compared with a Python
# float compares in float32, with a numpy float64 in float64
BELOW_2, ABOVE_2 = float(np.nextafter(2.0, -np.inf)), float(np.nextafter(2.0, np.inf))


@pytest.mark.parametrize("threshold, like", [
    (BELOW_2, 2.0), (ABOVE_2, 3.0), (2.0 + 1e-9, 3.0), (3.0 - 1e-9, 3.0)])
def test_float32_screen_compares_the_threshold_in_float64(threshold, like):
    # every distance is an integer, so a threshold just past 2 keeps only the
    # pairs at distance >= 3; rounded to float32 (2.0 + 1e-9 and ABOVE_2 both
    # round to 2.0) it would also keep the pairs at distance 2
    assert np.float32(threshold) == round(threshold) != threshold
    rng = np.random.default_rng(11)
    cands = (rng.random((700, 9)) < 0.5).astype(float)
    want = sequential_greedy(cands, threshold)
    same_bytes(_greedy_select(as_blocks(cands), threshold), want)
    same_bytes(want, sequential_greedy(cands, like))
    assert len(want) != len(sequential_greedy(cands, like - 1.0))
    for stop_at in (3, 40):
        same_bytes(_greedy_select(as_blocks(cands), threshold, stop_at=stop_at),
                   sequential_greedy(cands, threshold, stop_at=stop_at))


@pytest.mark.parametrize("k, s, c3", [
    (9, 2, float(np.nextafter(1.0, -np.inf))),   # c3 s = BELOW_2: pairs at distance 2 stay
    (9, 2, float(np.nextafter(1.0, np.inf))),    # c3 s = ABOVE_2: they go
    (10, 4, 0.5 + 1e-9),                         # c3 s = 2.000000004, float32 2.0
    (12, 3, 2.0 / 3.0 + 1e-9),                   # c3 s = 2.000000003, float32 2.0
])
def test_packing_at_thresholds_within_float32_rounding(k, s, c3):
    seed = 4
    assert np.float32(c3 * s) == 2.0 != c3 * s
    target = (0.01, 0.5, c3)
    cands = rows_of(_weight_s_candidates(k, s, stream(seed, PURPOSE_PACKING, 0)))
    want = sequential_greedy(cands, threshold=c3 * s)
    got = sparse_binary_packing(k, s, target_c=target, seed=seed).codewords
    same_bytes(got, want)
    sep = _min_separation(got, got.sum(axis=1))
    assert sep >= c3 * s and sep == (2.0 if c3 * s < 2.0 else 4.0)


# ---- the vectorized pair distances ---------------------------------------------- #

@pytest.mark.parametrize("shape, count", [
    ((24, 10), 8), ((33, 37), 17), ((101, 103), 5), ((12, 12), 64), ((257, 129), 3), ((1, 1), 2)])
def test_pair_distances_are_the_per_pair_sums_bit_for_bit(shape, count):
    # n m = 1,221 and 10,403 are odd and past 1,000; 33,153 is past numpy's
    # 8,192-element reduction buffer
    rng = np.random.default_rng(count)
    thetas = tuple(rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4)
                   for _ in range(count))
    want = np.array([np.sum(d * d) for d in (a - b for a, b in itertools.combinations(thetas, 2))])
    got = _pair_sq_distances(thetas)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---- the blocked separation certificate ---------------------------------------- #

def dense_min_separation(codes):
    """Reference: the full A x A squared-distance matrix, diagonal excluded."""
    weights = codes.sum(axis=1)
    sq = weights[:, None] + weights[None, :] - 2 * (codes @ codes.T)
    np.fill_diagonal(sq, np.inf)
    return np.min(sq)


@pytest.mark.parametrize("rows", [257, 301, 512, 700])
def test_blocked_separation_equals_dense_minimum(rows):
    assert packing_mod._CERTIFY_BLOCK == 256
    codes = sparse_binary_packing(24, 3, seed=1).codewords        # 2,024 rows
    assert _min_separation(codes, codes.sum(axis=1)) == dense_min_separation(codes) == 2.0
    # random 0/1 rows (repeats and all-zero rows included) past one block
    rng = np.random.default_rng(rows)
    for density in (0.1, 0.5):
        random_codes = (rng.random((rows, 11)) < density).astype(float)
        assert _min_separation(random_codes, random_codes.sum(axis=1)) \
            == dense_min_separation(random_codes)
    # one repeated row: the only pair at distance 0, inside a block or across one
    for i, j in ((0, 1), (3, 100), (255, 256), (3, 300), (rows - 2, rows - 1)):
        if j < rows:
            near = codes[:rows].copy()
            near[j] = near[i]
            assert _min_separation(near, near.sum(axis=1)) == dense_min_separation(near) == 0.0


@pytest.mark.parametrize("i, j", [(3, 100), (3, 300), (255, 256), (2022, 2023)])
def test_certificate_rejects_a_single_too_close_pair(monkeypatch, i, j):
    # rows i and j of the (24, 3) packing made identical: (3, 100) and
    # (2022, 2023) lie inside one block, (3, 300) and (255, 256) across blocks
    greedy = packing_mod._greedy_select

    def tampered(*args, **kwargs):
        rows = greedy(*args, **kwargs)
        rows[j] = rows[i].copy()
        return rows

    monkeypatch.setattr(packing_mod, "_greedy_select", tampered)
    with pytest.raises(ConstructionError, match=r"pairwise separation 0\.0 < 1\.5"):
        sparse_binary_packing(24, 3, seed=1)
