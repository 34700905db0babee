"""Constructive lower-bound machinery: sparse binary packings, random sign
embeddings, and the two hypothesis families (row-assignment sets and middle-
factor sets) with recomputed separation / KL certificates.

Randomness: every constructor draws from stream(seed, PURPOSE_PACKING, tag)
with a fixed per-constructor tag (0 = binary packing, 1 = sign embedding,
2 = middle-factor packing), so a single seed drives a full build
reproducibly.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (Factorization, ParameterError, StructureSpec, _check_factor, _check_finite,
                   _check_p, _check_range, assemble, validate_membership)
from .simulate import PURPOSE_PACKING, stream

__all__ = [
    "BinaryPacking",
    "HypothesisSet",
    "ConstructionError",
    "DegenerateSetError",
    "sparse_binary_packing",
    "sign_embedding",
    "build_t_z",
    "build_t_b",
]

_CANDIDATE_CAP = 1 << 20
_CERTIFY_BLOCK = 256
_DEFAULT_CONSTANTS = (0.1, 0.5, 0.5)


class ConstructionError(RuntimeError):
    """A randomized construction failed to certify its target constants."""


class DegenerateSetError(ValueError):
    """The requested hypothesis set has fewer than two distinct members."""


@dataclass(frozen=True)
class BinaryPacking:
    """Weight-s binary codewords with certified pairwise separation.

    constants = (c1, c2, c3): log(count) >= c1 * s * ln(e k / s), every
    codeword has c2*s <= weight <= s, and distinct codewords differ in at
    least c3*s coordinates.
    """

    k: int
    s: int
    codewords: np.ndarray  # (count, k) 0/1 floats
    constants: tuple[float, float, float]


@dataclass(frozen=True)
class HypothesisSet:
    """Finite subset of the class with recomputed pairwise certificates."""

    thetas: tuple[np.ndarray, ...]
    delta: float
    min_sq_distance: float
    max_kl: float
    kind: str  # "t_z" | "t_b"


# ---------- greedy packings ---------- #

def _distance_rows(codes: np.ndarray, weights) -> tuple[np.ndarray, np.ndarray]:
    """The float32 rows [|c|, 1, -2c] and [1, |a|, a] of 0/1 rows with the
    given weights: the dot product of c's left row with a's right row is
    |a| + |c| - 2 (a @ c), their squared (and L1) distance.

    Every partial sum of that product is an integer of magnitude at most 4k,
    exact in float32 for k < 2^22 (a float64 codeword that long takes
    32 MiB), so float32 matmuls give the exact distances in any summation
    order; a float32 comparison with _at_least32(t) is then the float64
    comparison with t."""
    count, k = codes.shape
    left = np.empty((count, k + 2), np.float32)
    right = np.empty((count, k + 2), np.float32)
    left[:, 0] = right[:, 1] = weights
    left[:, 1] = right[:, 0] = 1.0
    left[:, 2:] = right[:, 2:] = codes
    left[:, 2:] *= -2.0
    return left, right


def _at_least32(threshold: float) -> np.float32:
    """The least float32 not below threshold: for every float32 d, d >= it
    exactly when d >= threshold (NaN stays NaN, past the float32 range inf)."""
    t32 = np.float32(threshold)
    return np.nextafter(t32, np.float32(np.inf)) if float(t32) < threshold else t32


def _strict_upper(size: int) -> np.ndarray:
    """The (size, size) mask of i < j."""
    return np.arange(size)[:, None] < np.arange(size)


def _product(a: np.ndarray, b: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """a @ b.T written to the front of the flat float32 array scratch, which
    is reused across blocks: a (256, 2,024) product took 0.31 ms into a
    fresh 2 MiB output and 0.20 ms into a reused one."""
    return np.matmul(a, b.T, out=scratch[:len(a) * len(b)].reshape(len(a), len(b)))


def _greedy_select(blocks, threshold: float, stop_at: int | None = None,
                   separated: float = 0.0) -> np.ndarray:
    """Accept candidates whose Hamming distance to every accepted vector is
    >= threshold, in the order given (the sequential greedy), examining at
    most _CANDIDATE_CAP candidates and stopping once stop_at are accepted;
    returns the accepted vectors as float64 rows, (0, 0) if there were none.
    separated is a distance the caller knows every two candidates to reach:
    when threshold <= separated each candidate is accepted in turn, so the
    screen is skipped.

    blocks yields (b, k) arrays of 0/1 candidate rows, of any size and real
    dtype; the distances are exact in float32 (see _distance_rows). Each
    block is screened _CERTIFY_BLOCK rows at a time, or the acceptances
    stop_at still wants if fewer: one matmul screens the rows against the
    accepted vectors and one against each other. A row that passes the
    screen and is near no earlier passing row of its slice is accepted, and
    only the ones near such a row are decided one at a time, in order.
    """
    t32 = _at_least32(threshold)
    upper = _strict_upper(_CERTIFY_BLOCK)
    acc = None      # rows [1, |a|, a] of the accepted vectors a, doubling when full
    scratch = np.empty(_CERTIFY_BLOCK * _CERTIFY_BLOCK, np.float32)   # a slice against acc
    count = 0
    examined = 0
    # no candidate past the stop is screened; the first is accepted before any stop
    wanted = math.inf if stop_at is None else max(stop_at, 1)
    if threshold <= separated:
        taken = np.concatenate(list(blocks) or [np.empty((0, 0))])[:min(_CANDIDATE_CAP, wanted)]
        return taken.astype(float) if len(taken) else np.empty((0, 0))
    for source in blocks:
        lo = 0
        while lo < len(source) and examined < _CANDIDATE_CAP and count < wanted:
            size = min(_CERTIFY_BLOCK, len(source) - lo, _CANDIDATE_CAP - examined,
                       wanted - count)
            block = source[lo:lo + size]
            lo += size
            examined += size
            left, right = _distance_rows(block, block.sum(axis=1))
            ok = np.ones(size, dtype=bool)
            if count:
                ok = _product(left, acc[:count], scratch).min(axis=1) >= t32
            near = (_product(left, right, scratch) < t32) & upper[:size, :size] & ok[:, None]
            for j in np.flatnonzero(ok & near.any(axis=0)):
                ok[j] = not np.any(ok[:j] & near[:j, j])
            take = np.flatnonzero(ok)
            if acc is None:
                acc = np.empty((_CERTIFY_BLOCK, right.shape[1]), np.float32)
            if count + len(take) > len(acc):
                acc = np.concatenate([acc, np.empty_like(acc)])
                scratch = np.empty(_CERTIFY_BLOCK * len(acc), np.float32)
            acc[count:count + len(take)] = right[take]
            count += len(take)
        if examined >= _CANDIDATE_CAP or count >= wanted:
            break
    return np.empty((0, 0)) if acc is None else acc[:count, 2:].astype(float)


def _row_blocks(total: int):
    """The (lo, hi) bounds of consecutive blocks of _CERTIFY_BLOCK rows of total."""
    return ((lo, min(lo + _CERTIFY_BLOCK, total)) for lo in range(0, total, _CERTIFY_BLOCK))


@functools.lru_cache(maxsize=None)
def _weight_s_table(k: int, s: int) -> np.ndarray:
    """Every weight-s 0/1 row of length k, supports lexicographic: one
    read-only (C(k, s), k) uint8 table."""
    table = np.zeros((math.comb(k, s), k), np.uint8)
    np.put_along_axis(table, np.array(list(itertools.combinations(range(k), s))), 1, axis=1)
    table.flags.writeable = False
    return table


def _weight_s_candidates(k: int, s: int, rng):
    """Row blocks of weight-s 0/1 candidates: every such row in the order of
    one rng permutation when there are at most _CANDIDATE_CAP, else
    _CANDIDATE_CAP rows of rng-chosen supports."""
    total = math.comb(k, s)
    if total <= _CANDIDATE_CAP:
        table, order = _weight_s_table(k, s), rng.permutation(total)
        for lo, hi in _row_blocks(total):
            yield table[order[lo:hi]]
    else:
        for lo, hi in _row_blocks(_CANDIDATE_CAP):
            block = np.zeros((hi - lo, k), np.uint8)
            for row in block:
                row[rng.choice(k, size=s, replace=False)] = 1
            yield block


def _min_separation(codewords: np.ndarray, weights: np.ndarray) -> float:
    """Smallest squared distance over the row pairs i < j of the 0/1 matrix
    codewords (inf for fewer than two rows), by direct check.

    Built from codewords and weights alone, as the exact float32 rows of
    _distance_rows. Rows are taken in blocks of _CERTIFY_BLOCK: one matmul
    gives a block against itself and every later row, of which the strict
    upper triangle of the diagonal block and the whole strip right of it
    count, so memory is O(block * count) rather than O(count^2).
    """
    count = len(codewords)
    left, right = _distance_rows(codewords, weights)
    upper = _strict_upper(_CERTIFY_BLOCK)
    scratch = np.empty(min(_CERTIFY_BLOCK, count) * count, np.float32)
    sep = np.inf
    for lo in range(0, count - 1, _CERTIFY_BLOCK):
        size = min(_CERTIFY_BLOCK, count - lo)
        sq = _product(left[lo:lo + size], right[lo:], scratch)
        sep = min(sep, sq[:, :size].min(initial=np.inf, where=upper[:size, :size]),
                  sq[:, size:].min(initial=np.inf))
    return float(sep)


def sparse_binary_packing(k: int, s: int,
                          target_c: tuple[float, float, float] = _DEFAULT_CONSTANTS,
                          seed: int = 0) -> BinaryPacking:
    """Greedy packing of weight-s binary vectors at squared distance c3*s.

    Candidates are visited in random order (enumerated exhaustively up to
    2^20, sampled beyond that); a vector is accepted iff it is at squared
    distance >= c3*s from everything accepted so far. Fails loudly when the
    accepted count falls short of log(count) >= c1 * s * ln(e k / s).

    Enumerated candidates are distinct weight-s rows, any two at squared
    distance 2 (s - |a & c|) >= 2, so when c3*s <= 2 the greedy accepts
    every one and its screen is skipped: the permuted table is the packing
    (s <= 4 at the default c3 = 0.5). Sampled candidates may repeat and are
    always screened. The weight and separation certificates below check the
    codewords either way.
    """
    _check_range("k", k, 2)
    _check_range("s", s, 1, k)
    c1, c2, c3 = target_c
    rng = stream(seed, PURPOSE_PACKING, 0)
    enumerated = math.comb(k, s) <= _CANDIDATE_CAP
    codewords = _greedy_select(_weight_s_candidates(k, s, rng), threshold=c3 * s,
                               separated=2.0 if enumerated else 0.0)
    count = len(codewords)
    required = c1 * s * math.log(math.e * k / s)
    if not count or math.log(count) < required:
        raise ConstructionError(
            f"greedy packing reached {count} codewords; "
            f"log-count {math.log(count) if count else float('-inf'):.4g} "
            f"< required {required:.4g} (lower c3 or reseed)"
        )
    # certify the advertised invariants by direct check
    weights = np.sum(codewords, axis=1)
    if np.any(weights < c2 * s) or np.any(weights > s):
        raise ConstructionError("codeword weight outside [c2*s, s]")
    sep = _min_separation(codewords, weights)
    if sep < c3 * s:
        raise ConstructionError(f"pairwise separation {sep} < {c3 * s}")
    return BinaryPacking(k=k, s=s, codewords=codewords, constants=tuple(target_c))


# ---------- sign embedding ---------- #

def sign_embedding(r: int, vectors, seed: int = 0, max_resamples: int = 100) -> np.ndarray:
    """An r x k matrix of +-1 entries that near-isometrically separates the
    given vectors: (r/2) ||a-b||^2 <= ||Q(a-b)||^2 <= (3r/2) ||a-b||^2 for
    every pair, verified exhaustively. Resamples until the check passes.
    """
    _check_range("r", r, 1)
    _check_range("max_resamples", max_resamples, 1)
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or len(vectors) < 1:
        raise ParameterError("vectors must be a non-empty 2-d collection")
    if not np.all(np.isfinite(vectors)):
        raise ParameterError(f"vectors must be finite, got {vectors[~np.isfinite(vectors)][0]}")
    n_vec, k = vectors.shape
    if n_vec > 1 and r <= 96 * math.log(n_vec):
        warnings.warn(
            f"r = {r} is not above 96 ln N = {96 * math.log(n_vec):.4g}; the "
            "embedding guarantee is only sufficient, attempting anyway",
            stacklevel=2,
        )
    iu, ju = np.triu_indices(n_vec, k=1)
    diffs = vectors[iu] - vectors[ju]            # (pairs, k)
    dn = np.sum(diffs * diffs, axis=1)           # ||a_u - a_v||^2
    rng = stream(seed, PURPOSE_PACKING, 1)
    best = None  # (violation, lo_ratio, hi_ratio)
    for _ in range(max_resamples):
        q = rng.integers(0, 2, size=(r, k)).astype(float) * 2.0 - 1.0
        if len(dn) == 0:
            return q
        qn = np.sum((diffs @ q.T) ** 2, axis=1)  # ||Q(a_u - a_v)||^2
        live = dn > 0                            # identical vectors never block
        if not np.any(live):
            return q
        ratios = qn[live] / (r * dn[live])
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        if lo >= 0.5 and hi <= 1.5:
            return q
        violation = max(0.5 - lo, hi - 1.5)
        if best is None or violation < best[0]:
            best = (violation, lo, hi)
    raise ConstructionError(
        f"no sign matrix passed in {max_resamples} draws; best attempt had "
        f"pair ratios in [{best[1]:.4g}, {best[2]:.4g}] (need [0.5, 1.5])"
    )


# ---------- hypothesis sets ---------- #

def _pair_sq_distances(thetas) -> np.ndarray:
    """||a - b||^2 of every pair of the equal-shape thetas, in
    itertools.combinations order. Each pair sums one contiguous row of n m
    squares, as np.sum(d * d) sums the (n, m) difference d, so the values are
    those bit for bit; the pairs of one a form one strip, so memory stays
    that of the stack."""
    flat = np.array(thetas).reshape(len(thetas), -1)
    strips = (flat[i] - flat[i + 1:] for i in range(len(flat) - 1))
    return np.concatenate([np.sum(d * d, axis=1) for d in strips])


def _check_members(facts, target: StructureSpec) -> None:
    """A ConstructionError unless every factorization of facts lies in the
    unbounded class target. The first is checked whole; a later factor equal
    to the first's is thereby checked, and the later factors that differ
    from it (Z across a t_z set, B across a t_b set) are stacked by rows and
    checked in one call per factor. Unbounded, every check past the shapes
    is per row or per entry, and a stack of more than one identity is no
    identity, so a stack passes exactly when each of its matrices would (its
    messages count rows from its first differing member)."""
    first = facts[0]
    violations = list(validate_membership(first, target).violations)
    rules = {"x": (target.k_n, target.s_n, target.alphabet_n),
             "z": (target.k_m, target.s_m, target.alphabet_m)}
    for name in ("x", "b", "z"):
        ref = getattr(first, name)
        later = [getattr(f, name) for f in facts[1:]]
        if any(a.shape != ref.shape for a in later):
            violations.append(f"shape {name.upper()}: members differ from the first's {ref.shape}")
            continue
        stack = np.array(later).reshape(len(later), *ref.shape)
        differ = stack[(stack != ref).any(axis=(1, 2))].reshape(-1, ref.shape[1])
        if not len(differ):
            continue
        if name == "b":
            _check_finite("B", differ, violations)
        else:
            _check_factor(name.upper(), differ, *rules[name], False, 0.0, violations)
    if violations:
        raise ConstructionError(
            "constructed hypothesis leaves the class: " + "; ".join(violations))


def _certified(facts, spec: StructureSpec, p: float, sigma: float, sep_bound: float,
               kl_bound: float, delta: float, kind: str) -> HypothesisSet:
    """The hypothesis set of facts, once every member is checked to lie in
    the (unbounded) class (_check_members) and the recomputed pairwise
    certificates meet their bounds: least squared distance >= sep_bound,
    largest KL <= kl_bound. The KL p ||a - b||^2 / (2 sigma^2) increases
    with the squared distance, so the largest is that of the largest
    squared distance."""
    _check_members(facts, spec.unbounded())
    thetas = tuple(assemble(f) for f in facts)
    sq = _pair_sq_distances(thetas)
    min_sq, max_kl = float(sq.min()), p * float(sq.max()) / (2.0 * sigma ** 2)
    if min_sq < sep_bound * (1 - 1e-9):
        raise ConstructionError(f"separation {min_sq} below certificate {sep_bound}")
    if max_kl > kl_bound * (1 + 1e-9):
        raise ConstructionError(f"KL {max_kl} above certificate {kl_bound}")
    return HypothesisSet(thetas=thetas, delta=delta, min_sq_distance=min_sq,
                         max_kl=max_kl, kind=kind)


def _check_set_args(sigma: float, p: float, c0: float, cap: int) -> None:
    """The noise level, sampling rate, scale and size cap shared by both
    builders; a set of fewer than two hypotheses carries no bound."""
    _check_range("sigma", sigma, 0, open_lo=True)
    _check_range("c0", c0)
    _check_p(p)
    _check_range("cap", cap, 2)


def build_t_z(spec: StructureSpec, sigma: float, p: float, c0: float,
              seed: int = 0, cap: int = 64) -> HypothesisSet:
    """Hypotheses that vary only in the row-assignment factor.

    X0 is the padded identity, B0 stacks delta * Q over zeros, and each
    hypothesis assigns every row of Z the same packing codeword, so the
    pairwise geometry is exactly m * delta^2 * ||Q(a_u - a_v)||^2 and the
    separation / KL certificates hold with no slack assumptions.
    """
    _check_range("k_m", spec.k_m, 2)
    _check_range("s_m", spec.s_m, 1)
    _check_set_args(sigma, p, c0, cap)
    c1, _, c3 = _DEFAULT_CONSTANTS
    s0 = sparse_binary_packing(spec.k_m, spec.s_m, seed=seed)
    size = min(len(s0.codewords), cap)
    analytic = math.exp(min(spec.r_n / 97.0, c1 * spec.s_m * math.log(math.e * spec.k_m / spec.s_m)))
    if size > analytic:
        warnings.warn(
            f"using {size} hypotheses although the analytic size gate allows only "
            f"{math.floor(analytic)} at r_n = {spec.r_n}; pairwise certificates are "
            "still checked directly", stacklevel=2,
        )
    if size < 2:
        raise DegenerateSetError("fewer than two distinct codewords available")
    codes = s0.codewords[:size]
    q = sign_embedding(spec.r_n, codes, seed=seed)
    delta_sq = c0 * sigma ** 2 * math.log(size) / (p * spec.r_n * spec.s_m)
    if delta_sq <= 0:
        raise DegenerateSetError("delta = 0 makes all hypotheses identical")
    delta = math.sqrt(delta_sq)

    x0 = np.eye(spec.n, spec.k_n)
    b0 = np.vstack([delta * q, np.zeros((spec.k_n - spec.r_n, spec.k_m))])
    facts = [Factorization(x=x0, b=b0, z=np.tile(a, (spec.m, 1))) for a in codes]
    return _certified(
        facts, spec, p, sigma, sep_bound=c3 * spec.r_n * delta_sq * spec.m * spec.s_m / 2.0,
        kl_bound=3.0 * p * spec.r_n * delta_sq * spec.m * spec.s_m / (2.0 * sigma ** 2),
        delta=delta, kind="t_z")


def build_t_b(spec: StructureSpec, sigma: float, p: float, c0: float,
              seed: int = 0, cap: int = 64) -> HypothesisSet:
    """Hypotheses that vary only in the middle factor.

    Greedy Varshamov-Gilbert packing of r_n x r_m binary matrices at Hamming
    distance r_n r_m / 8, scaled by delta with delta^2 = c0 sigma^2 / p.
    Below r_n r_m = 16 the two-point set {0, delta E_11} is returned.
    """
    _check_set_args(sigma, p, c0, cap)
    delta_sq = c0 * sigma ** 2 / p
    if delta_sq <= 0:
        raise DegenerateSetError("delta = 0 makes all hypotheses identical")
    delta = math.sqrt(delta_sq)
    r_n, r_m = spec.r_n, spec.r_m
    x0 = np.eye(spec.n, spec.k_n)
    z0 = np.eye(spec.m, spec.k_m)

    def embed(code_flat: np.ndarray) -> np.ndarray:
        b = np.zeros((spec.k_n, spec.k_m))
        b[:r_n, :r_m] = delta * code_flat.reshape(r_n, r_m)
        return b

    dim = r_n * r_m
    if dim < 16:
        # trivial branch: a two-point set already carries the rate
        codes = [np.zeros(dim), np.eye(1, dim, 0).ravel()]
        sep_bound = delta_sq
        kl_bound = p * delta_sq / (2.0 * sigma ** 2)
    else:
        rng = stream(seed, PURPOSE_PACKING, 2)
        if 1 << dim <= _CANDIDATE_CAP:
            # every 0/1 code in the order of one permutation of their integers
            order, bits = rng.permutation(1 << dim), np.arange(dim)
            cands = ((order[lo:hi, None] >> bits) & 1 for lo, hi in _row_blocks(1 << dim))
        else:
            cands = (rng.integers(0, 2, size=(hi - lo, dim))
                     for lo, hi in _row_blocks(_CANDIDATE_CAP))
        codes = _greedy_select(cands, threshold=dim / 8.0, stop_at=cap)
        if len(codes) < 2:
            raise ConstructionError("middle-factor packing produced < 2 codewords")
        sep_bound = dim * delta_sq / 8.0
        kl_bound = p * delta_sq * dim / (2.0 * sigma ** 2)

    facts = [Factorization(x=x0, b=embed(c), z=z0) for c in codes]
    return _certified(facts, spec, p, sigma, sep_bound, kl_bound, delta, "t_b")
