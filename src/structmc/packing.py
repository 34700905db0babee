"""Constructive lower-bound machinery: sparse binary packings, random sign
embeddings, and the two hypothesis families (row-assignment sets and middle-
factor sets) with recomputed separation / KL certificates.

Randomness: every constructor draws from stream(seed, PURPOSE_PACKING, tag)
with a fixed per-constructor tag (0 = binary packing, 1 = sign embedding,
2 = middle-factor packing), so a single seed drives a full build
reproducibly.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Factorization, ParameterError, StructureSpec, assemble, validate_membership
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

def _greedy_select(candidates_iter, threshold: float, stop_at: int | None = None):
    """Accept candidates whose Hamming distance to every accepted vector is
    >= threshold; sequential by construction.

    Candidates must be 0/1 vectors. The distances from a candidate c to the
    accepted rows are then |a| + |c| - 2 (a @ c), one matrix-vector product
    that is exact in float64, so the accept decisions are those of the L1
    distance. Each candidate is written into the next free row of a buffer
    that doubles when full, and accepting it just advances the row count.
    """
    buf = weights = None
    count = 0
    examined = 0
    for cand in candidates_iter:
        examined += 1
        if examined > _CANDIDATE_CAP:
            break
        if buf is None:
            buf, weights = np.empty((64, len(cand))), np.empty(64)
        elif count == len(buf):
            buf = np.concatenate([buf, np.empty_like(buf)])
            weights = np.concatenate([weights, np.empty_like(weights)])
        row = buf[count]
        row[:] = cand
        weight = row.sum()
        if count and np.min(weights[:count] + weight - 2.0 * (buf[:count] @ row)) < threshold:
            continue
        weights[count] = weight
        count += 1
        if stop_at is not None and count >= stop_at:
            break
    return [] if buf is None else list(buf[:count])


def _weight_s_candidates(k: int, s: int, rng):
    total = math.comb(k, s)
    if total <= _CANDIDATE_CAP:
        rows = np.zeros((total, k))
        for i, support in enumerate(itertools.combinations(range(k), s)):
            rows[i, list(support)] = 1.0
        for i in rng.permutation(total):
            yield rows[i]
    else:
        for _ in range(_CANDIDATE_CAP):
            row = np.zeros(k)
            row[rng.choice(k, size=s, replace=False)] = 1.0
            yield row


def _min_separation(codewords: np.ndarray, weights: np.ndarray) -> float:
    """Smallest squared distance over the row pairs i < j of the 0/1 matrix
    codewords (inf for fewer than two rows), by direct check.

    Rows are taken in blocks of _CERTIFY_BLOCK, each against itself and every
    later row, so memory is O(block * count) rather than O(count^2).
    """
    count = len(codewords)
    sep = np.inf
    for lo in range(0, count - 1, _CERTIFY_BLOCK):
        hi = min(lo + _CERTIFY_BLOCK, count)
        sq = weights[lo:hi, None] + weights[None, lo:] - 2 * (codewords[lo:hi] @ codewords[lo:].T)
        sq[np.tril_indices(hi - lo)] = np.inf     # each pair once, no self-pairs
        sep = min(sep, np.min(sq))
    return sep


def sparse_binary_packing(k: int, s: int,
                          target_c: tuple[float, float, float] = _DEFAULT_CONSTANTS,
                          seed: int = 0) -> BinaryPacking:
    """Greedy packing of weight-s binary vectors at squared distance c3*s.

    Candidates are visited in random order (enumerated exhaustively up to
    2^20, sampled beyond that); a vector is accepted iff it is at squared
    distance >= c3*s from everything accepted so far. Fails loudly when the
    accepted count falls short of log(count) >= c1 * s * ln(e k / s).
    """
    if k < 2:
        raise ParameterError(f"packing needs k >= 2, got {k}")
    if not 1 <= s <= k:
        raise ParameterError(f"s must lie in [1, {k}], got {s}")
    c1, c2, c3 = target_c
    rng = stream(seed, PURPOSE_PACKING, 0)
    accepted = _greedy_select(_weight_s_candidates(k, s, rng), threshold=c3 * s)
    required = c1 * s * math.log(math.e * k / s)
    if not accepted or math.log(len(accepted)) < required:
        raise ConstructionError(
            f"greedy packing reached {len(accepted)} codewords; "
            f"log-count {math.log(len(accepted)) if accepted else float('-inf'):.4g} "
            f"< required {required:.4g} (lower c3 or reseed)"
        )
    codewords = np.array(accepted)
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
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or len(vectors) < 1:
        raise ParameterError("vectors must be a non-empty 2-d collection")
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

def _certified(facts, spec: StructureSpec, p: float, sigma: float, sep_bound: float,
               kl_bound: float, delta: float, kind: str) -> HypothesisSet:
    """The hypothesis set of facts, once every member is checked to lie in
    the (unbounded) class and the recomputed pairwise certificates meet
    their bounds: least squared distance >= sep_bound, largest KL <=
    kl_bound. The KL p ||a - b||^2 / (2 sigma^2) increases with the squared
    distance, so the largest is that of the largest squared distance."""
    target = spec.unbounded()
    for fact in facts:
        report = validate_membership(fact, target)
        if not report.accepted:
            raise ConstructionError(
                "constructed hypothesis leaves the class: " + "; ".join(report.violations)
            )
    thetas = tuple(assemble(f) for f in facts)
    diffs = (a - b for a, b in itertools.combinations(thetas, 2))
    sq = [float(np.sum(d * d)) for d in diffs]
    min_sq, max_kl = min(sq), p * max(sq) / (2.0 * sigma ** 2)
    if min_sq < sep_bound * (1 - 1e-9):
        raise ConstructionError(f"separation {min_sq} below certificate {sep_bound}")
    if max_kl > kl_bound * (1 + 1e-9):
        raise ConstructionError(f"KL {max_kl} above certificate {kl_bound}")
    return HypothesisSet(thetas=thetas, delta=delta, min_sq_distance=min_sq,
                         max_kl=max_kl, kind=kind)


def build_t_z(spec: StructureSpec, sigma: float, p: float, c0: float,
              seed: int = 0, cap: int = 64) -> HypothesisSet:
    """Hypotheses that vary only in the row-assignment factor.

    X0 is the padded identity, B0 stacks delta * Q over zeros, and each
    hypothesis assigns every row of Z the same packing codeword, so the
    pairwise geometry is exactly m * delta^2 * ||Q(a_u - a_v)||^2 and the
    separation / KL certificates hold with no slack assumptions.
    """
    if spec.k_m < 2:
        raise ParameterError("the row-assignment construction needs k_m >= 2")
    if spec.s_m < 1:
        raise ParameterError("s_m must be >= 1 (Z carries the hypotheses)")
    if sigma <= 0:
        raise ParameterError("sigma must be positive")
    if not (0.0 < p <= 1.0):
        raise ParameterError(f"p must lie in (0, 1], got {p}")
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
    if sigma <= 0:
        raise ParameterError("sigma must be positive")
    if not (0.0 < p <= 1.0):
        raise ParameterError(f"p must lie in (0, 1], got {p}")
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
        if dim <= 20:
            all_codes = ((np.arange(1 << dim)[:, None] >> np.arange(dim)) & 1).astype(np.int8)
            cands = (all_codes[i].astype(float) for i in rng.permutation(1 << dim))
        else:
            cands = (rng.integers(0, 2, size=dim).astype(float) for _ in range(_CANDIDATE_CAP))
        codes = _greedy_select(cands, threshold=dim / 8.0, stop_at=cap)
        if len(codes) < 2:
            raise ConstructionError("middle-factor packing produced < 2 codewords")
        sep_bound = dim * delta_sq / 8.0
        kl_bound = p * delta_sq * dim / (2.0 * sigma ** 2)

    facts = [Factorization(x=x0, b=embed(c), z=z0) for c in codes]
    return _certified(facts, spec, p, sigma, sep_bound, kl_bound, delta, "t_b")
