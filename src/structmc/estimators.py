"""The three estimators: exact / block-coordinate least squares over the
sparse-factor class, SVD hard thresholding, and the sparsity-adaptive
penalized selector.

The combinatorial search only ever ranges over (X, Z): the middle factor is
unconstrained, so B is profiled out in closed form by masked least squares,
one normal-equations solve on the (k_n k_m)-square Gram of the masked design
(minimum-Frobenius-norm solution). When every row of both outer factors has
at most one nonzero (one-hot factors, an identity side) the Gram is diagonal
and B is the masked block mean. Otherwise the Gram, symmetric PSD, is solved
by its eigendecomposition (eigh). Either way the cutoff _RCOND applies to the
Gram's eigenvalues, so design singular values below sqrt(_RCOND) * sigma_max
(1e-5 relative) are treated as zero.

The least-squares cores _exact and _bcd minimize sum_ij w_ij (T_ij - theta_ij)^2
for a target T and weights w, which must be 0/1 with T zero wherever w is 0
(the B-solve forms X^T T Z unweighted). exact_least_squares and
block_coordinate_ls fit (Y/p, mask); adaptive_penalized fits (Y, mask).
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Alphabet,
    Factorization,
    Observation,
    ParameterError,
    ShapeError,
    StructureSpec,
    _check_p,
    _check_range,
    assemble,
)
from .rates import penalty
from .simulate import PURPOSE_SOLVER, stream

__all__ = [
    "METHODS",
    "EstimateResult",
    "SolverConfig",
    "EnumerationRefusal",
    "solve_b_given_xz",
    "exact_least_squares",
    "block_coordinate_ls",
    "hard_threshold",
    "spectral_threshold",
    "adaptive_penalized",
    "estimate",
]

METHODS = ("exact", "bcd", "svt", "adaptive")

_RCOND = 1e-10
# per-row candidate count above which a finite side cannot be swept by bcd
ROW_CANDIDATE_LIMIT = 1_000_000


class EnumerationRefusal(RuntimeError):
    """The requested search is combinatorially too large; this is a budget
    refusal, not a data error."""


@dataclass(frozen=True)
class SolverConfig:
    restarts: int = 5
    max_iterations: int = 200
    tol: float = 1e-9
    exhaustive_limit: int = 1_000_000

    def __post_init__(self):
        for name in ("restarts", "max_iterations", "exhaustive_limit"):
            _check_range(name, getattr(self, name), 1)
        _check_range("tol", self.tol, 0, open_lo=True)


@dataclass(frozen=True)
class EstimateResult:
    theta_hat: np.ndarray
    objective: float
    factorization: Factorization | None = None
    selected_s: tuple[int, int] | None = None
    iterations: int = 0
    restarts_used: int = 0
    converged: bool = True

    def __post_init__(self):
        if math.isnan(self.objective):
            raise RuntimeError("estimator objective is NaN")
        object.__setattr__(self, "objective", max(0.0, float(self.objective)))


# ---------- candidate row enumeration ---------- #

def _row_count(k: int, s: int, alphabet: Alphabet | None = None) -> int:
    """Sum_{j<=s} C(k, j) d^j, the rows one row update scores: d = |D| for a
    finite alphabet D, else 1 (an interval row is solved once per support)."""
    d = len(alphabet.values) if alphabet is not None and alphabet.kind == "finite" else 1
    return sum(math.comb(k, j) * d ** j for j in range(s + 1))


def enumeration_size(spec: StructureSpec) -> int | None:
    """Undeduped size of the exact search over (X, Z) on the entry alphabets:
    the per-row candidate count of X to the n times that of Z to the m; None
    when a side with s > 0 has an interval alphabet (nothing to enumerate)."""
    size = 1
    for s, k, rows, alph in ((spec.s_n, spec.k_n, spec.n, spec.entry_alphabets[0]),
                             (spec.s_m, spec.k_m, spec.m, spec.entry_alphabets[1])):
        if s > 0 and alph.kind != "finite":
            return None
        size *= _row_count(k, s, alph) ** rows
    return size


@functools.lru_cache(maxsize=None)
def _candidate_rows(k: int, s: int, alphabet: Alphabet) -> np.ndarray:
    """Distinct candidate rows over a finite entry alphabet, first occurrence
    kept, in the documented order: support size ascending, index sets
    lexicographic within a size, value tuples in alphabet product order. One
    read-only table per argument tuple, shared by every fit."""
    seen = {}
    for j in range(s + 1):
        for support in itertools.combinations(range(k), j):
            for vals in itertools.product(alphabet.values, repeat=j):
                row = np.zeros(k)
                row[list(support)] = vals
                seen.setdefault(row.tobytes(), row)
    table = np.array(list(seen.values()))
    table.flags.writeable = False
    return table


# ---------- closed-form middle factor ---------- #

def _solve_b(x: np.ndarray, z: np.ndarray, mask: np.ndarray, yp: np.ndarray) -> np.ndarray:
    """Minimum-norm masked least-squares B for a batch of (X, Z) pairs: x of
    shape (c|1, n, k_n) and z of shape (c|1, m, k_m), a batch of one being
    shared by every pair; returns (c, k_n, k_m).

    Solves the normal equations G vec(B) = X^T Y' Z (yp is zero off the mask,
    see the module docstring), where G = sum_ij E_ij (x_i x_i^T) kron
    (z_j z_j^T), never forming the (n m, k_n k_m) design:
    - if every row of x and of z has at most one nonzero (one-hot factors, an
      identity side), G is diagonal, d = ((x*x)^T E)(z*z), and B is the masked
      block mean d^-1 (X^T Y' Z) under eigh's cutoff: entries of d <= _RCOND *
      max(d) of the pair count as zero; memory per pair O(k_n (n + m + k_m)).
    - otherwise one eigh call (_psd_solve) covers the batch; memory per pair
      O((n + m)(k_n^2 + k_m^2) + (k_n k_m)^2).
    """
    _, n, k_n = x.shape
    _, m, k_m = z.shape
    if _one_sparse(x) and _one_sparse(z):
        return _block_fit(x, z, mask, yp)[0]
    rhs = (x.transpose(0, 2, 1) @ yp) @ z
    xx = (x[:, :, :, None] * x[:, :, None, :]).reshape(-1, n, k_n * k_n)
    zz = (z[:, :, :, None] * z[:, :, None, :]).reshape(-1, m, k_m * k_m)
    g = (xx.transpose(0, 2, 1) @ mask) @ zz
    c = len(g)
    g = g.reshape(c, k_n, k_n, k_m, k_m).transpose(0, 1, 3, 2, 4)
    kk = k_n * k_m
    return _psd_solve(g.reshape(c, kk, kk), rhs.reshape(c, kk, 1)).reshape(c, k_n, k_m)


def _block_fit(x, z, mask, yp):
    """(B, rhs, d) of _solve_b's diagonal case, for one-sparse stacks x and z:
    the block sums rhs = X^T Y' Z, the block masses d = ((x*x)^T E)(z*z) and
    their masked block mean B = (1 / d) rhs on the kept blocks, each of shape
    (c, k_n, k_m)."""
    rhs = (x.transpose(0, 2, 1) @ yp) @ z
    d = ((x * x).transpose(0, 2, 1) @ mask) @ (z * z)
    # max(d) per pair reduces a transposed copy: short-axis reductions are slow
    d_max = np.ascontiguousarray(d.reshape(len(d), -1).T).max(axis=0)
    keep = _kept_blocks(d, d_max[:, None, None])
    return np.divide(1.0, d, out=np.zeros_like(d), where=keep) * rhs, rhs, d


def _kept_blocks(d, d_max):
    """The blocks of one-sparse fits that eigh's cutoff on the diagonal Gram
    keeps: mass d > _RCOND * d_max, d_max being each fit's largest mass
    broadcast against d. The rest count as empty, B = 0 there."""
    return d > _RCOND * d_max


def _block_objs(t_sq, b, rhs, d, axes):
    """Masked residuals ||T_w||^2 - 2 sum(B rhs) + sum(B^2 d) of one-sparse
    fits from their block sums rhs and masses d, summed over the block axes,
    t_sq being ||T_w||^2; no n x m residual is formed. This holds for any B on
    the fits' blocks, a clipped one too. b None stands for the block mean, for
    which it is ||T_w||^2 - sum(rhs^2 / d) over the kept blocks; that form
    overwrites rhs and d."""
    if b is None:
        d[~_kept_blocks(d, d.max(axis=axes, keepdims=True))] = np.inf
        rhs *= rhs
        rhs /= d
        return t_sq - rhs.sum(axis=axes)
    fit = b * d
    fit -= rhs
    fit -= rhs
    fit *= b
    return t_sq + fit.sum(axis=axes)


def _near_least(objs, least, t_sq):
    """Which closed-form residuals objs lie within 1e-9 (1 + ||T_w||^2) of
    least, and so are scored again directly. The tolerance scales with
    ||T_w||^2, not with the objective, because the closed form cancels terms
    of that size (an exact fit has objective 0)."""
    return objs <= least + 1e-9 * (1.0 + t_sq)


def _one_sparse(f: np.ndarray) -> bool:
    """Whether every row of the stack f, shape (c, rows, k), has at most one
    nonzero: the condition for the diagonal Gram of _solve_b. More nonzeros
    than rows fails at once; rows are counted by a matrix-vector product,
    since short-axis reductions are slow."""
    return bool(np.count_nonzero(f) <= len(f) * f.shape[1]
                and ((f.reshape(-1, f.shape[2]) != 0) @ np.ones(f.shape[2])).max() <= 1)


def _psd_solve(g: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm solutions of a stack of symmetric PSD systems g v = rhs,
    g of shape (c, k, k) and rhs of shape (c, k, r).

    One eigh call covers the stack; eigenvalues <= _RCOND * largest count as
    zero (pinv's cutoff), so an all-zero Gram gives 0. The inverse is never
    formed: v = U diag(1/w) U^T rhs on the kept eigenpairs.
    """
    w, u = np.linalg.eigh(g)
    keep = w > _RCOND * w[:, -1:]
    winv = np.divide(1.0, w, out=np.zeros_like(w), where=keep)
    return u @ (winv[:, :, None] * (u.transpose(0, 2, 1) @ rhs))


def solve_b_given_xz(obs: Observation, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Masked least squares for B given the outer factors.

    Minimizes sum_{mask=1} (Y'_ij - (X B Z^T)_ij)^2 over all real B and
    returns the minimum-Frobenius-norm minimizer.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    n, m = obs.shape
    if x.ndim != 2 or x.shape[0] != n:
        raise ShapeError(f"X must have {n} rows, got shape {x.shape}")
    if z.ndim != 2 or z.shape[0] != m:
        raise ShapeError(f"Z must have {m} rows, got shape {z.shape}")
    return _solve_b(x[None], z[None], obs.mask, obs.y_rescaled)[0]


_OBJ_CHUNK = 1 << 14


def _masked_objs(yp, mask, x, b, z) -> np.ndarray:
    """Masked residuals of the fits x[i] b[i] z[i]^T, x or z being either a
    batch like b or a batch of one shared by every fit; computed in place in
    chunks of at most _OBJ_CHUNK entries, so the temporaries stay in cache."""
    out = np.empty(len(b))
    step = max(1, _OBJ_CHUNK // mask.size)
    for lo in range(0, len(b), step):
        part = slice(lo, lo + step)
        r = (x if len(x) == 1 else x[part]) @ b[part] \
            @ (z if len(z) == 1 else z[part]).transpose(0, 2, 1)
        np.subtract(yp, r, out=r)
        r *= mask
        r *= r
        out[part] = np.sum(r, axis=(1, 2))
    return out


# ---------- exact least squares ---------- #

# entries per pair chunk of the exact search, (n m + (k_n k_m)^2) per pair
_EXACT_CHUNK = 2_000_000


def exact_least_squares(obs: Observation, spec: StructureSpec, cfg: SolverConfig) -> EstimateResult:
    """Global minimizer of the masked residual of Y' over the finite class.

    Enumerates X in A_{s_n} and Z in A_{s_m} (row products of the per-row
    candidate lists), solving B in closed form for each pair. Ties go to the
    first candidate in the documented enumeration order. Refuses when the
    undeduped enumeration size exceeds cfg.exhaustive_limit.
    """
    return _exact(obs.y_rescaled, obs.mask, spec, cfg)


def _exact(target, weights, spec: StructureSpec, cfg: SolverConfig) -> EstimateResult:
    """exact_least_squares on target T and weights w (see the module docstring).

    When every candidate row of both factors is one-sparse, B is the masked
    block mean of _solve_b, so blocks of X candidates are ranked against each
    Z chunk by the closed form _block_objs, and every pair _near_least the
    least closed-form value seen so far is solved and scored again by _solve_b
    and _masked_objs: the winner, its B and its objective are those of the
    direct search.
    """
    size = enumeration_size(spec)
    if size is None:
        raise ParameterError("exact search needs a finite alphabet on every side with s > 0; "
                             "use block_coordinate_ls")
    if size > cfg.exhaustive_limit:
        raise EnumerationRefusal(
            f"enumeration size {size} exceeds exhaustive_limit "
            f"{cfg.exhaustive_limit}; use block_coordinate_ls"
        )

    n, m, k_n, k_m = spec.n, spec.m, spec.k_n, spec.k_m
    yp, mask = target, weights
    # X candidates as index rows into x_rows, in enumeration order; an identity side is one
    if spec.s_n == 0:
        x_rows, x_index = np.eye(n), iter([tuple(range(n))])
    else:
        x_rows = _candidate_rows(k_n, spec.s_n, spec.entry_alphabets[0])
        x_index = itertools.product(range(len(x_rows)), repeat=n)
    if spec.s_m == 0:
        z_all = np.eye(m)[None, :, :]
    else:
        z_rows = _candidate_rows(k_m, spec.s_m, spec.entry_alphabets[1])
        z_all = z_rows[np.array(list(itertools.product(range(len(z_rows)), repeat=m)))]

    # pairs are taken in chunks so the (c, n, m) residuals and the closed
    # form's (c, k_n, k_m) arrays stay small
    kk = k_n * k_m
    chunk = max(1, _EXACT_CHUNK // (n * m + kk * kk))
    one_sparse = _one_sparse(x_rows[None]) and _one_sparse(z_all)
    x_block = max(1, chunk // len(z_all)) if one_sparse else 1
    if one_sparse:
        # Z as (m, k_m, C): one matmul pairs a block of X with a Z chunk, and
        # the per-pair reductions run over outer axes, with the pairs contiguous
        z_cols = np.ascontiguousarray(z_all.transpose(1, 2, 0))
        zz_cols = z_cols * z_cols
        t_sq = float(np.sum(mask * yp * yp))
        least = np.inf
    best = None  # (objective, x, b, z)
    pairs = 0

    def score(x, zs):
        # the direct search over the pairs (x, zs[i]): first least objective wins
        nonlocal best
        b = _solve_b(x[None], zs, mask, yp)
        objs = _masked_objs(yp, mask, x[None], b, zs)
        c = int(np.argmin(objs))
        if best is None or objs[c] < best[0]:
            best = (float(objs[c]), x.copy(), b[c], zs[c].copy())

    while block := list(itertools.islice(x_index, x_block)):
        xs = x_rows[np.array(block)]
        if one_sparse:
            xt = (xs.transpose(0, 2, 1) @ yp).reshape(-1, m)
            xm = ((xs * xs).transpose(0, 2, 1) @ mask).reshape(-1, m)
        for lo in range(0, len(z_all), chunk):
            zc = z_all[lo:lo + chunk]
            pairs += len(xs) * len(zc)
            if not one_sparse:
                score(xs[0], zc)
                continue
            shape = (len(xs), k_n, k_m, len(zc))
            rhs = (xt @ z_cols[:, :, lo:lo + chunk].reshape(m, -1)).reshape(shape)
            d = (xm @ zz_cols[:, :, lo:lo + chunk].reshape(m, -1)).reshape(shape)
            objs = _block_objs(t_sq, None, rhs, d, axes=(1, 2))
            least = min(least, float(objs.min()))
            near = _near_least(objs, least, t_sq)
            for i in np.flatnonzero(near.any(axis=1)):
                score(xs[i], zc[near[i]])

    obj, x_best, b_best, z_best = best
    fact = Factorization(x=x_best, b=b_best, z=z_best)
    return EstimateResult(theta_hat=assemble(fact), objective=obj, factorization=fact,
                          iterations=pairs, restarts_used=0, converged=True)


# ---------- block coordinate descent ---------- #

def _update_rows_finite(my, base, mask, p_rows, cand):
    """Exact per-row argmin over candidate rows for a batch of a restarts;
    valid because the masked residual decomposes across rows given the other
    factors. my = mask * y and its row energies base = sum(my * y, axis=1)
    are fixed for a fit; p_rows is (a, k, cols) and the new rows (a, r, k)."""
    prod = cand @ p_rows                       # (a, C, cols)
    scores = (base[:, None] - 2.0 * (my @ prod.transpose(0, 2, 1))
              + mask @ (prod * prod).transpose(0, 2, 1))
    return cand[np.argmin(scores, axis=2)]


_SUPPORT_LIMIT = 128


@functools.lru_cache(maxsize=None)
def _support_tables(k: int, s: int) -> tuple[np.ndarray, ...]:
    """The supports of each size 1..s of a k-column row, index sets
    lexicographic within a size: one read-only (C(k, j), j) table per size."""
    tables = tuple(np.array(list(itertools.combinations(range(k), j))) for j in range(1, s + 1))
    for t in tables:
        t.flags.writeable = False
    return tables


def _update_rows_interval(y, mask, p_rows, rows_cur, s, lo, hi):
    """Continuous row update: per-support masked least squares with clipping,
    batched over rows and over the supports of each size; falls back to
    truncate-to-s when the support count is large. A row only changes if its
    masked objective decreases: the first least of the current row, the zero
    row and the candidates in support order is kept.

    The Gram is (k, k) when every row has the same mask (p = 1) and (r, k, k)
    otherwise; each support size is solved once over it, and every row's
    candidates are scored in one (r, T, k) pass."""
    r, k = rows_cur.shape
    c = np.einsum("kj,ij,ij->ik", p_rows, mask, y)         # (r, k)
    base = np.sum(mask * y * y, axis=1)
    shared = np.all(mask == mask[0])
    # the per-row einsum on one row when shared, so bit for bit every row's Gram
    g = np.einsum("kj,ij,lj->ikl", p_rows, mask[:1] if shared else mask, p_rows)
    # lead: the einsum subscript of g's row axis, if it has one
    g, lead = (g[0], "") if shared else (g, "i")
    cands = [rows_cur[:, None]]
    if _row_count(k, s) <= _SUPPORT_LIMIT:
        cands.append(np.zeros((r, 1, k)))
        for sups in _support_tables(k, s):
            t, j = sups.shape
            # per-row 1 x 1 Grams keep pinv: the closed form there speeds up
            # masked_completion, whose peak RSS grows with its units (ROADMAP item 1)
            if j == 1 and shared:
                inv = _pinv_1x1(np.diagonal(g))[:, None, None]
            else:
                # pinv, not eigh: eigh moves last bits, and with them the
                # pinned interval fits
                inv = np.linalg.pinv(g[..., sups[:, :, None], sups[:, None, :]], rcond=_RCOND)
            v = np.zeros((r, t, k))
            v[:, np.arange(t)[:, None], sups] = np.clip(
                np.einsum(f"{lead}tkl,itl->itk", inv, c[:, sups]), lo, hi)
            cands.append(v)
    else:
        inv = np.linalg.pinv(g[..., None, :, :], rcond=_RCOND)
        sol = np.einsum(f"{lead}tkl,itl->itk", inv, c[:, None])[:, 0]
        cands.append(_truncated(sol, s, lo, hi)[:, None])
    v = np.concatenate(cands, axis=1)                       # (r, T, k)
    objs = (base[:, None] - 2.0 * np.sum(v * c[:, None], axis=2)
            + np.einsum(f"itk,{lead}kl,itl->it", v, g, v))
    first = np.argmin(objs, axis=1)
    rows = np.arange(r)
    return v[rows, first], objs[rows, first]


def _truncated(sol, s, lo, hi):
    """The unrestricted solutions sol (r, k) truncated to their s largest
    coordinates per row, clipped to [lo, hi]."""
    keep = np.argsort(-np.abs(sol), axis=1)[:, :s]
    v = np.zeros(sol.shape)
    np.put_along_axis(v, keep, np.clip(np.take_along_axis(sol, keep, axis=1), lo, hi), axis=1)
    return v


# LAPACK's SVD rescales a matrix whose largest entry lies outside
# [_SVD_SAFE, 1 / _SVD_SAFE], which can move the last bit of its pinv
_SVD_SAFE = math.sqrt(np.finfo(float).tiny) / np.finfo(float).eps


def _pinv_1x1(d: np.ndarray) -> np.ndarray:
    """pinv(rcond=_RCOND) of each 1 x 1 PSD Gram d[t], bit for bit: 1/d
    where d > 0 (the cutoff keeps every positive value), else 0; a positive
    d outside the SVD's unscaled range goes through pinv itself."""
    plain = (d >= _SVD_SAFE) & (d <= 1.0 / _SVD_SAFE)
    inv = np.divide(1.0, d, out=np.zeros(len(d)), where=plain)
    odd = (d > 0) & ~plain
    if odd.any():
        inv[odd] = np.linalg.pinv(d[odd, None, None], rcond=_RCOND)[:, 0, 0]
    return inv


def _init_factor(rng, rows, k, s, alphabet, cand):
    """Random factor: rows drawn from the finite candidate table cand, or
    random s-sparse interval rows when cand is None; the identity if s = 0."""
    if s == 0:
        return np.eye(rows)
    if cand is not None:
        return cand[rng.integers(0, len(cand), size=rows)]
    out = np.zeros((rows, k))
    for i in range(rows):
        support = rng.choice(k, size=s, replace=False)
        out[i, support] = rng.uniform(alphabet.lo, alphabet.hi, size=s)
    return out


_INIT_POOL = 32


def _least_draw(yp, mask, xs, zs, b_max, t_sq):
    """(x, b, z, objective) of the first draw (xs[i], zs[i]) of least masked
    residual under its own B, clipped to [-b_max, b_max] unless b_max is None;
    xs or zs may be a batch of one shared by every draw, t_sq is ||T_w||^2.

    When both stacks are one-sparse, the draws are ranked by the closed form
    _block_objs and only those _near_least the least are scored directly, as
    in _exact: the draw kept and its objective are those of scoring them all.
    """
    one_sparse = _one_sparse(xs) and _one_sparse(zs)
    if one_sparse:
        bs, rhs, d = _block_fit(xs, zs, mask, yp)
    else:
        bs = _solve_b(xs, zs, mask, yp)
    if b_max is not None:
        bs = np.clip(bs, -b_max, b_max)
    draws = np.arange(len(bs))
    if one_sparse:
        objs = _block_objs(t_sq, bs, rhs, d, axes=(1, 2))
        draws = draws[_near_least(objs, objs.min(), t_sq)]
    xs, zs = (f if len(f) == 1 else f[draws] for f in (xs, zs))
    objs = _masked_objs(yp, mask, xs, bs[draws], zs)
    j = int(np.argmin(objs))     # the first least; copies free the pool
    return (xs[j if len(xs) > 1 else 0].copy(), bs[draws[j]].copy(),
            zs[j if len(zs) > 1 else 0].copy(), objs[j])


def block_coordinate_ls(obs: Observation, spec: StructureSpec, cfg: SolverConfig, seed: int,
                        trace: list | None = None, path: tuple[int, ...] = ()) -> EstimateResult:
    """Coordinate descent: closed-form B, exact per-row X updates, exact
    per-row Z updates, repeated until the relative decrease falls below
    cfg.tol; best of cfg.restarts random initializations.

    Each restart seeds the descent with the best of a pool of random (X, Z)
    draws from its own stream, each judged by its masked residual under its
    own B, all of which come from one batched B-solve (_least_draw; one-sparse
    pools are ranked by the closed form); the discrete landscape has many
    block-wise local minima, and spending the restart budget on well-placed
    starts is what makes small restart counts reliable.

    The restarts descend in lockstep: a sweep makes one B-solve and, per
    finite side, one row update for every restart still active (interval rows
    go restart by restart), and each restart leaves at its own convergence
    sweep, ending as it would alone. trace gets each restart's objective per
    sweep, one segment per restart in restart order; the first restart with
    the least objective is kept.

    The objective is non-increasing across every update (finite rows by
    exhaustive per-row argmin, continuous rows and clipped B by the
    accept-only-if-not-worse rule).
    """
    return _bcd(obs.y_rescaled, obs.mask, spec, cfg, seed, trace, path)


def _bcd_rows(spec: StructureSpec) -> tuple[int, int]:
    """The rows one row update of X and of Z scores on the entry alphabets;
    refuses a finite side whose per-row count exceeds ROW_CANDIDATE_LIMIT."""
    alphs = spec.entry_alphabets
    counts = (_row_count(spec.k_n, spec.s_n, alphs[0]), _row_count(spec.k_m, spec.s_m, alphs[1]))
    for count, alph, side in zip(counts, alphs, "XZ"):
        if alph.kind == "finite" and count > ROW_CANDIDATE_LIMIT:
            raise EnumerationRefusal(
                f"per-row candidate count {count} for {side} exceeds {ROW_CANDIDATE_LIMIT}")
    return counts


def _bcd(target, weights, spec: StructureSpec, cfg: SolverConfig, seed: int,
         trace: list | None = None, path: tuple[int, ...] = ()) -> EstimateResult:
    """block_coordinate_ls on target T and weights w (see the module docstring)."""
    _bcd_rows(spec)
    yp, mask = target, weights
    alph_x, alph_z = spec.entry_alphabets
    cand_x = (None if spec.s_n == 0 or alph_x.kind != "finite"
              else _candidate_rows(spec.k_n, spec.s_n, alph_x))
    cand_z = (None if spec.s_m == 0 or alph_z.kind != "finite"
              else _candidate_rows(spec.k_m, spec.s_m, alph_z))

    pool = 1 if spec.s_n == 0 and spec.s_m == 0 else _INIT_POOL
    b_max = spec.b_max if spec.bounded else None
    t_sq = float(np.sum(mask * yp * yp))
    interval_side = (spec.s_n > 0 and cand_x is None) or (spec.s_m > 0 and cand_z is None)
    starts = []                      # (x, b, z, objective) of each restart's start
    for r_idx in range(cfg.restarts):
        rng = stream(seed, PURPOSE_SOLVER, *path, r_idx)
        if interval_side:
            xs, zs = [], []
            for _ in range(pool):
                xs.append(_init_factor(rng, spec.n, spec.k_n, spec.s_n, alph_x, cand_x))
                zs.append(_init_factor(rng, spec.m, spec.k_m, spec.s_m, alph_z, cand_z))
        else:
            # one integers call whose per-entry bounds give the per-draw
            # stream of _init_factor: rows_x indices into cand_x, then
            # rows_z into cand_z, for each draw in turn (an identity side
            # draws nothing)
            rows_x = spec.n if spec.s_n else 0
            rows_z = spec.m if spec.s_m else 0
            highs = np.repeat([len(cand_x) if rows_x else 1, len(cand_z) if rows_z else 1],
                              [rows_x, rows_z])
            idx = rng.integers(0, np.tile(highs, pool)).reshape(pool, rows_x + rows_z)
            xs = cand_x[idx[:, :rows_x]] if spec.s_n else None
            zs = cand_z[idx[:, rows_x:]] if spec.s_m else None
        # an identity side is shared by every draw: a batch of one
        xs = np.array(xs) if spec.s_n else np.eye(spec.n)[None]
        zs = np.array(zs) if spec.s_m else np.eye(spec.m)[None]
        starts.append(_least_draw(yp, mask, xs, zs, b_max, t_sq))

    def row_update(y, mk, s, alphabet, cand):
        """One side's update of every active restart's rows, given p_rows."""
        if cand is not None:
            my = mk * y
            base = np.sum(my * y, axis=1)
            return lambda p_rows, rows: _update_rows_finite(my, base, mk, p_rows, cand)
        return lambda p_rows, rows: np.array([
            _update_rows_interval(y, mk, p_r, rows_r, s, alphabet.lo, alphabet.hi)[0]
            for p_r, rows_r in zip(p_rows, rows)])

    update_x = row_update(yp, mask, spec.s_n, alph_x, cand_x) if spec.s_n else None
    update_z = row_update(yp.T, mask.T, spec.s_m, alph_z, cand_z) if spec.s_m else None
    # the state of the active restarts, live; an identity side stays a batch of one
    live = np.arange(cfg.restarts)
    x, b, z, obj = (np.array(v) for v in zip(*starts))
    x, z = (x if spec.s_n else x[:1]), (z if spec.s_m else z[:1])
    segments = [[] for _ in live]
    ends = [None] * cfg.restarts     # (x, b, z, converged) of each restart at its exit
    sweeps = 0
    while len(live):
        sweeps += 1
        prev = obj
        # B block: closed form; clipping under bounds is accept-if-not-worse
        b_new = _solve_b(x, z, mask, yp)
        if spec.bounded:
            b_new = np.clip(b_new, -spec.b_max, spec.b_max)
            better = _masked_objs(yp, mask, x, b_new, z) <= obj
            b = np.where(better[:, None, None], b_new, b)
        else:
            b = b_new
        # X rows: residual decomposes across rows given (B, Z); Z rows: the
        # same update on the transposed problem
        if spec.s_n:
            x = update_x(b @ z.transpose(0, 2, 1), x)
        if spec.s_m:
            z = update_z((x @ b).transpose(0, 2, 1), z)
        obj = _masked_objs(yp, mask, x, b, z)
        rose = np.flatnonzero(obj > prev + 1e-9 * (1.0 + prev))
        if len(rose):  # descent is structural; a rise is a bug
            raise RuntimeError(f"objective increased {prev[rose[0]]} -> {obj[rose[0]]}")
        converged = prev - obj <= cfg.tol * np.maximum(prev, 1e-300)
        done = converged | (sweeps == cfg.max_iterations)
        for j, r in enumerate(live):
            segments[r].append(float(obj[j]))
            if done[j]:
                ends[r] = (x[j if spec.s_n else 0], b[j], z[j if spec.s_m else 0],
                           bool(converged[j]))
        go = ~done
        live, obj, b = live[go], obj[go], b[go]
        x, z = (x[go] if spec.s_n else x), (z[go] if spec.s_m else z)

    if trace is not None:
        trace.extend(itertools.chain(*segments))
    kept = min(range(cfg.restarts), key=lambda r: segments[r][-1])
    x, b, z, converged = ends[kept]
    fact = Factorization(x=x, b=b, z=z)
    return EstimateResult(theta_hat=assemble(fact), objective=segments[kept][-1],
                          factorization=fact, iterations=len(segments[kept]),
                          restarts_used=cfg.restarts, converged=converged)


# ---------- spectral estimators ---------- #

def hard_threshold(obs: Observation, lam: float) -> EstimateResult:
    """Keep the singular components of Y' = Y/p with singular value >= lam.

    The objective reports the discarded energy sum_{sigma_j < lam} sigma_j^2.
    """
    _check_range("lambda", lam, 0)
    u, s, vt = np.linalg.svd(obs.y_rescaled, full_matrices=False)
    keep = s >= lam
    theta = (u[:, keep] * s[keep]) @ vt[keep]
    return EstimateResult(theta_hat=theta, objective=float(np.sum(s[~keep] ** 2)),
                          iterations=0, restarts_used=0, converged=True)


def spectral_threshold(b: float, theta_mx: float, n: int, m: int, p: float, c: float) -> float:
    """lambda = c (b + theta_mx) sqrt(max(n, m) / p)."""
    _check_p(p)
    _check_range("b", b, 0)
    _check_range("theta_mx", theta_mx, 0, open_lo=True)
    _check_range("c", c, 0, open_lo=True)
    if p < math.log(n + m) / max(n, m):
        warnings.warn(
            f"p = {p} is below log(n+m)/(n v m) = {math.log(n + m) / max(n, m):.4g}; "
            "the threshold guarantee may not apply", stacklevel=2,
        )
    return c * (b + theta_mx) * math.sqrt(max(n, m) / p)


# ---------- adaptive penalized selection ---------- #

def _cell_method(spec: StructureSpec, cfg: SolverConfig) -> str:
    """The solver of one sparsity cell of adaptive_penalized: "exact" when the
    search is enumerable within cfg.exhaustive_limit, else "bcd"."""
    size = enumeration_size(spec)
    return "exact" if size is not None and size <= cfg.exhaustive_limit else "bcd"


def projected_work(method: str, spec: StructureSpec, cfg: SolverConfig) -> float:
    """Abstract operations of one estimate(method, ...) call: the enumeration
    size for exact, restarts * max_iterations * (n rows_X + m rows_Z) for bcd
    (rows per _bcd_rows), n m min(n, m) for the SVD of svt, and over
    adaptive's grid the cost of each cell's solver. A refusal costs nothing."""
    if method == "exact":
        return float(enumeration_size(spec)) if _cell_method(spec, cfg) == "exact" else 0.0
    if method == "bcd":
        try:
            cx, cz = _bcd_rows(spec)
        except EnumerationRefusal:
            return 0.0
        return float(cfg.restarts * cfg.max_iterations * (spec.n * cx + spec.m * cz))
    if method == "svt":
        return float(spec.n * spec.m * min(spec.n, spec.m))
    cells = (replace(spec, s_n=s_n, s_m=s_m)
             for s_n in range(1, spec.k_n + 1) for s_m in range(1, spec.k_m + 1))
    return sum(projected_work(_cell_method(c, cfg), c, cfg) for c in cells)


def adaptive_penalized(obs: Observation, base_spec: StructureSpec, lam: float,
                       cfg: SolverConfig, seed: int) -> EstimateResult:
    """Penalized least squares over the sparsity grid [1..k_n] x [1..k_m].

    Each cell minimizes the unrescaled masked residual ||Y - theta_Omega||^2
    (the criterion needs no knowledge of p) within the bounded class at that
    sparsity, then pays lam * R(s_n, s_m). Ties go to smaller s_n + s_m, then
    smaller s_n. Solver refusals propagate.
    """
    _check_range("lambda", lam, 0, open_lo=True)
    n, m, d = base_spec.n, base_spec.m, base_spec.d
    if n * m * math.log(3 * math.sqrt(min(n, m))) < 6 * math.log(base_spec.k_n * base_spec.k_m) or d < 10:
        warnings.warn("problem size is below the regime the penalty calibration targets",
                      stacklevel=2)
    pens = {(s_n, s_m): penalty(s_n, s_m, base_spec)
            for s_n in range(1, base_spec.k_n + 1) for s_m in range(1, base_spec.k_m + 1)}
    gaps = [pen - pens[1, 1] for s, pen in pens.items() if s != (1, 1)]
    # the zero matrix lies in every cell, so no cell's residual exceeds ||Y_Omega||^2
    if gaps and lam * min(gaps) > float(np.sum(obs.y * obs.y)):
        warnings.warn("lambda * (smallest penalty gap to (1, 1)) exceeds ||Y_Omega||^2: "
                      "the penalty alone selects (1, 1)", stacklevel=2)

    best = None
    for (s_n, s_m), pen in pens.items():
        spec_s = replace(base_spec, s_n=s_n, s_m=s_m)
        if _cell_method(spec_s, cfg) == "exact":
            res = _exact(obs.y, obs.mask, spec_s, cfg)
        else:
            res = _bcd(obs.y, obs.mask, spec_s, cfg, seed, path=(s_n, s_m))
        key = (res.objective + lam * pen, s_n + s_m, s_n)
        if best is None or key < best[0]:
            best = (key, (s_n, s_m), res)

    key, sel, res = best
    return replace(res, objective=key[0], selected_s=sel)


def estimate(method: str, obs: Observation, spec: StructureSpec, cfg: SolverConfig,
             seed: int, lam: float | None = None) -> EstimateResult:
    """Run the estimator named by method, one of METHODS. lam is the
    threshold of svt and the penalty weight of adaptive, which both need it;
    exact and bcd ignore it."""
    if method not in METHODS:
        raise ParameterError(f"method must be one of {METHODS}, got {method!r}")
    if method == "exact":
        return exact_least_squares(obs, spec, cfg)
    if method == "bcd":
        return block_coordinate_ls(obs, spec, cfg, seed)
    if method == "svt":
        return hard_threshold(obs, lam)
    return adaptive_penalized(obs, spec, lam, cfg, seed)
